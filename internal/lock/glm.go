package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/obs"
	"clientlog/internal/page"
)

// GLMMetrics counts global-lock-manager events: grants split by the
// granted level, acquires that had to wait, deadlock and timeout
// aborts, page de-escalations applied, and the distribution of blocked
// wait times.
type GLMMetrics struct {
	Grants        obs.Counter // total grants
	PageGrants    obs.Counter // grants that came back page-level
	Waits         obs.Counter // acquires that blocked at least once
	Deadlocks     obs.Counter // ErrDeadlock aborts
	Timeouts      obs.Counter // ErrTimeout aborts
	Deescalations obs.Counter // page locks replaced by object locks
	WaitNanos     obs.Histogram
	// MutexWait accumulates nanoseconds callers spent blocked on the
	// shard mutexes themselves (internal contention, as opposed to
	// WaitNanos, which measures protocol-level lock waits).
	MutexWait obs.Counter
}

// RegisterObs binds the GLM's counters into reg as the lock_* families
// under the caller's tags.
func (g *GLM) RegisterObs(reg *obs.Registry, tags ...obs.Tag) {
	if reg == nil {
		return
	}
	reg.BindCounter(&g.Metrics.Grants, "lock_grants_total", tags...)
	reg.BindCounter(&g.Metrics.PageGrants, "lock_page_grants_total", tags...)
	reg.BindCounter(&g.Metrics.Waits, "lock_waits_total", tags...)
	reg.BindCounter(&g.Metrics.Deadlocks, "lock_deadlocks_total", tags...)
	reg.BindCounter(&g.Metrics.Timeouts, "lock_timeouts_total", tags...)
	reg.BindCounter(&g.Metrics.Deescalations, "lock_deescalations_total", tags...)
	reg.BindHistogram(&g.Metrics.WaitNanos, "lock_wait_nanos", tags...)
	reg.BindCounter(&g.Metrics.MutexWait, "mutex_wait_nanos_total", append(tags, obs.T("lock", "glm-shard"))...)
}

// Errors returned by GLM.Acquire.
var (
	// ErrDeadlock reports that granting the request would close a cycle
	// in the (client-level, conservative) waits-for graph; the requester
	// is chosen as the victim and should abort its transaction.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrTimeout reports that the request waited longer than the
	// configured bound.
	ErrTimeout = errors.New("lock: wait timed out")
	// ErrStopped reports that the lock manager was shut down (server
	// crash) while the request waited.
	ErrStopped = errors.New("lock: manager stopped")
)

// Callbacker performs the callback messaging on behalf of the GLM.  The
// server engine implements it; calls are made without any GLM shard
// mutex held and must not block on GLM state (the client's eventual
// replies arrive through Release/Downgrade/Deescalate).
type Callbacker interface {
	// CallbackObject asks holder to give up (wanted==X) or downgrade to
	// shared (wanted==S) its cached lock on obj, on behalf of requester.
	CallbackObject(holder, requester ident.ClientID, obj Name, wanted Mode)
	// DeescalatePage asks holder to replace its cached page lock with
	// object locks for the objects its transactions accessed.
	DeescalatePage(holder, requester ident.ClientID, pg page.ID, wanted Mode)
}

// Request is a lock request presented to the GLM.
type Request struct {
	Client ident.ClientID
	Name   Name
	Mode   Mode
	// PreferPage asks for adaptive granularity: if the whole page is
	// free of other interest, the GLM grants a page lock instead of the
	// requested object lock.
	PreferPage bool
	// Upgrade marks a request by a client that still holds a lock on
	// the name; it bypasses fairness ordering (see msg.LockReq).
	Upgrade bool
}

// Grant reports what the GLM actually granted, which may be a page lock
// when PreferPage was set.
type Grant struct {
	Name Name
	Mode Mode
	// FirstX reports that this grant is the first exclusive lock this
	// client obtains on this page (object or page level); the server
	// engine uses it to insert the DCT entry of §3.2.
	FirstX bool
}

// pageLocks is the per-page lock table.
type pageLocks struct {
	page map[ident.ClientID]Mode            // page-level locks
	objs map[uint16]map[ident.ClientID]Mode // object-level locks
}

func (pl *pageLocks) empty() bool { return len(pl.page) == 0 && len(pl.objs) == 0 }

// defaultGLMShards is the shard count NewGLM uses.  Lock names hash to
// shards by page ID; every conflict, grant and fairness decision is
// page-local (overlaps requires equal pages), so shards never need each
// other's mutexes for the hot path.
const defaultGLMShards = 16

// glmShard is one independently mutexed slice of the lock table: the
// pages hashing to it, the blocked requests targeting those pages, and
// the retry-wakeup channels for them.
type glmShard struct {
	mu      obs.WaitMutex
	pages   map[page.ID]*pageLocks
	waiting map[*waitingReq]struct{}
	waiters []chan struct{}
}

// notifyAll wakes every waiting Acquire on this shard so it re-examines
// the table.  Called with sh.mu held.
func (sh *glmShard) notifyAll() {
	for _, ch := range sh.waiters {
		close(ch)
	}
	sh.waiters = nil
}

// wake is notifyAll for a caller not holding sh.mu.
func (sh *glmShard) wake() {
	sh.mu.Lock()
	sh.notifyAll()
	sh.mu.Unlock()
}

// Wake makes every Acquire blocked on page p's shard re-examine the
// table and re-issue its callbacks, though no lock changed.
func (g *GLM) Wake(p page.ID) { g.shard(p).wake() }

// wakeAll wakes every shard, one mutex at a time in ascending order.
func (g *GLM) wakeAll() {
	for i := range g.shards {
		g.shards[i].wake()
	}
}

func (sh *glmShard) pl(p page.ID) *pageLocks {
	l, ok := sh.pages[p]
	if !ok {
		l = &pageLocks{page: make(map[ident.ClientID]Mode), objs: make(map[uint16]map[ident.ClientID]Mode)}
		sh.pages[p] = l
	}
	return l
}

// GLM is the server's global lock manager.  Locks are granted to
// clients (not transactions) and cached by the clients' LLMs until
// called back.
//
// The lock table is sharded by page ID.  Lock ordering within the GLM:
// a shard mutex is the top; graphMu (waits-for graph, victim ring) and
// crashedMu are leaves that may be taken while holding one shard mutex,
// never the other way around, and never while holding two shard
// mutexes.  Multi-shard operations (ClientCrashed, ReleaseAll,
// AllHoldings, WaitsFor, Stop, DumpState) visit shards one at a time in
// ascending shard-index order and hold at most one shard mutex at any
// moment, so they can never deadlock against each other or Acquire.
type GLM struct {
	shards  []glmShard
	ticket  atomic.Uint64
	stopped atomic.Bool

	// crashedMu guards crashed: clients in the crashed-but-unrecovered
	// window (§3.3).  Read from conflict scans under a shard mutex.
	crashedMu sync.RWMutex
	crashed   map[ident.ClientID]bool

	// graphMu guards the conservative client-level waits-for graph, the
	// deadlock-victim ring, and the doomed set.  The graph is global (a
	// client can wait in one shard on locks whose holders wait in
	// another), which is what lets cycle detection see cross-shard
	// deadlocks.
	graphMu sync.Mutex
	waits   map[ident.ClientID]map[ident.ClientID]int
	victims []DeadlockVictim
	// doomed holds clients sentenced by the fleet's distributed
	// deadlock detector (KillWaiter): their blocked Acquire aborts with
	// ErrDeadlock at the next wakeup, carrying the recorded cycle.
	doomed map[ident.ClientID][]ident.ClientID

	// origin is this GLM's partition id in a fleet (SetOrigin); it tags
	// every exported waits-for edge and victim so merged graphs stay
	// unambiguous.  0 for a single server.
	origin int

	cbMu    sync.RWMutex
	cb      Callbacker
	timeout time.Duration

	// Metrics counts grant/wait/abort events; bind into a registry with
	// RegisterObs.
	Metrics GLMMetrics
}

// waitingReq is one blocked Acquire.
type waitingReq struct {
	ticket uint64
	client ident.ClientID
	name   Name
	mode   Mode
	since  time.Time // when the Acquire arrived, for wait-age reporting
}

// overlaps reports whether two lock names can conflict: same name, or
// one is the page lock covering the other's object.
func overlaps(a, b Name) bool {
	if a.Page != b.Page {
		return false
	}
	if a.IsPage || b.IsPage {
		return true
	}
	return a.Slot == b.Slot
}

// NewGLM returns a global lock manager that uses cb for callback
// messaging and aborts waits after timeout (0 means a generous
// default).
func NewGLM(cb Callbacker, timeout time.Duration) *GLM {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	g := &GLM{
		shards:  make([]glmShard, defaultGLMShards),
		crashed: make(map[ident.ClientID]bool),
		waits:   make(map[ident.ClientID]map[ident.ClientID]int),
		doomed:  make(map[ident.ClientID][]ident.ClientID),
		cb:      cb,
		timeout: timeout,
	}
	for i := range g.shards {
		g.shards[i].mu.SetWaitCounter(&g.Metrics.MutexWait)
		g.shards[i].pages = make(map[page.ID]*pageLocks)
		g.shards[i].waiting = make(map[*waitingReq]struct{})
	}
	return g
}

// SetOrigin records this GLM's partition id; exported waits-for edges,
// waiters and victims carry it as provenance.  Call before serving.
func (g *GLM) SetOrigin(p int) { g.origin = p }

// KillWaiter dooms a currently blocked Acquire of client c: its next
// wakeup aborts with ErrDeadlock, recording cycle in the victim history
// tagged as a distributed deadlock.  The fleet's merged-graph detector
// calls it for cycles no single partition can see.  It reports false
// when c has no live wait edges here — the cycle resolved itself between
// the detector's snapshot and the kill — which suppresses most phantom
// kills from the detector's non-atomic union.
func (g *GLM) KillWaiter(c ident.ClientID, cycle []ident.ClientID) bool {
	g.graphMu.Lock()
	if len(g.waits[c]) == 0 {
		g.graphMu.Unlock()
		return false
	}
	g.doomed[c] = append([]ident.ClientID(nil), cycle...)
	g.graphMu.Unlock()
	// Wake the shards so the doomed waiter re-examines its state; its
	// Acquire loop checks the doom before anything else.
	g.wakeAll()
	return true
}

// takeDoom consumes a pending doom for c, returning the recorded cycle
// (nil if none).  The wait edges are cleared along with it.
func (g *GLM) takeDoom(c ident.ClientID) []ident.ClientID {
	g.graphMu.Lock()
	defer g.graphMu.Unlock()
	cycle, ok := g.doomed[c]
	if !ok {
		return nil
	}
	delete(g.doomed, c)
	delete(g.waits, c)
	if cycle == nil {
		cycle = []ident.ClientID{}
	}
	return cycle
}

// shard maps a page to its shard.
func (g *GLM) shard(p page.ID) *glmShard {
	return &g.shards[int(uint64(p)%uint64(len(g.shards)))]
}

// SetCallbacker installs the callback transport; the server engine calls
// it once during construction (breaking the GLM/server init cycle).
func (g *GLM) SetCallbacker(cb Callbacker) {
	g.cbMu.Lock()
	g.cb = cb
	g.cbMu.Unlock()
}

func (g *GLM) callbacker() Callbacker {
	g.cbMu.RLock()
	defer g.cbMu.RUnlock()
	return g.cb
}

// callback describes one callback message to issue.
type callback struct {
	holder  ident.ClientID
	obj     Name // object callback target
	pg      page.ID
	isDeesc bool
	wanted  Mode
}

// conflicts computes, for a request, the set of blocking clients and the
// callbacks needed to dislodge them.  Called with sh.mu held.
func (g *GLM) conflicts(sh *glmShard, req Request, name Name) (blockers map[ident.ClientID]bool, cbs []callback) {
	pl := sh.pl(name.Page)
	blockers = make(map[ident.ClientID]bool)
	add := func(c ident.ClientID, cb callback) {
		blockers[c] = true
		// Callbacks to crashed clients are queued, not sent: the paper's
		// server "queues any callback requests until the client
		// recovers" (§3.3).
		if !g.Crashed(c) {
			cbs = append(cbs, cb)
		}
	}
	// Page-level locks of other clients.
	for c, m := range pl.page {
		if c == req.Client {
			continue
		}
		if !Compatible(m, req.Mode) {
			add(c, callback{holder: c, pg: name.Page, isDeesc: true, wanted: req.Mode})
		}
	}
	if name.IsPage {
		// Object-level locks of other clients conflict with a page lock
		// request unless both sides are shared.
		for slot, owners := range pl.objs {
			for c, m := range owners {
				if c == req.Client {
					continue
				}
				if !Compatible(m, req.Mode) {
					add(c, callback{holder: c, obj: Name{Page: name.Page, Slot: slot}, wanted: req.Mode})
				}
			}
		}
		return blockers, cbs
	}
	// Object-level conflicts on the same object.
	for c, m := range pl.objs[name.Slot] {
		if c == req.Client {
			continue
		}
		if !Compatible(m, req.Mode) {
			add(c, callback{holder: c, obj: name, wanted: req.Mode})
		}
	}
	return blockers, cbs
}

// covered reports whether the client already holds a lock that covers
// the request.  Called with sh.mu held.
func (sh *glmShard) covered(c ident.ClientID, name Name, mode Mode) bool {
	pl := sh.pl(name.Page)
	if Covers(pl.page[c], mode) {
		return true
	}
	if !name.IsPage && Covers(pl.objs[name.Slot][c], mode) {
		return true
	}
	return false
}

// grant records the lock.  Called with sh.mu held.
func (sh *glmShard) grant(c ident.ClientID, name Name, mode Mode) Grant {
	pl := sh.pl(name.Page)
	firstX := mode == X && !sh.holdsAnyX(c, name.Page)
	if name.IsPage {
		pl.page[c] = Max(pl.page[c], mode)
	} else {
		owners := pl.objs[name.Slot]
		if owners == nil {
			owners = make(map[ident.ClientID]Mode)
			pl.objs[name.Slot] = owners
		}
		owners[c] = Max(owners[c], mode)
	}
	return Grant{Name: name, Mode: mode, FirstX: firstX}
}

// holdsAnyX reports whether c holds any exclusive lock (page or object
// level) on page p.  Called with sh.mu held.
func (sh *glmShard) holdsAnyX(c ident.ClientID, p page.ID) bool {
	pl := sh.pl(p)
	if pl.page[c] == X {
		return true
	}
	for _, owners := range pl.objs {
		if owners[c] == X {
			return true
		}
	}
	return false
}

// HoldsAnyX reports whether c holds any exclusive lock on page p; the
// server's DCT maintenance consults it when deciding whether an entry
// may be dropped (§3.2).
func (g *GLM) HoldsAnyX(c ident.ClientID, p page.ID) bool {
	sh := g.shard(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.holdsAnyX(c, p)
}

// Acquire blocks until the request can be granted, issuing callbacks to
// conflicting holders.  It returns ErrDeadlock when the wait would close
// a cycle, ErrTimeout after the configured bound, and ErrStopped if the
// manager shuts down.
func (g *GLM) Acquire(req Request) (Grant, error) {
	start := time.Now()
	deadline := start.Add(g.timeout)
	sh := g.shard(req.Name.Page)
	wr := &waitingReq{ticket: g.ticket.Add(1), client: req.Client, name: req.Name, mode: req.Mode, since: start}
	registered := false
	sh.mu.Lock()
	defer func() {
		if registered {
			// The acquire blocked at least once; record the end-to-end
			// wait regardless of how it resolved.
			g.Metrics.WaitNanos.ObserveDuration(time.Since(start))
			delete(sh.waiting, wr)
			sh.notifyAll()
		}
		sh.mu.Unlock()
	}()
	// Upgrades (the requester still holds a lock on the name) bypass
	// fairness: the older waiter's callback will dislodge them anyway,
	// and blocking an upgrade behind a waiter deadlocks against itself.
	upgrade := req.Upgrade || sh.holdsOn(req.Client, req.Name)
	for {
		if g.stopped.Load() {
			return Grant{}, ErrStopped
		}
		// A registered waiter may have been sentenced by the fleet's
		// distributed deadlock detector while it slept.
		if registered {
			if cycle := g.takeDoom(req.Client); cycle != nil {
				g.Metrics.Deadlocks.Inc()
				g.recordVictimTagged(req, cycle, true)
				return Grant{}, ErrDeadlock
			}
		}
		// Already covered (e.g. re-acquire during recovery).
		if sh.covered(req.Client, req.Name, req.Mode) {
			g.clearWait(req.Client)
			g.Metrics.Grants.Inc()
			return Grant{Name: req.Name, Mode: req.Mode}, nil
		}
		fair := sh.fairnessBlockers(wr, upgrade)
		// Adaptive granularity: try the whole page first.
		if len(fair) == 0 && req.PreferPage && !req.Name.IsPage {
			pgName := PageName(req.Name.Page)
			if b, _ := g.conflicts(sh, Request{Client: req.Client, Name: pgName, Mode: req.Mode}, pgName); len(b) == 0 {
				if !sh.othersHoldOnPage(req.Client, req.Name.Page) {
					gr := sh.grant(req.Client, pgName, req.Mode)
					g.clearWait(req.Client)
					g.Metrics.Grants.Inc()
					g.Metrics.PageGrants.Inc()
					return gr, nil
				}
			}
		}
		blockers, cbs := g.conflicts(sh, req, req.Name)
		if len(blockers) == 0 && len(fair) == 0 {
			gr := sh.grant(req.Client, req.Name, req.Mode)
			g.clearWait(req.Client)
			g.Metrics.Grants.Inc()
			if gr.Name.IsPage {
				g.Metrics.PageGrants.Inc()
			}
			return gr, nil
		}
		for c := range fair {
			blockers[c] = true
		}
		if !registered {
			registered = true
			sh.waiting[wr] = struct{}{}
			g.Metrics.Waits.Inc()
		}
		// Record the wait and check for deadlock before sleeping.  The
		// graph is global (graphMu is a leaf under the shard mutex), so
		// cycles spanning several shards are still closed and detected
		// by whichever waiter adds the final edge.
		if cycle, ok := g.setWaitAndCheck(req.Client, blockers); ok {
			g.Metrics.Deadlocks.Inc()
			g.recordVictim(req, cycle)
			return Grant{}, ErrDeadlock
		}
		ch := make(chan struct{})
		sh.waiters = append(sh.waiters, ch)
		cb := g.callbacker()
		sh.mu.Unlock()
		// Re-issue the callbacks on every retry: a holder may have
		// re-acquired the lock since the last callback completed (the
		// waiter holds nothing while it waits), and a once-only issue
		// would then starve this request.  The transport layer dedupes
		// identical callbacks that are still in flight.
		for _, c := range cbs {
			if cb != nil {
				if c.isDeesc {
					cb.DeescalatePage(c.holder, req.Client, c.pg, c.wanted)
				} else {
					cb.CallbackObject(c.holder, req.Client, c.obj, c.wanted)
				}
			}
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			sh.mu.Lock()
			g.clearWait(req.Client)
			g.Metrics.Timeouts.Inc()
			return Grant{}, ErrTimeout
		}
		sh.mu.Lock()
	}
}

// holdsOn reports whether the client holds a lock on the name (or the
// page covering it).  Called with sh.mu held.
func (sh *glmShard) holdsOn(c ident.ClientID, name Name) bool {
	pl := sh.pl(name.Page)
	if pl.page[c] != None {
		return true
	}
	if !name.IsPage && pl.objs[name.Slot][c] != None {
		return true
	}
	return false
}

// fairnessBlockers returns the clients whose older waiting requests
// conflict with this one; granting past them would starve them.
// Conflicting requests always target the same page, hence the same
// shard, so the shard-local waiting set is complete.  Called with
// sh.mu held.
func (sh *glmShard) fairnessBlockers(wr *waitingReq, upgrade bool) map[ident.ClientID]bool {
	out := make(map[ident.ClientID]bool)
	if upgrade {
		return out
	}
	for other := range sh.waiting {
		if other.ticket >= wr.ticket || other.client == wr.client {
			continue
		}
		if overlaps(other.name, wr.name) && !Compatible(other.mode, wr.mode) {
			out[other.client] = true
		}
	}
	return out
}

// othersHoldOnPage reports whether any other client holds any lock on
// the page.  Called with sh.mu held.
func (sh *glmShard) othersHoldOnPage(c ident.ClientID, p page.ID) bool {
	pl := sh.pl(p)
	for o := range pl.page {
		if o != c {
			return true
		}
	}
	for _, owners := range pl.objs {
		for o := range owners {
			if o != c {
				return true
			}
		}
	}
	return false
}

// setWaitAndCheck atomically replaces the waiter's blocker set (the
// wait edges are re-derived on every retry so stale edges never linger)
// and runs cycle detection; on a cycle the edges are removed again and
// the closing path returned.
func (g *GLM) setWaitAndCheck(c ident.ClientID, blockers map[ident.ClientID]bool) ([]ident.ClientID, bool) {
	g.graphMu.Lock()
	defer g.graphMu.Unlock()
	w := make(map[ident.ClientID]int, len(blockers))
	for b := range blockers {
		w[b] = 1
	}
	g.waits[c] = w
	if cycle, ok := g.cyclePathLocked(c); ok {
		delete(g.waits, c)
		return cycle, true
	}
	return nil, false
}

func (g *GLM) clearWait(c ident.ClientID) {
	g.graphMu.Lock()
	delete(g.waits, c)
	// A pending doom that lost the race to a grant must not linger and
	// kill an unrelated future wait.
	delete(g.doomed, c)
	g.graphMu.Unlock()
}

// cyclePathLocked reports whether the waits-for graph contains a cycle
// reachable from c, returning the path c → … → c's blocker-of-blocker
// that closes it.  The graph is client-level and therefore
// conservative: two independent transactions on the same client are
// merged into one node, so a detected "deadlock" is occasionally a
// false positive; the victim simply retries.  Called with graphMu held.
func (g *GLM) cyclePathLocked(c ident.ClientID) ([]ident.ClientID, bool) {
	seen := make(map[ident.ClientID]bool)
	var path []ident.ClientID
	var dfs func(n ident.ClientID) bool
	dfs = func(n ident.ClientID) bool {
		path = append(path, n)
		for b := range g.waits[n] {
			if b == c {
				return true
			}
			if !seen[b] {
				seen[b] = true
				if dfs(b) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if dfs(c) {
		return append([]ident.ClientID(nil), path...), true
	}
	return nil, false
}

// forEachPageLocked visits every page's lock table, ascending shard
// order, with the owning shard mutex held during each visit (invariant
// checks in tests use it).
func (g *GLM) forEachPageLocked(f func(page.ID, *pageLocks)) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for pid, pl := range sh.pages {
			f(pid, pl)
		}
		sh.mu.Unlock()
	}
}

// Release removes a client's lock on name.
func (g *GLM) Release(c ident.ClientID, name Name) {
	sh := g.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pl := sh.pl(name.Page)
	if name.IsPage {
		delete(pl.page, c)
	} else if owners := pl.objs[name.Slot]; owners != nil {
		delete(owners, c)
		if len(owners) == 0 {
			delete(pl.objs, name.Slot)
		}
	}
	if pl.empty() {
		delete(sh.pages, name.Page)
	}
	sh.notifyAll()
}

// Downgrade demotes a client's exclusive lock on name to shared
// (callback in shared mode, §2).
func (g *GLM) Downgrade(c ident.ClientID, name Name) {
	sh := g.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pl := sh.pl(name.Page)
	if name.IsPage {
		if pl.page[c] == X {
			pl.page[c] = S
		}
	} else if owners := pl.objs[name.Slot]; owners != nil && owners[c] == X {
		owners[c] = S
	}
	sh.notifyAll()
}

// ObjLock pairs an object slot with a mode; used by de-escalation.
type ObjLock struct {
	Slot uint16
	Mode Mode
}

// Deescalate replaces a client's page lock with the given object locks
// (§3.2 page-level conflict handling).
func (g *GLM) Deescalate(c ident.ClientID, p page.ID, objs []ObjLock) {
	sh := g.shard(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g.Metrics.Deescalations.Inc()
	pl := sh.pl(p)
	delete(pl.page, c)
	for _, ol := range objs {
		owners := pl.objs[ol.Slot]
		if owners == nil {
			owners = make(map[ident.ClientID]Mode)
			pl.objs[ol.Slot] = owners
		}
		owners[c] = Max(owners[c], ol.Mode)
	}
	if pl.empty() {
		delete(sh.pages, p)
	}
	sh.notifyAll()
}

// ClientCrashed implements §3.3: the server releases all shared locks of
// the crashed client, retains its exclusive locks, and queues callbacks
// against them until recovery finishes.  The crashed flag is published
// before the shard sweep so conflict scans suppress callbacks to the
// client from the first moment; shards are visited in ascending order,
// one mutex at a time.
func (g *GLM) ClientCrashed(c ident.ClientID) {
	g.crashedMu.Lock()
	g.crashed[c] = true
	g.crashedMu.Unlock()
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for p, pl := range sh.pages {
			if pl.page[c] == S {
				delete(pl.page, c)
			}
			for slot, owners := range pl.objs {
				if owners[c] == S {
					delete(owners, c)
					if len(owners) == 0 {
						delete(pl.objs, slot)
					}
				}
			}
			if pl.empty() {
				delete(sh.pages, p)
			}
		}
		sh.notifyAll()
		sh.mu.Unlock()
	}
}

// ClientRecovered marks the client operational again; queued callbacks
// may now be delivered (waiting Acquires retry and re-issue them).
func (g *GLM) ClientRecovered(c ident.ClientID) {
	g.crashedMu.Lock()
	delete(g.crashed, c)
	g.crashedMu.Unlock()
	g.wakeAll()
}

// Crashed reports whether the client is in the crashed-but-unrecovered
// window.
func (g *GLM) Crashed(c ident.ClientID) bool {
	g.crashedMu.RLock()
	defer g.crashedMu.RUnlock()
	return g.crashed[c]
}

// Holding is one (name, mode) pair held by a client.
type Holding struct {
	Name Name
	Mode Mode
}

// HeldBy returns every lock the client holds; restart recovery sends
// the crashed client its retained exclusive locks (§3.3).
func (g *GLM) HeldBy(c ident.ClientID) []Holding {
	var out []Holding
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for p, pl := range sh.pages {
			if m, ok := pl.page[c]; ok {
				out = append(out, Holding{Name: PageName(p), Mode: m})
			}
			for slot, owners := range pl.objs {
				if m, ok := owners[c]; ok {
					out = append(out, Holding{Name: Name{Page: p, Slot: slot}, Mode: m})
				}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// AllHoldings returns every client's holdings (crashed clients'
// retained locks included); the chaos harness uses it to check the
// lock-table/DCT consistency invariant after recovery.  Shards are
// snapshotted in ascending order; concurrent mutations in
// already-visited shards are not reflected.
func (g *GLM) AllHoldings() map[ident.ClientID][]Holding {
	out := make(map[ident.ClientID][]Holding)
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for p, pl := range sh.pages {
			for c, m := range pl.page {
				out[c] = append(out[c], Holding{Name: PageName(p), Mode: m})
			}
			for slot, owners := range pl.objs {
				for c, m := range owners {
					out[c] = append(out[c], Holding{Name: Name{Page: p, Slot: slot}, Mode: m})
				}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Install records a holding without conflict checking; server restart
// recovery rebuilds the GLM from the LLM tables the clients report
// (§3.4) and crashed-client recovery re-installs retained X locks.
func (g *GLM) Install(c ident.ClientID, name Name, mode Mode) {
	sh := g.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.grant(c, name, mode)
}

// ReleaseAll removes every lock held by the client (used when a client
// disconnects cleanly).
func (g *GLM) ReleaseAll(c ident.ClientID) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for p, pl := range sh.pages {
			delete(pl.page, c)
			for slot, owners := range pl.objs {
				delete(owners, c)
				if len(owners) == 0 {
					delete(pl.objs, slot)
				}
			}
			if pl.empty() {
				delete(sh.pages, p)
			}
		}
		sh.notifyAll()
		sh.mu.Unlock()
	}
}

// Stop aborts all waiting requests (server shutdown/crash).
func (g *GLM) Stop() {
	g.stopped.Store(true)
	g.wakeAll()
}

// DumpState renders the lock table for debugging.
func (g *GLM) DumpState() string {
	out := ""
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		for pid, pl := range sh.pages {
			out += fmt.Sprintf("page %d:\n", pid)
			for c, m := range pl.page {
				out += fmt.Sprintf("  page-lock %v %v\n", c, m)
			}
			for slot, owners := range pl.objs {
				for c, m := range owners {
					out += fmt.Sprintf("  obj %d.%d %v %v\n", pid, slot, c, m)
				}
			}
		}
		for wr := range sh.waiting {
			out += fmt.Sprintf("waitingReq: ticket=%d client=%v name=%v mode=%v\n", wr.ticket, wr.client, wr.name, wr.mode)
		}
		sh.mu.Unlock()
	}
	g.graphMu.Lock()
	for w, bs := range g.waits {
		out += fmt.Sprintf("wait: %v -> %v\n", w, bs)
	}
	g.graphMu.Unlock()
	g.crashedMu.RLock()
	for c := range g.crashed {
		out += fmt.Sprintf("crashed: %v\n", c)
	}
	g.crashedMu.RUnlock()
	return out
}
