package lock

import (
	"slices"
	"sync"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/page"
	"clientlog/internal/wake"
)

// LocalResult is the outcome of an LLM acquisition attempt.
type LocalResult int

const (
	// Granted means the lock was granted from the client's cache.
	Granted LocalResult = iota
	// NeedGlobal means the cache does not cover the request; the client
	// must ask the server's GLM and then InstallCached the grant.
	NeedGlobal
)

// llmShards is the LLM's shard count.  A client touches far fewer pages
// than the server, so fewer shards suffice.
const llmShards = 8

// llmShard is one independently mutexed slice of a client's lock
// tables: one entry per page hashing to it, plus the operations waiting
// on those pages (llmShard.wait).  Idle entries wait in free, and a
// name's users slice in spare once its last user ends, so recording
// uses and evict/refetch cycles allocate nothing.
type llmShard struct {
	mu      sync.Mutex
	pages   map[page.ID]*llmPage
	free    []*llmPage
	spare   [][]txnMode
	waiters wake.List
}

// llmPage is one page's lock state: the page name's and, in a small
// value slice, that of every object on it the client has touched, plus
// carried, the number of the page's latest carrier that has not been
// answered yet (0: none).  A carrier holds the page's updates or lock
// releases on their way to the server, which a callback answer or a new
// request for the page must not overtake.
type llmPage struct {
	page    llmState
	objs    []llmObj
	carried uint64
}

// llmObj is one object's lock state on its page.
type llmObj struct {
	slot uint16
	llmState
}

// llmState is one lock name's state at the client.
type llmState struct {
	// users records active transactions' use of the name (objects are
	// used under their own names even when a cached page lock covers
	// them; structural page operations under the page name).
	users []txnMode
	// cached is the client-level lock the GLM granted; held says a grant
	// is present, which counts even when its mode is None.
	cached Mode
	held   bool
	// accessed (objects only) is the strongest mode any local
	// transaction used the object with under covering locks, committed
	// ones included: the paper's "list of the objects accessed by local
	// transactions", whose locks de-escalation retains.
	accessed Mode
	// fence marks a pending callback wanting the given mode: new
	// conflicting local acquisitions wait for it.  fenced says a fence is
	// set, which counts even when its mode is None.
	fence  Mode
	fenced bool
	// asking counts this client's lock requests for the name in flight
	// to the GLM, per mode asked (S, X): the GLM records a grant before
	// its reply arrives.
	asking [X + 1]int32
}

// busy reports whether an active transaction uses the name, a pending
// callback fences it or a request for it is in flight.
func (s *llmState) busy() bool {
	return len(s.users) > 0 || s.fenced || s.asking[S] > 0 || s.asking[X] > 0
}

// granting reports whether a request for the name in flight asks for
// more than the cache holds: its grant may be recorded at the GLM and
// not yet here.
func (s *llmState) granting() bool {
	return s.asking[S] > 0 && s.cached == None || s.asking[X] > 0 && s.cached != X
}

// held reports whether a grant of the name is cached.
func held(s *llmState) bool { return s.held }

// live reports whether the name carries any state at all.
func (s *llmState) live() bool { return s.busy() || s.held || s.accessed != None }

// some reports whether f holds for the state of a name on the page.
func (e *llmPage) some(f func(*llmState) bool) bool {
	if f(&e.page) {
		return true
	}
	for i := range e.objs {
		if f(&e.objs[i].llmState) {
			return true
		}
	}
	return false
}

// fenceBlocks reports whether a pending callback on the name forbids a
// new local acquisition with the given mode.  A fence in X takes the
// lock away entirely; a fence in S leaves shared access.
func (s *llmState) fenceBlocks(mode Mode) bool {
	return s.fenced && (s.fence == X || mode == X)
}

// state returns name's state, nil when the entry has none.
func (e *llmPage) state(n Name) *llmState {
	if n.IsPage {
		return &e.page
	}
	for i := range e.objs {
		if e.objs[i].slot == n.Slot {
			return &e.objs[i].llmState
		}
	}
	return nil
}

// add returns name's state, adding an object the entry has none for.
func (e *llmPage) add(n Name) *llmState {
	if s := e.state(n); s != nil {
		return s
	}
	e.objs = append(e.objs, llmObj{slot: n.Slot})
	return &e.objs[len(e.objs)-1].llmState
}

// noState is the state of a name without an entry.  Only read.
var noState llmState

// refs returns name's state and its page's, noState for either the
// entry lacks; the caller only reads them, under the shard mutex.
func (e *llmPage) refs(n Name) (s, pg *llmState) {
	if e == nil {
		return &noState, &noState
	}
	if s = e.state(n); s == nil {
		s = &noState
	}
	return s, &e.page
}

// get returns pg's entry, taking one from the free list when the shard
// has none.  Called with sh.mu held.
func (sh *llmShard) get(pg page.ID) *llmPage {
	e := sh.pages[pg]
	if e == nil {
		if n := len(sh.free); n > 0 {
			e, sh.free = sh.free[n-1], sh.free[:n-1]
		} else {
			e = new(llmPage)
		}
		sh.pages[pg] = e
	}
	return e
}

// tidy moves pg's entry to the free list once no name on it is live and
// no carrier is unanswered.  A state that is not live is zero, so
// nothing needs resetting.  Called with sh.mu held.
func (sh *llmShard) tidy(pg page.ID, e *llmPage) {
	if e.carried == 0 && !e.some((*llmState).live) {
		delete(sh.pages, pg)
		e.objs = e.objs[:0]
		sh.free = append(sh.free, e)
	}
}

// dropUser removes t from the users of s, keeping an emptied users
// slice for the next name.  Called with sh.mu held.
func (sh *llmShard) dropUser(s *llmState, t ident.TxnID) {
	s.users = slices.DeleteFunc(s.users, func(u txnMode) bool { return u.t == t })
	if len(s.users) == 0 && s.users != nil {
		sh.spare, s.users = append(sh.spare, s.users), nil
	}
}

// txnMode is one transaction's use of a name.
type txnMode struct {
	t ident.TxnID
	m Mode
}

// modeOf returns t's mode among a name's users (None if t is not one).
func modeOf(users []txnMode, t ident.TxnID) Mode {
	for _, u := range users {
		if u.t == t {
			return u.m
		}
	}
	return None
}

// addConflicts adds every user other than t whose mode is incompatible
// with mode to blockers, which it makes only when there is one.
func addConflicts(users []txnMode, t ident.TxnID, mode Mode, blockers map[ident.TxnID]bool) map[ident.TxnID]bool {
	for _, u := range users {
		if u.t != t && !Compatible(u.m, mode) {
			if blockers == nil {
				blockers = make(map[ident.TxnID]bool)
			}
			blockers[u.t] = true
		}
	}
	return blockers
}

// Uses is one transaction's list of the names it uses at the LLM, each
// once: Acquire appends a name as the transaction's use of it begins,
// and Release visits only those.  The transaction owns the list and is
// single-threaded, so the list needs no lock; a client hands each
// transaction an emptied list of an ended one in Names, so recording
// uses allocates nothing.
type Uses struct {
	Txn   ident.TxnID
	Names []Name
}

// LLM is a client's local lock manager.  It caches the locks the GLM
// granted to this client across transaction boundaries
// (inter-transaction lock caching) and grants them to local transactions
// under strict two-phase locking.  It also keeps, per page, the list of
// objects accessed by local transactions, which drives de-escalation
// (§3.2).
//
// The tables are sharded by page ID, mirroring the GLM: every conflict
// and coverage rule relates a name only to names on the same page, so
// the hot path touches exactly one shard mutex.  The transaction-level
// waits-for graph spans pages and lives under the graphMu leaf (taken
// while holding one shard mutex, never the reverse).  The names a
// transaction uses live in its Uses, not in the LLM.
type LLM struct {
	shards []llmShard

	// graphMu guards waitsLocal, the transaction-level waits-for graph
	// for local deadlock detection.
	graphMu    sync.Mutex
	waitsLocal map[ident.TxnID]map[ident.TxnID]bool

	timeout time.Duration
}

// NewLLM returns an empty local lock manager whose blocking operations
// give up after timeout (0 means a generous default).
func NewLLM(timeout time.Duration) *LLM {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	l := &LLM{
		shards:     make([]llmShard, llmShards),
		waitsLocal: make(map[ident.TxnID]map[ident.TxnID]bool),
		timeout:    timeout,
	}
	for i := range l.shards {
		l.shards[i].pages = make(map[page.ID]*llmPage)
	}
	return l
}

// shard maps a page to its shard.
func (l *LLM) shard(p page.ID) *llmShard { return &l.shards[l.shardIndex(p)] }

// shardIndex is the index of page p's shard.
func (l *LLM) shardIndex(p page.ID) int { return int(uint64(p) % llmShards) }

// wait sleeps until the shard's tables change or the deadline passes;
// a zero *deadline is set to timeout from now, so the clock is read
// only by operations that actually wait.  Called with sh.mu held;
// returns with sh.mu held.
func (sh *llmShard) wait(deadline *time.Time, timeout time.Duration) error {
	if deadline.IsZero() {
		*deadline = time.Now().Add(timeout)
	}
	w := sh.waiters.Add()
	sh.mu.Unlock()
	woken := w.Wait(*deadline)
	sh.mu.Lock()
	if !woken {
		return ErrTimeout
	}
	return nil
}

// await is the LLM's wait for a condition: it returns once ready holds
// (it runs under sh.mu), or, with wait unset, reports busy at once
// instead of waiting.  Called with sh.mu held; returns with sh.mu held.
func (l *LLM) await(sh *llmShard, wait bool, ready func() bool) (busy bool, err error) {
	var deadline time.Time
	for !ready() {
		if !wait {
			return true, nil
		}
		if err := sh.wait(&deadline, l.timeout); err != nil {
			return false, err
		}
	}
	return false, nil
}

// Acquire grants name@mode to transaction u.Txn from the cache, blocks
// while other local transactions or pending callbacks conflict, or
// reports NeedGlobal when the server must be consulted.  A use it
// records is appended to u.Names.
func (l *LLM) Acquire(u *Uses, name Name, mode Mode) (LocalResult, error) {
	return l.acquire(u.Txn, u, name, mode)
}

// AcquireLocal is Acquire for a transaction that keeps no Uses: its
// uses are dropped by ReleaseTxn.
func (l *LLM) AcquireLocal(t ident.TxnID, name Name, mode Mode) (LocalResult, error) {
	return l.acquire(t, nil, name, mode)
}

// acquire is Acquire, recording in u unless it is nil.  It reads the
// tables through pointers under the one shard mutex, and it leaves no
// waits-for edge of t's behind when it returns.
func (l *LLM) acquire(t ident.TxnID, u *Uses, name Name, mode Mode) (LocalResult, error) {
	var deadline time.Time
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		e := sh.pages[name.Page]
		s, pg := e.refs(name)
		// Reentrant: the transaction already holds a sufficient use.
		own := modeOf(s.users, t)
		if Covers(own, mode) {
			return Granted, nil
		}
		// Pending callbacks fence new conflicting acquisitions so the
		// callback cannot be starved.  A transaction that already uses
		// the name (or the covering page) bypasses the fence: the
		// callback must wait for that transaction's end regardless, so
		// letting it upgrade cannot extend the wait — while blocking it
		// would deadlock the callback against its own holder.
		ownUse := own != None || !name.IsPage && modeOf(pg.users, t) != None
		if !ownUse && (s.fenceBlocks(mode) || !name.IsPage && pg.fenceBlocks(mode)) {
			if err := sh.wait(&deadline, l.timeout); err != nil {
				return 0, err
			}
			continue
		}
		// Conflicts with other local transactions (strict 2PL).  An
		// object request conflicts with other transactions' page-level
		// uses (structural operations in progress), a page request with
		// their object uses on the page.
		blockers := addConflicts(s.users, t, mode, nil)
		if !name.IsPage {
			blockers = addConflicts(pg.users, t, mode, blockers)
		} else if e != nil {
			for i := range e.objs {
				blockers = addConflicts(e.objs[i].users, t, mode, blockers)
			}
		}
		if len(blockers) > 0 {
			if l.setWaitLocalAndCheck(t, blockers) {
				return 0, ErrDeadlock
			}
			err := sh.wait(&deadline, l.timeout)
			l.clearWaitLocal(t)
			if err != nil {
				return 0, err
			}
			continue
		}
		// Cache coverage.
		if Covers(s.cached, mode) || !name.IsPage && Covers(pg.cached, mode) {
			sh.recordUse(e, t, u, name, mode)
			return Granted, nil
		}
		return NeedGlobal, nil
	}
}

// setWaitLocalAndCheck records t's blockers in the cross-shard
// waits-for graph and runs cycle detection; on a cycle the edges are
// removed again and true returned.  graphMu is a leaf under the shard
// mutex, so cycles spanning pages in different shards are still caught.
func (l *LLM) setWaitLocalAndCheck(t ident.TxnID, blockers map[ident.TxnID]bool) bool {
	l.graphMu.Lock()
	defer l.graphMu.Unlock()
	l.waitsLocal[t] = blockers
	if l.localCycleLocked(t) {
		delete(l.waitsLocal, t)
		return true
	}
	return false
}

func (l *LLM) clearWaitLocal(t ident.TxnID) {
	l.graphMu.Lock()
	delete(l.waitsLocal, t)
	l.graphMu.Unlock()
}

// recordUse registers a transaction's use of a name its cache covers
// (an upgrade finds the use already there), appending a new use's name
// to u unless it is nil.  The covering grant means the page has an
// entry.  Called with sh.mu held.
func (sh *llmShard) recordUse(e *llmPage, t ident.TxnID, u *Uses, name Name, mode Mode) {
	s := e.add(name)
	if !name.IsPage {
		s.accessed = Max(s.accessed, mode)
	}
	for i := range s.users {
		if s.users[i].t == t {
			s.users[i].m = Max(s.users[i].m, mode)
			return
		}
	}
	if n := len(sh.spare); s.users == nil && n > 0 {
		s.users, sh.spare = sh.spare[n-1], sh.spare[:n-1]
	}
	s.users = append(s.users, txnMode{t, mode})
	if u != nil {
		u.Names = append(u.Names, name)
	}
}

// localCycleLocked walks the transaction waits-for graph from t.
// Called with graphMu held.
func (l *LLM) localCycleLocked(t ident.TxnID) bool {
	seen := make(map[ident.TxnID]bool)
	var dfs func(n ident.TxnID) bool
	dfs = func(n ident.TxnID) bool {
		for b := range l.waitsLocal[n] {
			if b == t {
				return true
			}
			if !seen[b] {
				seen[b] = true
				if dfs(b) {
					return true
				}
			}
		}
		return false
	}
	return dfs(t)
}

// view returns copies of name's state and its page's, for the scalar
// fields: the users slices change once the shard mutex is released.
func (l *LLM) view(name Name) (s, pg llmState) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sp, pgp := sh.pages[name.Page].refs(name)
	return *sp, *pgp
}

// CachesAny reports whether the client caches any lock on the name (or
// the page covering it); such a request is an upgrade.
func (l *LLM) CachesAny(name Name) bool {
	s, pg := l.view(name)
	return s.cached != None || !name.IsPage && pg.cached != None
}

// CacheCovers reports whether the cached locks cover name@mode.
func (l *LLM) CacheCovers(name Name, mode Mode) bool {
	s, pg := l.view(name)
	return Covers(s.cached, mode) || !name.IsPage && Covers(pg.cached, mode)
}

// InstallCached records a lock granted by the GLM.
func (l *LLM) InstallCached(name Name, mode Mode) {
	l.change(name.Page, true, func(e *llmPage) {
		s := e.add(name)
		s.cached, s.held = Max(s.cached, mode), true
	})
}

// change runs f on pg's entry under the shard mutex — making the entry
// if add is set, else skipping f when there is none — then tidies the
// entry and wakes the shard's waiters.
func (l *LLM) change(pg page.ID, add bool, f func(*llmPage)) {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.pages[pg]
	if add {
		e = sh.get(pg)
	}
	if e != nil {
		f(e)
		sh.tidy(pg, e)
	}
	sh.waiters.Broadcast()
}

// CachedMode returns the cached mode for name (None if absent).
func (l *LLM) CachedMode(name Name) Mode {
	s, _ := l.view(name)
	return s.cached
}

// Release drops every use of the ended transaction u.Txn — cached
// locks are retained per inter-transaction caching — visiting only the
// names in u, each shard under one mutex section with one wakeup, and
// empties u.Names for reuse.  A name of u's the LLM no longer holds
// (Clear wiped the tables since) is skipped: only u.Txn's own uses are
// dropped, never those of a later transaction.
func (l *LLM) Release(u *Uses) {
	var done uint64 // the shards visited, one bit each
	for i, n := range u.Names {
		k := l.shardIndex(n.Page)
		if done&(1<<k) != 0 {
			continue
		}
		done |= 1 << k
		sh := &l.shards[k]
		sh.mu.Lock()
		for _, m := range u.Names[i:] {
			if l.shardIndex(m.Page) != k {
				continue
			}
			if e := sh.pages[m.Page]; e != nil {
				if s := e.state(m); s != nil {
					sh.dropUser(s, u.Txn)
				}
				sh.tidy(m.Page, e)
			}
		}
		sh.waiters.Broadcast()
		sh.mu.Unlock()
	}
	u.Names = u.Names[:0]
}

// ReleaseTxn is Release for a transaction that kept no Uses
// (AcquireLocal): it visits every shard.
func (l *LLM) ReleaseTxn(t ident.TxnID) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for pg, e := range sh.pages {
			sh.dropUser(&e.page, t)
			for j := range e.objs {
				sh.dropUser(&e.objs[j].llmState, t)
			}
			sh.tidy(pg, e)
		}
		sh.waiters.Broadcast()
		sh.mu.Unlock()
	}
}

// each calls f with every name that has an entry and its state, one
// shard mutex at a time.
func (l *LLM) each(f func(Name, *llmState)) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for pg, e := range sh.pages {
			f(PageName(pg), &e.page)
			for j := range e.objs {
				f(Name{Page: pg, Slot: e.objs[j].slot}, &e.objs[j].llmState)
			}
		}
		sh.mu.Unlock()
	}
}

// TxnUses returns the names t currently uses with their modes.
func (l *LLM) TxnUses(t ident.TxnID) []Holding {
	var out []Holding
	l.each(func(n Name, s *llmState) {
		if m := modeOf(s.users, t); m != None {
			out = append(out, Holding{Name: n, Mode: m})
		}
	})
	return out
}

// UseMode returns the mode transaction t holds on name (None if none).
func (l *LLM) UseMode(t ident.TxnID, name Name) Mode {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, _ := sh.pages[name.Page].refs(name)
	return modeOf(s.users, t)
}

// CachedLocks snapshots the client-level cached locks; server restart
// recovery collects them to rebuild the GLM tables (§3.4).
func (l *LLM) CachedLocks() []Holding {
	var out []Holding
	l.each(func(n Name, s *llmState) {
		if s.held {
			out = append(out, Holding{Name: n, Mode: s.cached})
		}
	})
	return out
}

// SetFence marks a pending callback on name so that new conflicting
// local acquisitions wait for its completion.
func (l *LLM) SetFence(name Name, wanted Mode) {
	l.change(name.Page, true, func(e *llmPage) {
		s := e.add(name)
		s.fence, s.fenced = Max(s.fence, wanted), true
	})
}

// ClearFence removes the fence and wakes blocked acquisitions.
func (l *LLM) ClearFence(name Name) {
	l.change(name.Page, false, func(e *llmPage) {
		if s := e.state(name); s != nil {
			s.fence, s.fenced = None, false
		}
	})
}

// WaitObjectFree blocks until no active transaction holds a use on obj
// (or, for wanted==S, no exclusive use) and no structural page use
// covers it; the callback handler then mutates the cache.  For a page
// name in X that is until the page has no structural use at all.
func (l *LLM) WaitObjectFree(obj Name, wanted Mode) error {
	sh := l.shard(obj.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, err := l.await(sh, true, func() bool { return sh.objectFree(obj, wanted) })
	return err
}

// ObjectFree is WaitObjectFree's predicate without the wait.
func (l *LLM) ObjectFree(obj Name, wanted Mode) bool {
	sh := l.shard(obj.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.objectFree(obj, wanted)
}

// objectFree is WaitObjectFree's predicate.  Called with sh.mu held.
func (sh *llmShard) objectFree(obj Name, wanted Mode) bool {
	s, pg := sh.pages[obj.Page].refs(obj)
	busy := addConflicts(s.users, ident.NilTxn, wanted, nil)
	return addConflicts(pg.users, ident.NilTxn, wanted, busy) == nil
}

// objLocks returns, for the objects on pg whose state passes keep, the
// mode mode picks from it.
func (l *LLM) objLocks(pg page.ID, mode func(*llmState) Mode) []ObjLock {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []ObjLock
	if e := sh.pages[pg]; e != nil {
		for i := range e.objs {
			if m := mode(&e.objs[i].llmState); m != None {
				out = append(out, ObjLock{Slot: e.objs[i].slot, Mode: m})
			}
		}
	}
	return out
}

// AccessedObjects returns the objects on pg that local transactions
// accessed (active or committed, per inter-transaction caching) with
// their strongest modes: the object locks to obtain when de-escalating
// the page lock (§3.2).
func (l *LLM) AccessedObjects(pg page.ID) []ObjLock {
	return l.objLocks(pg, func(s *llmState) Mode { return s.accessed })
}

// RetainedObjLocks returns the object locks a de-escalation of pg
// keeps: one for every object local transactions accessed or whose lock
// is cached (from an earlier de-escalation), in the stronger mode.
func (l *LLM) RetainedObjLocks(pg page.ID) []ObjLock {
	return l.objLocks(pg, func(s *llmState) Mode { return Max(s.accessed, s.cached) })
}

// CachedObjLocks returns the object locks the cache holds on the page
// (used by de-escalation replies so the GLM never drops a page lock
// without installing the object locks that replace it, even when the
// callback is stale or repeated).
func (l *LLM) CachedObjLocks(pg page.ID) []ObjLock {
	return l.objLocks(pg, func(s *llmState) Mode { return s.cached })
}

// DropCached removes a cached lock (callback in exclusive mode).
func (l *LLM) DropCached(name Name) {
	l.change(name.Page, false, func(e *llmPage) {
		if name.IsPage {
			e.page.cached, e.page.held = None, false
			// Access history under the page lock dies with it unless
			// object locks were installed by de-escalation first.
			for i := range e.objs {
				if o := &e.objs[i]; !o.held {
					o.accessed = None
				}
			}
		} else if s := e.state(name); s != nil {
			s.cached, s.held, s.accessed = None, false, None
		}
	})
}

// DowngradeCached demotes a cached exclusive lock to shared (callback in
// shared mode).
func (l *LLM) DowngradeCached(name Name) {
	l.change(name.Page, false, func(e *llmPage) {
		if s := e.state(name); s != nil {
			s.cached, s.accessed = min(s.cached, S), min(s.accessed, S)
		}
	})
}

// Deescalate replaces the cached page lock with the given object locks.
func (l *LLM) Deescalate(pg page.ID, objs []ObjLock) {
	l.change(pg, true, func(e *llmPage) {
		e.page.cached, e.page.held = None, false
		for _, ol := range objs {
			s := e.add(Name{Page: pg, Slot: ol.Slot})
			s.cached, s.held = Max(s.cached, ol.Mode), true
		}
	})
}

// DropIdlePage drops every cached lock on page pg, the page lock and
// the object locks, as the client's buffer evicts the page — unless an
// active transaction uses a name of the page, a pending callback fences
// one or a request for one is in flight (a release reaching the server
// after the grant would take it back), in which case it drops nothing.
// It returns the names the GLM is to release, in a fixed order: those
// dropped, plus the objects local transactions accessed under the page
// lock, which a de-escalation would have kept and an object callback
// then taken (nil when nothing was dropped).
func (l *LLM) DropIdlePage(pg page.ID) []Name {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.pages[pg]
	if e == nil || !e.some(held) || e.some((*llmState).busy) {
		return nil
	}
	out := make([]Name, 0, 4)
	if e.page.held {
		out = append(out, PageName(pg))
		e.page.cached, e.page.held = None, false
	}
	first := len(out)
	for i := range e.objs {
		if o := &e.objs[i]; o.held || o.accessed != None {
			out = append(out, Name{Page: pg, Slot: o.slot})
			o.cached, o.held, o.accessed = None, false, None
		}
	}
	sh.tidy(pg, e)
	slices.SortFunc(out[first:], func(a, b Name) int { return int(a.Slot) - int(b.Slot) })
	return out
}

// HoldsAnyOnPage reports whether the cache holds the page lock or any
// object lock on pg; the client drops a page from its buffer only when
// this is false (§3.2 object-level conflict handling).
func (l *LLM) HoldsAnyOnPage(pg page.ID) bool {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.pages[pg]
	return e != nil && e.some(held)
}

// Clear wipes all state (client crash loses lock tables).
func (l *LLM) Clear() {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.pages = make(map[page.ID]*llmPage)
		sh.waiters.Broadcast()
		sh.mu.Unlock()
	}
	l.graphMu.Lock()
	l.waitsLocal = make(map[ident.TxnID]map[ident.TxnID]bool)
	l.graphMu.Unlock()
}

// Request counts a request of this client's to the GLM for each of
// names in mode as in flight (d = 1) or ended (d = -1).  While counted,
// it holds up DropIdlePage for the name's page and, asking for more
// than the cache holds, AwaitGrant for the name.  A decrement that
// finds no count does nothing: Clear may have wiped it meanwhile.
func (l *LLM) Request(d int, mode Mode, names ...Name) {
	for _, n := range names {
		l.change(n.Page, d > 0, func(e *llmPage) {
			s := e.add(n)
			s.asking[mode] = max(s.asking[mode]+int32(d), 0)
		})
	}
}

// Carry marks page pg's updates or lock releases as carried by the
// carrier numbered seq (set), returning the page's mark before it, or
// that carrier as answered (unset).  Until then every message about the
// page names the carrier (Carried), and the server waits for it to land
// before acting on the message.  A later carrier supersedes an earlier
// one, which it names and lands after, and an answer clears only its own
// mark: the later carrier's answer means the earlier one has landed.
func (l *LLM) Carry(pg page.ID, seq uint64, set bool) (prev uint64) {
	l.change(pg, set, func(e *llmPage) {
		prev = e.carried
		switch {
		case set:
			e.carried = max(e.carried, seq)
		case e.carried == seq:
			e.carried = 0
		}
	})
	return prev
}

// Carried returns the number of page pg's latest unanswered carrier (0:
// none), which a message about the page names.
func (l *LLM) Carried(pg page.ID) uint64 {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.pages[pg]; e != nil {
		return e.carried
	}
	return 0
}

// AwaitGrant returns name's cached mode once no request for the name in
// flight asks for more than the cache holds, so a callback answered
// from it cannot overtake a grant; with wait unset it reports busy
// instead of waiting.
func (l *LLM) AwaitGrant(name Name, wait bool) (cached Mode, busy bool, err error) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	busy, err = l.await(sh, wait, func() bool {
		s, _ := sh.pages[name.Page].refs(name)
		cached = s.cached
		return !s.granting()
	})
	return cached, busy, err
}

// Requested reports whether a request for name in mode is counted in
// flight.  Test-facing: tests order a message against the request.
func (l *LLM) Requested(name Name, mode Mode) bool {
	s, _ := l.view(name)
	return s.asking[mode] > 0
}
