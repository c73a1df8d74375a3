package lock

import (
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/page"
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
// tables: the cached locks, transaction uses, access history and
// callback fences for the pages hashing to it, plus the retry-wakeup
// channels of blocked local acquisitions on those pages.
type llmShard struct {
	mu sync.Mutex
	// cached are the client-level locks granted by the GLM.
	cached map[Name]Mode
	// use records active transactions' lock usage.  Object accesses are
	// recorded under the object name even when covered by a cached page
	// lock; structural page operations are recorded under the page name.
	// A name's list of users is a short slice, recycled through spare
	// when the name's last user ends, so recording a use allocates
	// nothing.
	use   map[Name][]txnMode
	spare [][]txnMode
	// accessed remembers, per object, the strongest mode any local
	// transaction ever used it with while the client held covering
	// locks; de-escalation retains object locks for these (the paper's
	// "list of the objects accessed by local transactions", which spans
	// committed transactions under inter-transaction caching).
	accessed map[Name]Mode
	// fences mark names with a pending callback: new conflicting local
	// acquisitions wait until the callback completes.
	fences map[Name]Mode

	waiters []chan struct{}
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
// while holding one shard mutex, never the reverse).
type LLM struct {
	shards  []llmShard
	stopped atomic.Bool

	// txnMu guards names, the names each active transaction uses, so
	// ReleaseTxn visits only those; the lists of finished transactions
	// wait in spare for the next ones.  A leaf under the shard mutexes.
	txnMu sync.Mutex
	names map[ident.TxnID][]Name
	spare [][]Name

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
		names:      make(map[ident.TxnID][]Name),
		waitsLocal: make(map[ident.TxnID]map[ident.TxnID]bool),
		timeout:    timeout,
	}
	for i := range l.shards {
		sh := &l.shards[i]
		sh.cached = make(map[Name]Mode)
		sh.use = make(map[Name][]txnMode)
		sh.accessed = make(map[Name]Mode)
		sh.fences = make(map[Name]Mode)
	}
	return l
}

// shard maps a page to its shard.
func (l *LLM) shard(p page.ID) *llmShard {
	return &l.shards[int(uint64(p)%uint64(len(l.shards)))]
}

// notifyAll wakes blocked acquisitions on this shard.  Called with
// sh.mu held.
func (sh *llmShard) notifyAll() {
	for _, ch := range sh.waiters {
		close(ch)
	}
	sh.waiters = nil
}

// wait sleeps until the shard's tables change or the deadline passes;
// a zero *deadline is set to timeout from now, so the clock is read
// only by operations that actually wait.  Called with sh.mu held;
// returns with sh.mu held.
func (sh *llmShard) wait(deadline *time.Time, timeout time.Duration) error {
	if deadline.IsZero() {
		*deadline = time.Now().Add(timeout)
	}
	ch := make(chan struct{})
	sh.waiters = append(sh.waiters, ch)
	sh.mu.Unlock()
	timer := time.NewTimer(time.Until(*deadline))
	select {
	case <-ch:
		timer.Stop()
		sh.mu.Lock()
		return nil
	case <-timer.C:
		sh.mu.Lock()
		return ErrTimeout
	}
}

// fenceBlocks reports whether a pending callback on name forbids a new
// local acquisition with the given mode.  A fence in X takes the lock
// away entirely; a fence in S leaves shared access.
func fenceBlocks(fence Mode, mode Mode) bool {
	if fence == X {
		return true
	}
	return mode == X // fence == S keeps S available
}

// AcquireLocal grants name@mode to transaction t from the cache, blocks
// while other local transactions or pending callbacks conflict, or
// reports NeedGlobal when the server must be consulted.
func (l *LLM) AcquireLocal(t ident.TxnID, name Name, mode Mode) (LocalResult, error) {
	var deadline time.Time
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if l.stopped.Load() {
			return 0, ErrStopped
		}
		// Reentrant: the transaction already holds a sufficient use.
		own := modeOf(sh.use[name], t)
		if Covers(own, mode) {
			return Granted, nil
		}
		// Pending callbacks fence new conflicting acquisitions so the
		// callback cannot be starved.  A transaction that already uses
		// the name (or the covering page) bypasses the fence: the
		// callback must wait for that transaction's end regardless, so
		// letting it upgrade cannot extend the wait — while blocking it
		// would deadlock the callback against its own holder.
		ownUse := own != None
		if !name.IsPage && modeOf(sh.use[PageName(name.Page)], t) != None {
			ownUse = true
		}
		if !ownUse {
			if f, ok := sh.fences[name]; ok && fenceBlocks(f, mode) {
				if err := sh.wait(&deadline, l.timeout); err != nil {
					return 0, err
				}
				continue
			}
			if !name.IsPage {
				if f, ok := sh.fences[PageName(name.Page)]; ok && fenceBlocks(f, mode) {
					if err := sh.wait(&deadline, l.timeout); err != nil {
						return 0, err
					}
					continue
				}
			}
		}
		// Conflicts with other local transactions (strict 2PL).
		blockers := sh.localConflicts(t, name, mode)
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
		if sh.cacheCovers(name, mode) {
			l.recordUse(sh, t, name, mode)
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

// recordUse registers a transaction's use of a lock that was just
// installed from a GLM grant (the caller re-ran AcquireLocal, so the
// use may already exist; recordUse is idempotent).  Called with sh.mu
// held.
func (l *LLM) recordUse(sh *llmShard, t ident.TxnID, name Name, mode Mode) {
	if !name.IsPage {
		sh.accessed[name] = Max(sh.accessed[name], mode)
	}
	users, ok := sh.use[name]
	for i := range users {
		if users[i].t == t {
			users[i].m = Max(users[i].m, mode)
			return
		}
	}
	if !ok && len(sh.spare) > 0 {
		users = sh.spare[len(sh.spare)-1]
		sh.spare = sh.spare[:len(sh.spare)-1]
	}
	sh.use[name] = append(users, txnMode{t, mode})
	l.txnMu.Lock()
	ns, ok := l.names[t]
	if !ok && len(l.spare) > 0 {
		ns = l.spare[len(l.spare)-1]
		l.spare = l.spare[:len(l.spare)-1]
	}
	l.names[t] = append(ns, name)
	l.txnMu.Unlock()
}

// localConflicts returns the transactions blocking t's request, nil
// when none does.  All conflicting uses are on the request's page, hence
// in this shard.  Called with sh.mu held.
func (sh *llmShard) localConflicts(t ident.TxnID, name Name, mode Mode) map[ident.TxnID]bool {
	blockers := addConflicts(sh.use[name], t, mode, nil)
	if !name.IsPage {
		// An object request conflicts with other transactions' page-level
		// uses (structural operations in progress).
		return addConflicts(sh.use[PageName(name.Page)], t, mode, blockers)
	}
	// A page request conflicts with other transactions' object uses on
	// the page.
	for n, users := range sh.use {
		if !n.IsPage && n.Page == name.Page {
			blockers = addConflicts(users, t, mode, blockers)
		}
	}
	return blockers
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

// cacheCovers reports whether the cached locks cover name@mode.  Called
// with sh.mu held.
func (sh *llmShard) cacheCovers(name Name, mode Mode) bool {
	if Covers(sh.cached[name], mode) {
		return true
	}
	if !name.IsPage && Covers(sh.cached[PageName(name.Page)], mode) {
		return true
	}
	return false
}

// CachesAny reports whether the client caches any lock on the name (or
// the page covering it); such a request is an upgrade.
func (l *LLM) CachesAny(name Name) bool {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cached[name] != None {
		return true
	}
	return !name.IsPage && sh.cached[PageName(name.Page)] != None
}

// CacheCovers reports whether the cached locks cover name@mode.
func (l *LLM) CacheCovers(name Name, mode Mode) bool {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cacheCovers(name, mode)
}

// InstallCached records a lock granted by the GLM.
func (l *LLM) InstallCached(name Name, mode Mode) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	sh.cached[name] = Max(sh.cached[name], mode)
	sh.notifyAll()
	sh.mu.Unlock()
}

// CachedMode returns the cached mode for name (None if absent).
func (l *LLM) CachedMode(name Name) Mode {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cached[name]
}

// ReleaseTxn drops every use of a terminated transaction; cached locks
// are retained per inter-transaction caching.  Only the names t used
// are visited, one shard mutex at a time.
func (l *LLM) ReleaseTxn(t ident.TxnID) {
	l.txnMu.Lock()
	ns, ok := l.names[t]
	delete(l.names, t)
	l.txnMu.Unlock()
	for _, n := range ns {
		sh := l.shard(n.Page)
		sh.mu.Lock()
		users := sh.use[n]
		for i := range users {
			if users[i].t == t {
				users[i] = users[len(users)-1]
				if users = users[:len(users)-1]; len(users) > 0 {
					sh.use[n] = users
				} else {
					delete(sh.use, n)
					sh.spare = append(sh.spare, users)
				}
				break
			}
		}
		sh.notifyAll()
		sh.mu.Unlock()
	}
	if ok {
		l.txnMu.Lock()
		l.spare = append(l.spare, ns[:0])
		l.txnMu.Unlock()
	}
	l.clearWaitLocal(t)
}

// TxnUses returns the names t currently uses with their modes.
func (l *LLM) TxnUses(t ident.TxnID) []Holding {
	var out []Holding
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for n, users := range sh.use {
			if m := modeOf(users, t); m != None {
				out = append(out, Holding{Name: n, Mode: m})
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// UseMode returns the mode transaction t holds on name (None if none).
func (l *LLM) UseMode(t ident.TxnID, name Name) Mode {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return modeOf(sh.use[name], t)
}

// CachedLocks snapshots the client-level cached locks; server restart
// recovery collects them to rebuild the GLM tables (§3.4).
func (l *LLM) CachedLocks() []Holding {
	var out []Holding
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for n, m := range sh.cached {
			out = append(out, Holding{Name: n, Mode: m})
		}
		sh.mu.Unlock()
	}
	return out
}

// SetFence marks a pending callback on name so that new conflicting
// local acquisitions wait for its completion.
func (l *LLM) SetFence(name Name, wanted Mode) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	sh.fences[name] = Max(sh.fences[name], wanted)
	sh.mu.Unlock()
}

// ClearFence removes the fence and wakes blocked acquisitions.
func (l *LLM) ClearFence(name Name) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	delete(sh.fences, name)
	sh.notifyAll()
	sh.mu.Unlock()
}

// WaitObjectFree blocks until no active transaction holds a use on obj
// (or, for wanted==S, no exclusive use) and no structural page use
// covers it; the callback handler then mutates the cache.
func (l *LLM) WaitObjectFree(obj Name, wanted Mode) error {
	var deadline time.Time
	sh := l.shard(obj.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if l.stopped.Load() {
			return ErrStopped
		}
		if sh.objectFree(obj, wanted) {
			return nil
		}
		if err := sh.wait(&deadline, l.timeout); err != nil {
			return err
		}
	}
}

// objectFree is WaitObjectFree's predicate.  Called with sh.mu held.
func (sh *llmShard) objectFree(obj Name, wanted Mode) bool {
	busy := addConflicts(sh.use[obj], ident.NilTxn, wanted, nil)
	return addConflicts(sh.use[PageName(obj.Page)], ident.NilTxn, wanted, busy) == nil
}

// WaitPageQuiesced blocks until no active transaction holds a
// structural (page-name) use on pg; de-escalation then proceeds.
func (l *LLM) WaitPageQuiesced(pg page.ID) error {
	var deadline time.Time
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if l.stopped.Load() {
			return ErrStopped
		}
		if len(sh.use[PageName(pg)]) == 0 {
			return nil
		}
		if err := sh.wait(&deadline, l.timeout); err != nil {
			return err
		}
	}
}

// AccessedObjects returns the objects on pg that local transactions
// accessed (active or committed, per inter-transaction caching) with
// their strongest modes: the object locks to obtain when de-escalating
// the page lock (§3.2).
func (l *LLM) AccessedObjects(pg page.ID) []ObjLock {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []ObjLock
	for n, m := range sh.accessed {
		if n.Page != pg || m == None {
			continue
		}
		out = append(out, ObjLock{Slot: n.Slot, Mode: m})
	}
	return out
}

// DropCached removes a cached lock (callback in exclusive mode).
func (l *LLM) DropCached(name Name) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	delete(sh.cached, name)
	if name.IsPage {
		// Access history under the page lock dies with it unless object
		// locks were installed by de-escalation first.
		for n := range sh.accessed {
			if n.Page == name.Page {
				if _, held := sh.cached[n]; !held {
					delete(sh.accessed, n)
				}
			}
		}
	} else {
		delete(sh.accessed, name)
	}
	sh.notifyAll()
	sh.mu.Unlock()
}

// DowngradeCached demotes a cached exclusive lock to shared (callback in
// shared mode).
func (l *LLM) DowngradeCached(name Name) {
	sh := l.shard(name.Page)
	sh.mu.Lock()
	if sh.cached[name] == X {
		sh.cached[name] = S
	}
	if !name.IsPage && sh.accessed[name] == X {
		sh.accessed[name] = S
	}
	sh.notifyAll()
	sh.mu.Unlock()
}

// Deescalate replaces the cached page lock with the given object locks.
func (l *LLM) Deescalate(pg page.ID, objs []ObjLock) {
	sh := l.shard(pg)
	sh.mu.Lock()
	delete(sh.cached, PageName(pg))
	for _, ol := range objs {
		n := Name{Page: pg, Slot: ol.Slot}
		sh.cached[n] = Max(sh.cached[n], ol.Mode)
	}
	sh.notifyAll()
	sh.mu.Unlock()
}

// CachedObjLocks returns the object locks the cache holds on the page
// (used by de-escalation replies so the GLM never drops a page lock
// without installing the object locks that replace it, even when the
// callback is stale or repeated).
func (l *LLM) CachedObjLocks(pg page.ID) []ObjLock {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []ObjLock
	for n, m := range sh.cached {
		if !n.IsPage && n.Page == pg && m != None {
			out = append(out, ObjLock{Slot: n.Slot, Mode: m})
		}
	}
	return out
}

// HoldsAnyOnPage reports whether the cache holds the page lock or any
// object lock on pg; the client drops a page from its buffer only when
// this is false (§3.2 object-level conflict handling).
func (l *LLM) HoldsAnyOnPage(pg page.ID) bool {
	sh := l.shard(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.cached[PageName(pg)]; ok {
		return true
	}
	for n := range sh.cached {
		if !n.IsPage && n.Page == pg {
			return true
		}
	}
	return false
}

// Clear wipes all state (client crash loses lock tables).
func (l *LLM) Clear() {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.cached = make(map[Name]Mode)
		sh.use = make(map[Name][]txnMode)
		sh.accessed = make(map[Name]Mode)
		sh.fences = make(map[Name]Mode)
		sh.notifyAll()
		sh.mu.Unlock()
	}
	l.txnMu.Lock()
	l.names = make(map[ident.TxnID][]Name)
	l.txnMu.Unlock()
	l.graphMu.Lock()
	l.waitsLocal = make(map[ident.TxnID]map[ident.TxnID]bool)
	l.graphMu.Unlock()
}

// Stop aborts all blocked operations.
func (l *LLM) Stop() {
	l.stopped.Store(true)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.notifyAll()
		sh.mu.Unlock()
	}
}
