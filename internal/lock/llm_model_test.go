package lock

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// refLLM is the reference model of one client's lock tables: the LLM's
// rules over one name-keyed map per kind of state, as the LLM kept them
// before its tables became per-page entries, the requests in flight as
// the client counted them before they joined those entries, and each
// page's latest unanswered carrier.  It never waits; the operations that would block report so
// instead.
type refLLM struct {
	cached   map[Name]Mode
	use      map[Name][]txnMode
	accessed map[Name]Mode
	fences   map[Name]Mode
	asking   map[Name]map[Mode]int
	carried  map[page.ID]uint64
}

func newRefLLM() *refLLM {
	return &refLLM{
		cached:   make(map[Name]Mode),
		use:      make(map[Name][]txnMode),
		accessed: make(map[Name]Mode),
		fences:   make(map[Name]Mode),
		asking:   make(map[Name]map[Mode]int),
		carried:  make(map[page.ID]uint64),
	}
}

// request counts a request for name in mode in (d = 1) or out (d = -1);
// an end that finds no count does nothing.
func (r *refLLM) request(d int, name Name, mode Mode) {
	if r.asking[name] == nil {
		r.asking[name] = make(map[Mode]int)
	}
	r.asking[name][mode] = max(r.asking[name][mode]+d, 0)
}

// granting reports whether a request for name in flight asks for more
// than the cache holds: a callback for it is answered busy.
func (r *refLLM) granting(name Name) bool {
	return r.asking[name][S] > 0 && r.cached[name] == None || r.asking[name][X] > 0 && r.cached[name] != X
}

// counted reports whether a request for a name of pg is in flight or a
// carrier of pg unanswered.
func (r *refLLM) counted(pg page.ID) bool {
	if r.carried[pg] != 0 {
		return true
	}
	for n, m := range r.asking {
		if n.Page == pg && (m[S] > 0 || m[X] > 0) {
			return true
		}
	}
	return false
}

// acquire is Acquire; blocks reports that the call would wait for
// a fence or another transaction.
func (r *refLLM) acquire(t ident.TxnID, name Name, mode Mode) (res LocalResult, blocks bool) {
	own := modeOf(r.use[name], t)
	if Covers(own, mode) {
		return Granted, false
	}
	ownUse := own != None
	if !name.IsPage && modeOf(r.use[PageName(name.Page)], t) != None {
		ownUse = true
	}
	if !ownUse {
		if f, ok := r.fences[name]; ok && (f == X || mode == X) {
			return 0, true
		}
		if !name.IsPage {
			if f, ok := r.fences[PageName(name.Page)]; ok && (f == X || mode == X) {
				return 0, true
			}
		}
	}
	blockers := addConflicts(r.use[name], t, mode, nil)
	if !name.IsPage {
		blockers = addConflicts(r.use[PageName(name.Page)], t, mode, blockers)
	} else {
		for n, users := range r.use {
			if !n.IsPage && n.Page == name.Page {
				blockers = addConflicts(users, t, mode, blockers)
			}
		}
	}
	if len(blockers) > 0 {
		return 0, true
	}
	if r.cacheCovers(name, mode) {
		if !name.IsPage {
			r.accessed[name] = Max(r.accessed[name], mode)
		}
		users := r.use[name]
		for i := range users {
			if users[i].t == t {
				users[i].m = Max(users[i].m, mode)
				return Granted, false
			}
		}
		r.use[name] = append(users, txnMode{t, mode})
		return Granted, false
	}
	return NeedGlobal, false
}

func (r *refLLM) cacheCovers(name Name, mode Mode) bool {
	return Covers(r.cached[name], mode) || !name.IsPage && Covers(r.cached[PageName(name.Page)], mode)
}

func (r *refLLM) cachesAny(name Name) bool {
	return r.cached[name] != None || !name.IsPage && r.cached[PageName(name.Page)] != None
}

func (r *refLLM) releaseTxn(t ident.TxnID) {
	for n, users := range r.use {
		users = slices.DeleteFunc(users, func(u txnMode) bool { return u.t == t })
		if len(users) == 0 {
			delete(r.use, n)
		} else {
			r.use[n] = users
		}
	}
}

func (r *refLLM) txnUses(t ident.TxnID) []Holding {
	var out []Holding
	for n, users := range r.use {
		if m := modeOf(users, t); m != None {
			out = append(out, Holding{Name: n, Mode: m})
		}
	}
	return out
}

func (r *refLLM) cachedLocks() []Holding {
	var out []Holding
	for n, m := range r.cached {
		out = append(out, Holding{Name: n, Mode: m})
	}
	return out
}

func (r *refLLM) objectFree(obj Name, wanted Mode) bool {
	busy := addConflicts(r.use[obj], ident.NilTxn, wanted, nil)
	return addConflicts(r.use[PageName(obj.Page)], ident.NilTxn, wanted, busy) == nil
}

func (r *refLLM) objLocks(pg page.ID, m map[Name]Mode) []ObjLock {
	var out []ObjLock
	for n, mode := range m {
		if !n.IsPage && n.Page == pg && mode != None {
			out = append(out, ObjLock{Slot: n.Slot, Mode: mode})
		}
	}
	return out
}

func (r *refLLM) dropCached(name Name) {
	delete(r.cached, name)
	if !name.IsPage {
		delete(r.accessed, name)
		return
	}
	for n := range r.accessed {
		if _, held := r.cached[n]; n.Page == name.Page && !held {
			delete(r.accessed, n)
		}
	}
}

func (r *refLLM) downgradeCached(name Name) {
	if r.cached[name] == X {
		r.cached[name] = S
	}
	if !name.IsPage && r.accessed[name] == X {
		r.accessed[name] = S
	}
}

func (r *refLLM) deescalate(pg page.ID, objs []ObjLock) {
	delete(r.cached, PageName(pg))
	for _, ol := range objs {
		n := Name{Page: pg, Slot: ol.Slot}
		r.cached[n] = Max(r.cached[n], ol.Mode)
	}
}

func (r *refLLM) dropIdlePage(pg page.ID) []Name {
	for n := range r.use {
		if n.Page == pg {
			return nil
		}
	}
	for n := range r.fences {
		if n.Page == pg {
			return nil
		}
	}
	for n, m := range r.asking {
		if n.Page == pg && (m[S] > 0 || m[X] > 0) {
			return nil
		}
	}
	var out []Name
	for n := range r.cached {
		if n.Page == pg {
			out = append(out, n)
			delete(r.cached, n)
		}
	}
	if out == nil {
		return nil
	}
	for n := range r.accessed {
		if n.Page != pg {
			continue
		}
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
		delete(r.accessed, n)
	}
	slices.SortFunc(out, cmpName)
	return out
}

func (r *refLLM) holdsAnyOnPage(pg page.ID) bool {
	for n := range r.cached {
		if n.Page == pg {
			return true
		}
	}
	return false
}

func cmpName(a, b Name) int {
	if a.IsPage != b.IsPage {
		if a.IsPage {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
}

func sortedHoldings(hs []Holding) []Holding {
	slices.SortFunc(hs, func(a, b Holding) int { return cmpName(a.Name, b.Name) })
	return hs
}

func sortedObjLocks(ols []ObjLock) []ObjLock {
	slices.SortFunc(ols, func(a, b ObjLock) int { return cmp.Compare(a.Slot, b.Slot) })
	return ols
}

// TestLLMModel runs seeded random call sequences over 2 pages × 4 slots
// × 3 transactions against the LLM and the reference model, comparing
// every return value and, after each step, every snapshot the LLM
// offers, the no-wait answers a callback reads from the requests in
// flight, the carrier marks, and that an entry with a count stays.  Pages 1 and 9
// share a shard, so per-page separation inside one shard is exercised
// too.  Calls the model says would block are skipped, but for a sample
// that must time out.
func TestLLMModel(t *testing.T) {
	pages := []page.ID{1, 9}
	txns := []ident.TxnID{ident.MakeTxnID(1, 1), ident.MakeTxnID(1, 2), ident.MakeTxnID(1, 3)}
	modes := []Mode{None, S, X}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLLM(2 * time.Millisecond)
		ref := newRefLLM()
		// Every acquisition records its use in the transaction's list;
		// a release takes the list (Release) or scans the tables
		// (ReleaseTxn), which leaves the list stale, as Clear does.
		uses := make(map[ident.TxnID]*Uses)
		for _, x := range txns {
			uses[x] = &Uses{Txn: x}
		}
		var seqs uint64
		name := func() Name {
			pg := pages[rng.Intn(len(pages))]
			if rng.Intn(4) == 0 {
				return PageName(pg)
			}
			return Name{Page: pg, Slot: uint16(rng.Intn(4))}
		}
		objName := func() Name {
			return Name{Page: pages[rng.Intn(len(pages))], Slot: uint16(rng.Intn(4))}
		}
		var trail []string
		check := func(what string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d after %v: %s = %v, model %v", seed, trail, what, got, want)
			}
		}
		for step := 0; step < 300; step++ {
			tx := txns[rng.Intn(len(txns))]
			mode := modes[rng.Intn(len(modes))]
			pg := pages[rng.Intn(len(pages))]
			var op string
			switch k := rng.Intn(24); k {
			case 0, 1, 2, 3, 4:
				n := name()
				if mode == None && rng.Intn(4) != 0 {
					mode = S
				}
				op = fmt.Sprintf("Acquire(%v,%v,%v)", tx, n, mode)
				want, blocks := ref.acquire(tx, n, mode)
				if blocks {
					// A sample of the blocked calls runs into the timeout,
					// which leaves the tables as they were.
					op += " blocks"
					if rng.Intn(10) == 0 {
						_, err := l.Acquire(uses[tx], n, mode)
						check(op, err, ErrTimeout)
					}
					break
				}
				got, err := l.Acquire(uses[tx], n, mode)
				check(op+" err", err, error(nil))
				check(op, got, want)
			case 5, 6:
				n := name()
				op = fmt.Sprintf("InstallCached(%v,%v)", n, mode)
				l.InstallCached(n, mode)
				ref.cached[n] = Max(ref.cached[n], mode)
			case 7:
				if rng.Intn(2) == 0 {
					op = fmt.Sprintf("Release(%v)", tx)
					l.Release(uses[tx])
				} else {
					op = fmt.Sprintf("ReleaseTxn(%v)", tx)
					l.ReleaseTxn(tx)
				}
				ref.releaseTxn(tx)
			case 8:
				n := name()
				op = fmt.Sprintf("SetFence(%v,%v)", n, mode)
				l.SetFence(n, mode)
				ref.fences[n] = Max(ref.fences[n], mode)
			case 9:
				n := name()
				op = fmt.Sprintf("ClearFence(%v)", n)
				l.ClearFence(n)
				delete(ref.fences, n)
			case 10:
				n := name()
				op = fmt.Sprintf("DropCached(%v)", n)
				l.DropCached(n)
				ref.dropCached(n)
			case 11:
				n := name()
				op = fmt.Sprintf("DowngradeCached(%v)", n)
				l.DowngradeCached(n)
				ref.downgradeCached(n)
			case 12:
				var objs []ObjLock
				for i := rng.Intn(3); i > 0; i-- {
					objs = append(objs, ObjLock{Slot: uint16(rng.Intn(4)), Mode: modes[rng.Intn(len(modes))]})
				}
				op = fmt.Sprintf("Deescalate(%v,%v)", pg, objs)
				l.Deescalate(pg, objs)
				ref.deescalate(pg, objs)
			case 13:
				op = fmt.Sprintf("DropIdlePage(%v)", pg)
				check(op, l.DropIdlePage(pg), ref.dropIdlePage(pg))
			case 14:
				n := objName()
				op = fmt.Sprintf("ObjectFree(%v,%v)", n, mode)
				want := ref.objectFree(n, mode)
				check(op, l.ObjectFree(n, mode), want)
				if want {
					check("Wait"+op, l.WaitObjectFree(n, mode), error(nil))
				}
			case 15:
				// A page name in X: free once no structural use is left.
				n := PageName(pg)
				op = fmt.Sprintf("ObjectFree(%v,X)", n)
				want := len(ref.use[n]) == 0
				check(op, l.ObjectFree(n, X), want)
				if want {
					check("Wait"+op, l.WaitObjectFree(n, X), error(nil))
				}
			case 16:
				n := name()
				op = fmt.Sprintf("queries(%v,%v,%v)", tx, n, mode)
				check("CachesAny", l.CachesAny(n), ref.cachesAny(n))
				check("CacheCovers", l.CacheCovers(n, mode), ref.cacheCovers(n, mode))
				check("CachedMode", l.CachedMode(n), ref.cached[n])
				check("UseMode", l.UseMode(tx, n), modeOf(ref.use[n], tx))
			case 17:
				op = fmt.Sprintf("HoldsAnyOnPage(%v)", pg)
				check(op, l.HoldsAnyOnPage(pg), ref.holdsAnyOnPage(pg))
			case 18:
				if rng.Intn(10) != 0 {
					op = "no-op"
					break
				}
				op = "Clear"
				l.Clear()
				ref = newRefLLM()
			case 19:
				// A deescalation with no objects and a grant of None are
				// the two ways a name is present with mode None.
				n, m := objName(), name()
				op = fmt.Sprintf("Deescalate(%v,[%v None]); InstallCached(%v,None)", n.Page, n.Slot, m)
				l.Deescalate(n.Page, []ObjLock{{Slot: n.Slot, Mode: None}})
				ref.deescalate(n.Page, []ObjLock{{Slot: n.Slot, Mode: None}})
				l.InstallCached(m, None)
				ref.cached[m] = Max(ref.cached[m], None)
			case 20, 21:
				// A request starts or ends; the client may start one for
				// a name already asked in another mode.
				n, d, m := name(), 1, modes[1+rng.Intn(2)]
				if k == 21 {
					d = -1
				}
				op = fmt.Sprintf("Request(%d,%v,%v)", d, m, n)
				l.Request(d, m, n)
				ref.request(d, n, m)
			case 22:
				// A carrier marks the page.
				seqs++
				op = fmt.Sprintf("Carry(%v,%d,set)", pg, seqs)
				check(op, l.Carry(pg, seqs, true), ref.carried[pg])
				ref.carried[pg] = seqs
			case 23:
				// A carrier, this page's or not, is answered.
				seq := uint64(rng.Intn(int(seqs) + 1))
				op = fmt.Sprintf("Carry(%v,%d,unset)", pg, seq)
				l.Carry(pg, seq, false)
				if ref.carried[pg] == seq {
					ref.carried[pg] = 0
				}
			}
			trail = append(trail, op)
			if len(trail) > 12 {
				trail = trail[1:]
			}
			check("CachedLocks", sortedHoldings(l.CachedLocks()), sortedHoldings(ref.cachedLocks()))
			for _, x := range txns {
				check(fmt.Sprintf("TxnUses(%v)", x), sortedHoldings(l.TxnUses(x)), sortedHoldings(ref.txnUses(x)))
			}
			for _, p := range pages {
				check(fmt.Sprintf("AccessedObjects(%v)", p), sortedObjLocks(l.AccessedObjects(p)), sortedObjLocks(ref.objLocks(p, ref.accessed)))
				check(fmt.Sprintf("CachedObjLocks(%v)", p), sortedObjLocks(l.CachedObjLocks(p)), sortedObjLocks(ref.objLocks(p, ref.cached)))
				check(fmt.Sprintf("Carried(%v)", p), l.Carried(p), ref.carried[p])
				if ref.counted(p) {
					check(fmt.Sprintf("entry of %v with a count", p), l.shard(p).pages[p] != nil, true)
				}
			}
			// The step's page: every name's no-wait answer and counts.
			for slot := -1; slot < 4; slot++ {
				n := PageName(pg)
				if slot >= 0 {
					n = Name{Page: pg, Slot: uint16(slot)}
				}
				cached, busy, err := l.AwaitGrant(n, false)
				check(fmt.Sprintf("AwaitGrant(%v)", n), [3]any{cached, busy, err}, [3]any{ref.cached[n], ref.granting(n), error(nil)})
				for _, m := range modes[1:] {
					check(fmt.Sprintf("Requested(%v,%v)", n, m), l.Requested(n, m), ref.asking[n][m] > 0)
				}
			}
		}
	}
}

// TestLLMModelRecyclesEntries checks that a page whose names all became
// idle leaves the shard, and that an evict/refetch cycle then reuses
// its entry without allocating.
func TestLLMModelRecyclesEntries(t *testing.T) {
	l := NewLLM(time.Second)
	u := &Uses{Txn: ident.MakeTxnID(1, 1)}
	cycle := func() {
		l.InstallCached(PageName(3), X)
		for slot := uint16(0); slot < 3; slot++ {
			if res, err := l.Acquire(u, Name{Page: 3, Slot: slot}, X); err != nil || res != Granted {
				t.Fatalf("slot %d: res=%v err=%v", slot, res, err)
			}
		}
		l.Release(u)
		if got := l.DropIdlePage(3); len(got) != 4 {
			t.Fatalf("DropIdlePage = %v, want the page and 3 objects", got)
		}
	}
	cycle()
	if sh := l.shard(3); len(sh.pages) != 0 || len(sh.free) != 1 {
		t.Fatalf("after the drop: %d entries, %d free; want 0 and 1", len(sh.pages), len(sh.free))
	}
	// DropIdlePage's result is the one allocation a cycle keeps.
	if n := testing.AllocsPerRun(100, cycle); n > 1 {
		t.Fatalf("an evict/refetch cycle allocates %.1f times, want at most 1", n)
	}
}
