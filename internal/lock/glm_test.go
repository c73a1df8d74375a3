package lock

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// recordingCallbacker records callbacks; optionally it reacts to them
// like a cooperative client would.  With busy set, every holder reports
// busy to that GLM: a local transaction uses each lock it is asked for.
type recordingCallbacker struct {
	mu     sync.Mutex
	objCBs []callback
	deescs []callback
	react  func(cb callback)
	busy   *GLM
}

// busyGLM returns a GLM whose holders never yield and always report
// busy, so every wait on a holder is real.
func busyGLM(timeout time.Duration) *GLM {
	g := NewGLM(nil, timeout)
	g.SetCallbacker(&recordingCallbacker{busy: g})
	return g
}

func (r *recordingCallbacker) CallbackObject(holder, requester ident.ClientID, obj Name, wanted Mode) {
	if r.busy != nil {
		r.busy.HolderBusy(requester, holder, obj.Page)
	}
	cb := callback{holder: holder, name: obj, wanted: wanted}
	r.mu.Lock()
	r.objCBs = append(r.objCBs, cb)
	react := r.react
	r.mu.Unlock()
	if react != nil {
		go react(cb)
	}
}

func (r *recordingCallbacker) DeescalatePage(holder, requester ident.ClientID, pg page.ID, wanted Mode) {
	if r.busy != nil {
		r.busy.HolderBusy(requester, holder, pg)
	}
	cb := callback{holder: holder, name: PageName(pg), wanted: wanted}
	r.mu.Lock()
	r.deescs = append(r.deescs, cb)
	react := r.react
	r.mu.Unlock()
	if react != nil {
		go react(cb)
	}
}

func (r *recordingCallbacker) counts() (obj, deesc int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.objCBs), len(r.deescs)
}

const (
	cA ident.ClientID = 1
	cB ident.ClientID = 2
	cC ident.ClientID = 3
)

func obj(p page.ID, s uint16) Name { return Name{Page: p, Slot: s} }

func TestCompatibilityMatrix(t *testing.T) {
	if !Compatible(S, S) {
		t.Fatal("S/S must be compatible")
	}
	for _, pair := range [][2]Mode{{S, X}, {X, S}, {X, X}} {
		if Compatible(pair[0], pair[1]) {
			t.Fatalf("%v/%v must conflict", pair[0], pair[1])
		}
	}
	if !Covers(X, S) || !Covers(S, S) || Covers(S, X) || Covers(None, S) {
		t.Fatal("Covers is wrong")
	}
}

func TestAdaptiveGrantPageWhenAlone(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, time.Second)
	gr, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X, PreferPage: true})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Name.IsPage || gr.Mode != X {
		t.Fatalf("grant = %+v, want page X", gr)
	}
	if !gr.FirstX {
		t.Fatal("first exclusive grant must report FirstX")
	}
	// A second X request by the same client on the same page is covered.
	gr2, err := g.Acquire(Request{Client: cA, Name: obj(1, 1), Mode: X, PreferPage: true})
	if err != nil {
		t.Fatal(err)
	}
	if gr2.FirstX {
		t.Fatal("covered request must not report FirstX")
	}
}

func TestAdaptiveFallsBackToObjectWhenShared(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, time.Second)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: S}); err != nil {
		t.Fatal(err)
	}
	// B asks for a different object on the same page: page-level grant is
	// impossible (A holds interest), so B gets the object lock.
	gr, err := g.Acquire(Request{Client: cB, Name: obj(1, 1), Mode: X, PreferPage: true})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Name.IsPage {
		t.Fatalf("grant = %+v, want object-level", gr)
	}
	if !gr.FirstX {
		t.Fatal("B's first X on the page must report FirstX")
	}
}

func TestSharedObjectLocksCoexist(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, time.Second)
	for _, c := range []ident.ClientID{cA, cB, cC} {
		if _, err := g.Acquire(Request{Client: c, Name: obj(1, 0), Mode: S}); err != nil {
			t.Fatalf("client %v: %v", c, err)
		}
	}
	if o, d := (&recordingCallbacker{}).counts(); o != 0 || d != 0 {
		t.Fatal("no callbacks expected")
	}
}

func TestCallbackOnObjectConflict(t *testing.T) {
	rc := &recordingCallbacker{}
	g := NewGLM(nil, 2*time.Second)
	// Cooperative holder: downgrade on S callback, release on X callback.
	rc.react = func(cb callback) {
		if cb.wanted == S {
			g.Downgrade(cb.holder, cb.name)
		} else {
			g.Release(cb.holder, cb.name)
		}
	}
	g.SetCallbacker(rc)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	// B requests S: A must be called back to downgrade.
	if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: S}); err != nil {
		t.Fatal(err)
	}
	nObj, _ := rc.counts()
	if nObj == 0 {
		t.Fatal("no object callback issued")
	}
	// Now both hold S; C requests X: both are called back to release.
	if _, err := g.Acquire(Request{Client: cC, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
}

func TestDeescalationOnPageConflict(t *testing.T) {
	rc := &recordingCallbacker{}
	g := NewGLM(nil, 2*time.Second)
	rc.react = func(cb callback) {
		if cb.name.IsPage {
			// Holder keeps object 0 in X (its transaction accessed it).
			g.Deescalate(cb.holder, cb.name.Page, []ObjLock{{Slot: 0, Mode: X}})
		} else if cb.wanted == X {
			g.Release(cb.holder, cb.name)
		} else {
			g.Downgrade(cb.holder, cb.name)
		}
	}
	g.SetCallbacker(rc)
	// A gets an adaptive page X lock.
	gr, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X, PreferPage: true})
	if err != nil || !gr.Name.IsPage {
		t.Fatalf("setup grant: %+v err=%v", gr, err)
	}
	// B wants a different object: A de-escalates, B proceeds.
	gr2, err := g.Acquire(Request{Client: cB, Name: obj(1, 1), Mode: X})
	if err != nil {
		t.Fatal(err)
	}
	if gr2.Name.IsPage {
		t.Fatalf("B's grant should be object-level: %+v", gr2)
	}
	_, nDeesc := rc.counts()
	if nDeesc == 0 {
		t.Fatal("no de-escalation callback issued")
	}
	// A's retained object X on slot 0 must still block C there.
	if _, err := g.Acquire(Request{Client: cC, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err) // react releases it
	}
}

func TestDeadlockDetection(t *testing.T) {
	g := busyGLM(5 * time.Second)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(Request{Client: cB, Name: obj(2, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := g.Acquire(Request{Client: cA, Name: obj(2, 0), Mode: X})
		errs <- err
	}()
	go func() {
		_, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: X})
		errs <- err
	}()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("got %v, want ErrDeadlock", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("deadlock not detected")
	}
}

func TestWaitTimeout(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, 50*time.Millisecond)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	_, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: X})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

func TestClientCrashReleasesSharedKeepsExclusive(t *testing.T) {
	rc := &recordingCallbacker{}
	g := NewGLM(rc, 100*time.Millisecond)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: S}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 1), Mode: X}); err != nil {
		t.Fatal(err)
	}
	g.ClientCrashed(cA)
	// The shared lock is gone: B can take slot 0 in X immediately.
	if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	// The exclusive lock is retained and callbacks are queued, so B's
	// request for slot 1 times out without any callback being sent.
	if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 1), Mode: X}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if nObj, _ := rc.counts(); nObj != 0 {
		t.Fatalf("%d callbacks sent to crashed client", nObj)
	}
	// After recovery the queued conflict resolves once the lock is
	// released (recovery finished, transaction rolled back).
	g.ClientRecovered(cA)
	g.Release(cA, obj(1, 1))
	if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 1), Mode: X}); err != nil {
		t.Fatal(err)
	}
}

func TestHeldByAndInstall(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, time.Second)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(Request{Client: cA, Name: PageName(2), Mode: S}); err != nil {
		t.Fatal(err)
	}
	held := g.HeldBy(cA)
	if len(held) != 2 {
		t.Fatalf("HeldBy = %v", held)
	}
	// Rebuild a fresh GLM from the snapshot (server restart, §3.4).
	g2 := NewGLM(&recordingCallbacker{}, 50*time.Millisecond)
	for _, h := range held {
		g2.Install(cA, h.Name, h.Mode)
	}
	if _, err := g2.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: S}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("installed X lock not enforced: %v", err)
	}
}

func TestUpgradeSharedToExclusive(t *testing.T) {
	rc := &recordingCallbacker{}
	g := NewGLM(nil, 2*time.Second)
	rc.react = func(cb callback) { g.Release(cb.holder, cb.name) }
	g.SetCallbacker(rc)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: S}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: S}); err != nil {
		t.Fatal(err)
	}
	// A upgrades: B gets called back and releases; A must not deadlock on
	// its own shared lock.
	gr, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.FirstX {
		t.Fatal("upgrade is A's first X on the page")
	}
}

func TestStopAbortsWaiters(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, 5*time.Second)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: X})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	g.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("got %v, want ErrStopped", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not released by Stop")
	}
}

func TestPropGrantsNeverConflict(t *testing.T) {
	// Whatever the interleaving of acquires/releases, the GLM table must
	// never hold incompatible grants from different clients on the same
	// resource.
	f := func(ops []uint8) bool {
		rc := &recordingCallbacker{}
		g := NewGLM(nil, 10*time.Millisecond)
		rc.react = func(cb callback) {
			if cb.name.IsPage {
				g.Deescalate(cb.holder, cb.name.Page, nil)
			} else if cb.wanted == S {
				g.Downgrade(cb.holder, cb.name)
			} else {
				g.Release(cb.holder, cb.name)
			}
		}
		g.SetCallbacker(rc)
		for _, op := range ops {
			c := ident.ClientID(1 + op%3)
			name := obj(page.ID(1+(op>>2)%2), uint16((op>>4)%2))
			mode := S
			if op%2 == 1 {
				mode = X
			}
			if op%7 == 0 {
				g.Release(c, name)
				continue
			}
			g.Acquire(Request{Client: c, Name: name, Mode: mode}) // errors fine
		}
		// Validate the invariant over the final table.
		ok := true
		g.forEachPageLocked(func(_ page.ID, pl *pageLocks) {
			var pageHolders []Mode
			for _, m := range pl.page {
				pageHolders = append(pageHolders, m)
			}
			for i := 0; i < len(pageHolders); i++ {
				for j := i + 1; j < len(pageHolders); j++ {
					if !Compatible(pageHolders[i], pageHolders[j]) {
						ok = false
					}
				}
			}
			for _, owners := range pl.objs {
				var ms []Mode
				for _, m := range owners {
					ms = append(ms, m)
				}
				for i := 0; i < len(ms); i++ {
					for j := i + 1; j < len(ms); j++ {
						if !Compatible(ms[i], ms[j]) {
							ok = false
						}
					}
				}
				// Cross-level: page locks vs other clients' object locks.
				for pc, pm := range pl.page {
					for oc, om := range owners {
						if pc != oc && !Compatible(pm, om) {
							ok = false
						}
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingEdgesCloseNoCycle: two clients each requesting a lock the
// other merely caches form a cycle of pending edges, which is no
// deadlock — §3.2's callback waits only for transactions using the
// lock.  WaitsFor still shows both waits.  Once both holders report
// busy the cycle is real and exactly one requester dies.
func TestPendingEdgesCloseNoCycle(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, 5*time.Second)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(Request{Client: cB, Name: obj(2, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := g.Acquire(Request{Client: cA, Name: obj(2, 0), Mode: X})
		errs <- err
	}()
	go func() {
		_, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: X})
		errs <- err
	}()
	var snap WaitsForSnapshot
	for len(snap.Edges) < 2 {
		snap = g.WaitsFor()
		select {
		case err := <-errs:
			t.Fatalf("a pending cycle aborted a requester: %v", err)
		default:
		}
		time.Sleep(time.Millisecond)
	}
	for _, e := range snap.Edges {
		if !e.Pending {
			t.Fatalf("edge %+v is real before any busy report", e)
		}
	}
	if g.HolderBusy(cA, cB, 2) {
		t.Fatal("one busy holder closed a cycle")
	}
	if !g.HolderBusy(cB, cA, 1) {
		t.Fatal("the second busy report closed no cycle")
	}
	select {
	case err := <-errs:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("got %v, want ErrDeadlock", err)
		}
	case <-time.After(time.Second):
		t.Fatal("doomed requester not aborted")
	}
	if v := g.WaitsFor().Victims; len(v) != 1 || v[0].Client != cB || v[0].Distributed {
		t.Fatalf("victims = %+v, want cB, not distributed", v)
	}
	g.Stop()
}

// TestSettleSkipsAnswerOlderThanGrant: a callback answer applies only to
// the grants it saw.  One that left before the holder was granted the
// name again (here a re-grant of a lock it already holds) would take
// that grant back, so Settle drops it; an answer to a callback that left
// after the grant applies.
func TestSettleSkipsAnswerOlderThanGrant(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, time.Second)
	o := obj(1, 2)
	if _, err := g.Acquire(Request{Client: cA, Name: o, Mode: X}); err != nil {
		t.Fatal(err)
	}
	seq := g.GrantSeq(cA, o)
	if _, err := g.Acquire(Request{Client: cA, Name: o, Mode: X}); err != nil {
		t.Fatal(err)
	}
	if g.Settle(cA, o, seq, Released, nil) || g.Holding(cA, o) != X {
		t.Fatalf("an answer older than the grant was applied: holding %v", g.Holding(cA, o))
	}
	if !g.Settle(cA, o, g.GrantSeq(cA, o), Released, nil) || g.Holding(cA, o) != None {
		t.Fatalf("a current answer was not applied: holding %v", g.Holding(cA, o))
	}
}

// TestGLMPageEntryReusedAfterRelease: a page whose last lock goes
// leaves its table on the shard's spare list, and the next page to be
// locked takes it.  The reused table must hold no stale page holder,
// object owner or grant number.
func TestGLMPageEntryReusedAfterRelease(t *testing.T) {
	cb := &recordingCallbacker{}
	g := NewGLM(cb, 200*time.Millisecond)
	const p = page.ID(5)
	g.Install(cA, PageName(p), X)
	g.Install(cA, obj(p, 3), S)
	g.Install(cB, obj(p, 4), X)
	sh := g.shard(p)
	old := sh.pages[p]
	g.ReleaseAll(cA) // leaves its grant numbers in the table
	g.ReleaseAll(cB)
	sh.mu.Lock()
	spares := len(sh.spare)
	sh.mu.Unlock()
	if spares != 1 || g.HoldsAny(cA, p) || g.HoldsAny(cB, p) {
		t.Fatalf("after release: %d spare tables, holds A %v B %v; want 1, false, false",
			spares, g.HoldsAny(cA, p), g.HoldsAny(cB, p))
	}
	gr, err := g.Acquire(Request{Client: cC, Name: obj(p, 3), Mode: X, PreferPage: true})
	if err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	reused := sh.pages[p] == old
	sh.mu.Unlock()
	if !reused {
		t.Fatal("the second acquisition did not take the spare table")
	}
	if !gr.Name.IsPage || !gr.FirstX {
		t.Fatalf("grant %+v: want a first exclusive page lock on a page no one holds", gr)
	}
	if o, d := cb.counts(); o+d != 0 {
		t.Fatalf("%d callbacks to stale holders", o+d)
	}
	for _, n := range []Name{PageName(p), obj(p, 3), obj(p, 4)} {
		for _, c := range []ident.ClientID{cA, cB} {
			if m, seq := g.Holding(c, n), g.GrantSeq(c, n); m != None || seq != 0 {
				t.Errorf("client %v on %v: stale mode %v, grant number %d", c, n, m, seq)
			}
		}
	}
}

// TestReadOnlyLookupsInsertNoTables: asking about pages that hold no
// lock — HoldsAnyX, as the server's force path does for every DCT row,
// and the other read-only helpers — leaves no empty page table behind.
func TestReadOnlyLookupsInsertNoTables(t *testing.T) {
	g := NewGLM(nil, time.Second)
	defer g.Stop()
	for p := page.ID(1); p <= 100; p++ {
		if g.HoldsAnyX(1, p) {
			t.Fatalf("page %d: client 1 holds X on an unlocked page", p)
		}
		sh := g.shard(p)
		sh.mu.Lock()
		sh.covered(1, PageName(p), S)
		sh.holdsOn(1, ObjName(page.ObjectID{Page: p, Slot: 2}))
		sh.othersHoldOnPage(1, p)
		g.conflicts(sh, Request{Client: 1, Name: PageName(p), Mode: X}, PageName(p))
		sh.downgrade(1, PageName(p))
		sh.mu.Unlock()
	}
	for i := range g.shards {
		if n := len(g.shards[i].pages); n != 0 {
			t.Fatalf("shard %d holds %d page tables after read-only lookups", i, n)
		}
	}
}
