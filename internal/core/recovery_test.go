package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/wake"
)

// --- §3.3: client crash recovery ---

func TestClientCrashCommittedUpdateSurvives(t *testing.T) {
	// A commits an update that never leaves its cache, then crashes.
	// Restart recovery must redo it from the private log and make it
	// visible to the rest of the cluster.
	cl, ids, cs := seededCluster(t, testConfig(), 2, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 3}

	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('K')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(a.ID())

	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// B reads the object; the callback pulls the recovered copy.
	tb, _ := b.Begin()
	got, err := tb.Read(obj)
	if err != nil || !bytes.Equal(got, val('K')) {
		t.Fatalf("after client recovery: %q err=%v", got, err)
	}
	tb.Commit()
}

// TestClientRestartSmallPoolKeepsUpdates restarts a client whose dirty
// page table is four times its cache.  Rounds over 32 pages, alternately
// up and down the page order, spread every page's records across the
// log.  The last round's updates to the first pages, still cached at the
// crash, exist in the log alone, while the first round's records fetch
// every page in turn: the restart must finish each page's redo whatever
// its fetches evict.
func TestClientRestartSmallPoolKeepsUpdates(t *testing.T) {
	const nPages, rounds = 32, 4
	cfg := testConfig()
	cfg.ClientPool = 8
	cl, ids, cs := seededCluster(t, cfg, nPages, 2)
	a, b := cs[0], cs[1]
	ref := make(refState)
	var objs []page.ObjectID
	for round := 0; round < rounds; round++ {
		for j := range ids {
			i := j
			if round%2 == 1 {
				i = nPages - 1 - j
			}
			pid := ids[i]
			obj := page.ObjectID{Page: pid, Slot: uint16(round)}
			v := val(byte('a' + (round*nPages+i)%26))
			txn, err := a.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.Overwrite(obj, v); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			ref[obj] = v
			objs = append(objs, obj)
		}
	}
	if n := len(a.DPTSnapshot()); n <= cfg.ClientPool {
		t.Fatalf("%d dirty pages at the crash, want more than the %d the cache holds", n, cfg.ClientPool)
	}
	cl.CrashClient(a.ID())
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatalf("restart: %v", err)
	}
	tb, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var lost []string
	for _, obj := range objs {
		got, err := tb.Read(obj)
		if err != nil {
			t.Fatalf("read %v: %v", obj, err)
		}
		if !bytes.Equal(got, ref[obj]) {
			lost = append(lost, fmt.Sprintf("%v = %q, acknowledged %q", obj, got[:1], ref[obj][:1]))
		}
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(lost) > 0 {
		t.Fatalf("%d of %d acknowledged updates lost by the restart:\n%s", len(lost), len(objs), strings.Join(lost, "\n"))
	}
}

// TestClientCrashLateReclaimKeepsLog ends a transaction on the crashed
// engine the way one that passed its alive check just before the crash
// does: its end reclaims log space.  The crash emptied the tables that
// reclaim point is computed from, so the reclaim must not run — or it
// takes the whole log, and the restart silently loses a committed update.
func TestClientCrashLateReclaimKeepsLog(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 3}
	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('K')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	horizon := a.Log().Horizon()
	cl.CrashClient(a.ID())
	a.mu.Lock()
	a.reclaimLocked() // the late transaction end
	a.mu.Unlock()
	if h := a.Log().Horizon(); h != horizon {
		t.Fatalf("the crashed engine moved the reclaim horizon %v -> %v (end %v)", horizon, h, a.Log().End())
	}
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatalf("restart: %v", err)
	}
	tb, _ := b.Begin()
	got, err := tb.Read(obj)
	if err != nil || !bytes.Equal(got, val('K')) {
		t.Fatalf("after client recovery: %q err=%v", got, err)
	}
	tb.Commit()
}

func TestClientCrashActiveTxnRolledBack(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 2}
	orig, _ := cl.ReadObject(obj)

	// Committed base value, forced log.
	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('P')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = orig
	// Uncommitted overwrite; the log tail holding it must be forced so
	// recovery can see (and roll back) the in-flight transaction.
	txn2, _ := a.Begin()
	if err := txn2.Overwrite(obj, val('Q')); err != nil {
		t.Fatal(err)
	}
	if err := a.Log().ForceAll(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(a.ID())
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	got, err := tb.Read(obj)
	if err != nil || !bytes.Equal(got, val('P')) {
		t.Fatalf("uncommitted update survived: %q err=%v", got, err)
	}
	tb.Commit()
}

func TestClientCrashUnforcedTailLost(t *testing.T) {
	// An unforced (uncommitted, never-flushed) update simply vanishes
	// with the crash; recovery must not resurrect it and the old value
	// must remain.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 1}
	orig, _ := cl.ReadObject(obj)

	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('Z')); err != nil {
		t.Fatal(err)
	}
	// No commit, no force: the record is volatile.
	cl.CrashClient(a.ID())
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	got, err := tb.Read(obj)
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("lost-tail update visible: %q want %q err=%v", got, orig, err)
	}
	tb.Commit()
}

func TestClientCrashQueuedCallbacksDrainAfterRecovery(t *testing.T) {
	// While A is down, B's conflicting request is queued (§3.3), then
	// proceeds after A recovers.
	cfg := testConfig()
	cfg.LockTimeout = 10 * time.Second
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 0}

	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('u')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(a.ID())

	done := make(chan error, 1)
	go func() {
		tb, _ := b.Begin()
		if err := tb.Overwrite(obj, val('v')); err != nil {
			done <- err
			return
		}
		done <- tb.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("b proceeded against crashed holder: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("b after recovery: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("b never unblocked after recovery")
	}
}

func TestClientCrashRecoveryWithCheckpoint(t *testing.T) {
	// Updates before and after a fuzzy checkpoint must both survive.
	cl, ids, cs := seededCluster(t, testConfig(), 2, 1)
	a := cs[0]
	o1 := page.ObjectID{Page: ids[0], Slot: 0}
	o2 := page.ObjectID{Page: ids[1], Slot: 0}

	t1, _ := a.Begin()
	if err := t1.Overwrite(o1, val('1')); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	t2, _ := a.Begin()
	if err := t2.Overwrite(o2, val('2')); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(a.ID())
	a2, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := a2.Begin()
	g1, e1 := txn.Read(o1)
	g2, e2 := txn.Read(o2)
	if e1 != nil || e2 != nil || !bytes.Equal(g1, val('1')) || !bytes.Equal(g2, val('2')) {
		t.Fatalf("after ckpt recovery: %q %q (%v %v)", g1, g2, e1, e2)
	}
	txn.Commit()
}

// --- §3.4: server crash recovery ---

func TestServerCrashUpdatesOnlyInServerBuffer(t *testing.T) {
	// The committed update was shipped to the server (replacement) and
	// dropped from the client cache, but never forced to disk.  A server
	// crash loses it; §3.4 recovery reconstructs it from the client's
	// private log.
	cl, ids, cs := seededCluster(t, testConfig(), 2, 1)
	a := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 4}

	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('S')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatalf("server restart: %v", err)
	}
	got, err := cl.ReadObject(obj)
	if err != nil || !bytes.Equal(got, val('S')) {
		t.Fatalf("after server recovery: %q err=%v", got, err)
	}
}

func TestServerCrashCachedPagesRefetched(t *testing.T) {
	// The client still caches the dirty page: §3.4 step 4 pulls it
	// instead of running per-page recovery.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 1)
	a := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 5}
	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('T')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadObject(obj)
	if err != nil || !bytes.Equal(got, val('T')) {
		t.Fatalf("after server recovery: %q err=%v", got, err)
	}
	// And the client keeps working against the new server instance.
	txn2, _ := a.Begin()
	if err := txn2.Overwrite(obj, val('U')); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCrashMultiClientSamePageOrderPreserved(t *testing.T) {
	// A updates the object, B takes it over (callback log record) and
	// updates it again; both replace the page; the server crashes before
	// forcing it.  Recovery must end with B's (later) value.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	other := page.ObjectID{Page: ids[0], Slot: 1}

	ta, _ := a.Begin()
	if err := ta.Overwrite(obj, val('A')); err != nil {
		t.Fatal(err)
	}
	// Keep A interested in the page via another object so it retains a
	// lock (and its DPT entry matters).
	if err := ta.Overwrite(other, val('o')); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	if err := tb.Overwrite(obj, val('B')); err != nil { // callback: A ships
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	if b.Metrics.CallbackRecords.Load() == 0 {
		t.Fatal("no callback log record written for the takeover")
	}
	// Both drop the page so its latest state lives only at the server.
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadObject(obj)
	if err != nil || !bytes.Equal(got, val('B')) {
		t.Fatalf("cross-client order lost: %q err=%v", got, err)
	}
	gotOther, err := cl.ReadObject(other)
	if err != nil || !bytes.Equal(gotOther, val('o')) {
		t.Fatalf("a's other object lost: %q err=%v", gotOther, err)
	}
}

func TestServerCrashParallelPageRecovery(t *testing.T) {
	// Many clients, many pages, disjoint objects: all recoveries run in
	// parallel (§3.4 advantage 3) and every committed value survives.
	cl, ids, cs := seededCluster(t, testConfig(), 4, 4)
	for i, c := range cs {
		txn, _ := c.Begin()
		for _, pid := range ids {
			if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(i)}, val(byte('a'+i))); err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, pid := range ids {
			if err := c.ReplacePage(pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		for _, pid := range ids {
			got, err := cl.ReadObject(page.ObjectID{Page: pid, Slot: uint16(i)})
			if err != nil || !bytes.Equal(got, val(byte('a'+i))) {
				t.Fatalf("page %d slot %d: %q err=%v", pid, i, got, err)
			}
		}
	}
}

func TestServerCrashAfterForceUsesReplacementRecords(t *testing.T) {
	// The page was forced to disk (replacement record written), then
	// updated again by the client; Property 2 must let recovery redo
	// only the post-force updates.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 1)
	a := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 2}

	t1, _ := a.Begin()
	if err := t1.Overwrite(obj, val('1')); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Server().FlushAll(); err != nil { // forces + replacement record
		t.Fatal(err)
	}
	t2, _ := a.Begin()
	if err := t2.Overwrite(obj, val('2')); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadObject(obj)
	if err != nil || !bytes.Equal(got, val('2')) {
		t.Fatalf("post-force update lost: %q err=%v", got, err)
	}
	if cl.Server().Metrics.Replacements.Load() == 0 && cl.Server().Log().RecordsAppended() == 0 {
		t.Fatal("no replacement records were ever written")
	}
}

// --- §3.5: complex crashes ---

func TestComplexCrashServerAndClient(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 2, 2)
	a, b := cs[0], cs[1]
	objA := page.ObjectID{Page: ids[0], Slot: 0}
	objB := page.ObjectID{Page: ids[1], Slot: 0}

	ta, _ := a.Begin()
	if err := ta.Overwrite(objA, val('C')); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	if err := tb.Overwrite(objB, val('D')); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	// A's page reaches the server buffer only; B keeps its page cached.
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Server and A crash together.
	cl.CrashServer(a.ID())
	if err := cl.RestartServer(); err != nil {
		t.Fatalf("server restart: %v", err)
	}
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatalf("client restart: %v", err)
	}
	got, err := cl.ReadObject(objA)
	if err != nil || !bytes.Equal(got, val('C')) {
		t.Fatalf("a's committed update lost in complex crash: %q err=%v", got, err)
	}
	got, err = cl.ReadObject(objB)
	if err != nil || !bytes.Equal(got, val('D')) {
		// B's value may still be only in B's cache; pull it.
		if err := b.FlushCache(); err != nil {
			t.Fatal(err)
		}
		got, err = cl.ReadObject(objB)
		if err != nil || !bytes.Equal(got, val('D')) {
			t.Fatalf("b's committed update lost: %q err=%v", got, err)
		}
	}
}

// gateTap is a client's view of the server that numbers, in one
// atomic order, client b's lock requests returning and the RecoverEnd
// calls reaching the server, and notes whether the §3.5 gate still
// held a request when RecoverEnd reached it.
type gateTap struct {
	next msg.Caller
	ev   *gateEvents
}

type gateEvents struct {
	b            ident.ClientID
	srv          *Server
	order        atomic.Int64
	reached      chan struct{} // closed when b's first lock request is sent
	reachedOnce  sync.Once
	recEnd       atomic.Int64
	bDone        atomic.Int64
	heldAtRecEnd atomic.Bool
}

func (g gateTap) Call(m msg.Method, req any) (any, error) {
	switch {
	case m == msg.MRecoverEnd:
		g.ev.heldAtRecEnd.Store(gateHolds(g.ev.srv))
		g.ev.recEnd.Store(g.ev.order.Add(1))
	case m == msg.MLock && req.(msg.LockReq).Client == g.ev.b:
		g.ev.reachedOnce.Do(func() { close(g.ev.reached) })
		reply, err := g.next.Call(m, req)
		g.ev.bDone.Store(g.ev.order.Add(1))
		return reply, err
	}
	return g.next.Call(m, req)
}

// gateHolds reports whether a lock request waits in the §3.5 gate: a
// registration the next RecoverEnd has not ended yet.
func gateHolds(s *Server) bool {
	s.complexMu.Lock()
	defer s.complexMu.Unlock()
	return s.complexWait != (wake.List{})
}

// TestComplexCrashHoldsGrantsUntilRecoverEnd: after the server crashed
// together with client a (§3.5), client b's lock request waits at the
// server until a's restart recovery ends, and a's own recovery is not
// held: it reaches RecoverEnd while b's request still waits.
func TestComplexCrashHoldsGrantsUntilRecoverEnd(t *testing.T) {
	ev := &gateEvents{reached: make(chan struct{})}
	cl := NewCluster(testConfig())
	defer cl.Close()
	cl.WrapConns(func(_, _ int, conn msg.Server) msg.Server {
		return msg.ServerConn{Caller: gateTap{next: msg.ServerCaller(conn), ev: ev}}
	}, nil)
	ids, err := cl.SeedPages(2, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, writeTxn(a, 'A', page.ObjectID{Page: ids[0], Slot: 0}), "a's write")
	cl.CrashServer(a.ID())
	if err := cl.RestartServer(); err != nil {
		t.Fatalf("server restart: %v", err)
	}
	ev.b, ev.srv = b.ID(), cl.Server()
	done := writeTxn(b, 'B', page.ObjectID{Page: ids[1], Slot: 0})
	select {
	case <-ev.reached:
	case err := <-done:
		t.Fatalf("b's write sent no lock request: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("b's lock request never left")
	}
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for !gateHolds(ev.srv) {
		select {
		case err := <-done:
			t.Fatalf("b's lock was granted before a recovered: %v", err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("b's lock request never waited in the gate")
		}
		runtime.Gosched()
	}
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatalf("client restart: %v", err)
	}
	mustDone(t, done, "b's write")
	if !ev.heldAtRecEnd.Load() {
		t.Fatal("b's lock request no longer waited when a's RecoverEnd came: a's recovery was held")
	}
	if rec, got := ev.recEnd.Load(), ev.bDone.Load(); rec == 0 || got < rec {
		t.Fatalf("b's lock returned at event %d, a's RecoverEnd at %d: want the grant after", got, rec)
	}
}

// TestComplexCrashGateTimesOut: after the server crashed together with
// client a (§3.5), a stays down; client b's read of the object a's
// acknowledged commit wrote fails with lock.ErrTimeout at LockTimeout,
// where a grant would have shown b the seeded value.  Once a recovers,
// b reads a's commit.
func TestComplexCrashGateTimesOut(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 100 * time.Millisecond
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	defer cl.Close()
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	mustDone(t, writeTxn(a, 'A', obj), "a's write")
	cl.CrashServer(a.ID())
	if err := cl.RestartServer(); err != nil {
		t.Fatalf("server restart: %v", err)
	}
	tb, _ := b.Begin()
	if got, err := tb.Read(obj); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("b's read while a is down: %q, %v; want lock.ErrTimeout", got, err)
	}
	tb.Abort()
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatalf("client restart: %v", err)
	}
	if got := readObj(t, b, obj); !bytes.Equal(got, val('A')) {
		t.Fatalf("b read %q after a recovered, want a's commit", got)
	}
}

// TestRecoveryWaitReached: the §3.4 step-3 forwarding waits until the
// page's recovery has passed the asked PSN, not at progress short of
// it, and ends at its deadline when the recovery never gets there.
func TestRecoveryWaitReached(t *testing.T) {
	var r recoveryState
	const pid = page.ID(7)
	r.begin(pid, page.New(pid, 1024))
	registered := func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.waiters != (wake.List{})
	}
	done := make(chan struct{})
	go func() {
		r.waitReached(pid, 10, time.Now().Add(time.Hour))
		close(done)
	}()
	awaitRegistered := func(what string) {
		t.Helper()
		guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
		for !registered() {
			select {
			case <-done:
				t.Fatalf("the wait ended %s", what)
			default:
			}
			if time.Now().After(guard) {
				t.Fatalf("the wait never registered %s", what)
			}
			runtime.Gosched()
		}
	}
	awaitRegistered("before any progress")
	r.progress(pid, 5)
	awaitRegistered("at PSN 5 of 10")
	r.progress(pid, 10)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the wait outlived the recovery reaching its PSN")
	}
	// The deadline ends a wait the recovery never satisfies.
	r.waitReached(pid, 20, time.Now().Add(time.Millisecond))
}

func TestComplexCrashUncommittedRolledBack(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 1, 1)
	a := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 3}
	orig, _ := cl.ReadObject(obj)

	txn, _ := a.Begin()
	if err := txn.Overwrite(obj, val('X')); err != nil {
		t.Fatal(err)
	}
	if err := a.Log().ForceAll(); err != nil { // tail survives; txn uncommitted
		t.Fatal(err)
	}
	if err := a.ReplacePage(ids[0]); err != nil { // dirty page at server only
		t.Fatal(err)
	}
	cl.CrashServer(a.ID())
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadObject(obj)
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("uncommitted update visible after complex crash: %q want %q err=%v", got, orig, err)
	}
}

func TestComplexCrashAllClientsAndServer(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 2, 2)
	a, b := cs[0], cs[1]
	objA := page.ObjectID{Page: ids[0], Slot: 0}
	objB := page.ObjectID{Page: ids[1], Slot: 1}

	ta, _ := a.Begin()
	if err := ta.Overwrite(objA, val('E')); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	if err := tb.Overwrite(objB, val('F')); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer(a.ID(), b.ID())
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RestartClient(b.ID()); err != nil {
		t.Fatal(err)
	}
	gA, eA := cl.ReadObject(objA)
	gB, eB := cl.ReadObject(objB)
	if eA != nil || !bytes.Equal(gA, val('E')) {
		t.Fatalf("a's update after total crash: %q err=%v", gA, eA)
	}
	if eB != nil || !bytes.Equal(gB, val('F')) {
		t.Fatalf("b's update after total crash: %q err=%v", gB, eB)
	}
}

// --- §3.6: log space management ---

func TestBoundedLogTriggersForceRequests(t *testing.T) {
	cfg := testConfig()
	cfg.ClientLogCapacity = 4 * 1024 // tiny private log
	cl, ids, cs := seededCluster(t, cfg, 4, 1)
	a := cs[0]
	// Enough update volume to wrap the 4KiB log several times.
	const rounds = 200
	for round := 0; round < rounds; round++ {
		txn, _ := a.Begin()
		pid := ids[round%len(ids)]
		if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(round % 8)}, val(byte(round))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d commit: %v", round, err)
		}
	}
	if a.Metrics.LogFullEvents.Load() == 0 {
		t.Fatal("log never filled; capacity not exercised")
	}
	if n := a.log.BytesAppended(); n < 3*cfg.ClientLogCapacity {
		t.Fatalf("%d bytes appended: the %d-byte log did not wrap three times", n, cfg.ClientLogCapacity)
	}
	if a.Metrics.ForceRequests.Load() == 0 {
		t.Fatal("no §3.6 force-page requests issued")
	}
	// Data integrity: last value of each touched slot is correct.
	const last = rounds - 1
	got, err := cl.ReadObject(page.ObjectID{Page: ids[last%len(ids)], Slot: uint16(last % 8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FlushCache(); err != nil {
		t.Fatal(err)
	}
	got, err = cl.ReadObject(page.ObjectID{Page: ids[last%len(ids)], Slot: uint16(last % 8)})
	if err != nil || !bytes.Equal(got, val(last)) {
		t.Fatalf("final value %q err=%v", got, err)
	}
}

func TestBoundedLogCrashRecoveryStillWorks(t *testing.T) {
	// After heavy reuse of a bounded log, a crash must still recover
	// (the reclaim horizon never passes the min RedoLSN).
	cfg := testConfig()
	cfg.ClientLogCapacity = 8 * 1024
	cl, ids, cs := seededCluster(t, cfg, 2, 1)
	a := cs[0]
	const rounds = 400
	for round := 0; round < rounds; round++ {
		txn, _ := a.Begin()
		if err := txn.Overwrite(page.ObjectID{Page: ids[round%2], Slot: 0}, val(byte(round))); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Metrics.LogFullEvents.Load() == 0 {
		t.Fatal("log never filled; capacity not exercised")
	}
	if n := a.log.BytesAppended(); n < 3*cfg.ClientLogCapacity {
		t.Fatalf("%d bytes appended: the %d-byte log did not wrap three times", n, cfg.ClientLogCapacity)
	}
	cl.CrashClient(a.ID())
	a2, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatalf("restart after log wrap: %v", err)
	}
	// Client recovery leaves the recovered updates dirty in the client
	// cache (nothing ships at recovery end, per the protocol); read
	// through the client.
	txn, _ := a2.Begin()
	last := rounds - 1
	got, err := txn.Read(page.ObjectID{Page: ids[last%2], Slot: 0})
	if err != nil || !bytes.Equal(got, val(byte(last))) {
		t.Fatalf("value after bounded-log recovery: %q err=%v", got, err)
	}
	txn.Commit()
}
