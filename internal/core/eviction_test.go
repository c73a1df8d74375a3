package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientlog/internal/fault"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wake"
	"clientlog/internal/wal"
)

// evictionCluster is a two-client cluster under adaptive locking whose
// clients cache two pages each, so reading two other pages evicts a
// page; the test may wrap the conns before the clients join.
func evictionCluster(t *testing.T, sw func(part, n int, conn msg.Server) msg.Server, cw func(id ident.ClientID, conn msg.Client) msg.Client) (*Cluster, []page.ID, *Client, *Client) {
	t.Helper()
	cfg := testConfig()
	cfg.ClientPool = 2
	cl := NewCluster(cfg)
	cl.WrapConns(sw, cw)
	ids, err := cl.SeedPages(4, 8, 16)
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
	if a.ID() != 1 || b.ID() != 2 {
		t.Fatalf("clients are %v, %v; the wrappers expect 1 and 2", a.ID(), b.ID())
	}
	return cl, ids, a, b
}

// readPages runs one transaction reading slot 0 of each page, which
// evicts the client's least recently used pages.
func readPages(c *Client, pids ...page.ID) chan error {
	done := make(chan error, 1)
	go func() {
		txn, err := c.Begin()
		for _, pid := range pids {
			if err == nil {
				_, err = txn.Read(page.ObjectID{Page: pid, Slot: 0})
			}
		}
		if err == nil {
			err = txn.Commit()
		} else if txn != nil {
			txn.Abort()
		}
		done <- err
	}()
	return done
}

// readObj reads one object in a transaction of its own.
func readObj(t *testing.T, c *Client, o page.ObjectID) []byte {
	t.Helper()
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	v, err := txn.Read(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return v
}

// callbackRecords returns the callback log records in c's private log.
func callbackRecords(t *testing.T, c *Client) []wal.Callback {
	t.Helper()
	var out []wal.Callback
	sc := c.Log().Scan(c.Log().Horizon())
	for sc.Next() {
		if cb, ok := sc.Record().(*wal.Callback); ok {
			out = append(out, *cb)
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return out
}

// TestEvictionReleasesIdleLocks: a page A held X on leaves A's cache
// with its locks, so B's exclusive grant needs no callback — and B still
// writes the callback record the callback would have produced: object,
// responder A, and A's DCT PSN for the page.
func TestEvictionReleasesIdleLocks(t *testing.T) {
	cl, ids, a, b := evictionCluster(t, nil, nil)
	srv := cl.Server()
	o := page.ObjectID{Page: ids[0], Slot: 4}
	mustDone(t, writeTxn(a, 'a', o), "A's write")
	if m := a.LLM().CachedMode(lock.PageName(ids[0])); m != lock.X {
		t.Fatalf("A caches the page in %v, want X", m)
	}
	mustDone(t, readPages(a, ids[1], ids[2]), "A's reads")
	if a.LLM().HoldsAnyOnPage(ids[0]) {
		t.Fatal("A still caches a lock on the page it evicted")
	}
	for _, h := range srv.GLM().HeldBy(a.ID()) {
		if h.Name.Page == ids[0] {
			t.Fatalf("the GLM still holds %v %v for A", h.Name, h.Mode)
		}
	}
	psn, ok := srv.DCTPSN(ids[0], a.ID())
	if !ok || psn == 0 {
		t.Fatalf("A's DCT row for the page: psn %d, present %v", psn, ok)
	}
	sent, deesc := srv.Metrics.CallbacksSent.Load(), srv.Metrics.Deescalations.Load()
	txn, _ := b.Begin()
	if err := overwriteNow(txn, o, val('b')); err != nil {
		t.Fatal(err)
	}
	if s, d := srv.Metrics.CallbacksSent.Load(), srv.Metrics.Deescalations.Load(); s != sent || d != deesc {
		t.Fatalf("B's grant sent %d callbacks and %d de-escalations, want none", s-sent, d-deesc)
	}
	// Read before the commit: the record precedes the page's RedoLSN, so
	// the commit's reclaim may take it.
	want := wal.Callback{Object: o, Responder: a.ID(), PSN: psn}
	if got := callbackRecords(t, b); len(got) != 1 || got[0] != want {
		t.Fatalf("B's callback records %+v, want exactly %+v", got, want)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := readObj(t, a, o); !bytes.Equal(v, val('b')) {
		t.Fatalf("A read %q, want B's write", v)
	}
}

// TestEvictionKeepsBusyLocks: an evicted page keeps its locks while a
// transaction uses one, while a lock request for the page is in flight,
// and through restart recovery, whose redo pass tests the retained
// exclusive locks.
func TestEvictionKeepsBusyLocks(t *testing.T) {
	t.Run("in use", func(t *testing.T) {
		cl, ids, a, _ := evictionCluster(t, nil, nil)
		txn, _ := a.Begin()
		if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 4}, val('a')); err != nil {
			t.Fatal(err)
		}
		for _, pid := range ids[1:3] {
			if _, err := txn.Read(page.ObjectID{Page: pid, Slot: 0}); err != nil {
				t.Fatal(err)
			}
		}
		if caches(a, ids[0]) {
			t.Fatal("the page was not evicted")
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if m, g := a.LLM().CachedMode(lock.PageName(ids[0])), cl.Server().GLM().Holding(a.ID(), lock.PageName(ids[0])); m != lock.X || g != lock.X {
			t.Fatalf("A caches %v and the GLM holds %v, want X and X", m, g)
		}
	})

	t.Run("grant in flight", func(t *testing.T) {
		var grant *park
		var ids []page.ID
		cl, ids, a, _ := evictionCluster(t,
			func(_, n int, conn msg.Server) msg.Server {
				if n != 1 {
					return conn
				}
				grant = newPark(msg.ServerCaller(conn), msg.MLock) // held before the GLM sees it
				grant.match = func(req any) bool {
					r := req.(msg.LockReq)
					return r.Name.Page == ids[0] && r.Mode == lock.X
				}
				return msg.ServerConn{Caller: grant}
			}, nil)
		o := page.ObjectID{Page: ids[0], Slot: 4}
		readObj(t, a, o)
		if m := a.LLM().CachedMode(lock.PageName(ids[0])); m != lock.S {
			t.Fatalf("A caches the page in %v, want S", m)
		}
		w := writeTxn(a, 'a', o)
		waitFor(t, w, grant, "A's upgrade")
		mustDone(t, writeTxn(a, '1', page.ObjectID{Page: ids[1], Slot: 4}), "A's write elsewhere")
		// The first read's lock request evicts the page, whose locks stay
		// cached, and the second's carries the dirty one and its releases,
		// all while the upgrade is out.
		mustDone(t, readPages(a, ids[2], ids[3]), "A's reads")
		if caches(a, ids[0]) {
			t.Fatal("the page was not evicted")
		}
		if m := a.LLM().CachedMode(lock.PageName(ids[0])); m != lock.S {
			t.Fatalf("A caches the page in %v with its upgrade in flight, want S", m)
		}
		close(grant.release)
		mustDone(t, w, "A's write")
		for _, h := range a.LLM().CachedLocks() {
			if g := cl.Server().GLM().Holding(a.ID(), h.Name); h.Name.Page == ids[0] && g != h.Mode {
				t.Fatalf("A caches %v %v, the GLM holds %v", h.Name, h.Mode, g)
			}
		}
	})

	t.Run("recovering", func(t *testing.T) {
		cl, ids, a, _ := evictionCluster(t, nil, nil)
		objs := []page.ObjectID{{Page: ids[0], Slot: 4}, {Page: ids[1], Slot: 4}, {Page: ids[2], Slot: 4}}
		mustDone(t, writeTxn(a, 'a', objs[0]), "A's first write")
		mustDone(t, writeTxn(a, 'a', objs[1]), "A's second write")
		readObj(t, a, objs[0])                                    // the second page is now the oldest
		mustDone(t, writeTxn(a, 'a', objs[2]), "A's third write") // ships the second page
		cl.CrashClient(a.ID())
		// Redo fetches the three pages in log order into a pool of two:
		// the third evicts the first, which redo has dirtied, and its ship
		// must not release the lock redo tests.
		a2, err := cl.RestartClient(a.ID())
		if err != nil {
			t.Fatal(err)
		}
		if a2.Metrics.PagesShipped.Load() == 0 {
			t.Fatal("recovery shipped no page: the case is not exercised")
		}
		for _, o := range []page.ObjectID{objs[0], objs[2]} {
			name := lock.PageName(o.Page)
			if m, g := a2.LLM().CachedMode(name), cl.Server().GLM().Holding(a2.ID(), name); m != lock.X || g != lock.X {
				t.Fatalf("page %d after restart: A caches %v and the GLM holds %v, want X and X", o.Page, m, g)
			}
			if got := readObj(t, a2, o); !bytes.Equal(got, val('a')) {
				t.Fatalf("A read %v as %q after restart, want its write", o, got)
			}
		}
	})
}

// carries reports whether a lock request carries a release of a lock
// on page pid.
func carries(req any, pid page.ID) bool {
	var c *msg.Carry
	switch r := req.(type) {
	case msg.LockReq:
		c = r.Carry
	case msg.LockBatchReq:
		c = r.Carry
	}
	return c != nil && slices.ContainsFunc(c.Releases, func(n lock.Name) bool { return n.Page == pid })
}

// TestReleaseCannotOvertakeRegrant: A evicts a clean page, and its
// release rides the lock request of the page that evicted it, parked
// before the server sees it, while A asks for the first page again.
// The request must wait for the carrier: granted first — the GLM still
// holds A's lock — it would be taken back by the release, and B would
// read the object without calling A back.
func TestReleaseCannotOvertakeRegrant(t *testing.T) {
	var carrier *park
	var ids []page.ID
	_, ids, a, b := evictionCluster(t,
		func(_, n int, conn msg.Server) msg.Server {
			if n != 1 {
				return conn
			}
			carrier = newPark(msg.ServerCaller(conn), msg.MLock)
			carrier.match = func(req any) bool { return carries(req, ids[0]) }
			return msg.ServerConn{Caller: carrier}
		}, nil)
	o := page.ObjectID{Page: ids[0], Slot: 4}
	readObj(t, a, o)
	mustDone(t, writeTxn(a, '1', page.ObjectID{Page: ids[1], Slot: 4}), "A's write elsewhere")
	evicted := readPages(a, ids[2]) // evicts the clean page; its release rides the lock request
	waitFor(t, evicted, carrier, "A's release")
	again := writeTxn(a, '2', o)
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for ; !a.LLM().Requested(lock.ObjName(o), lock.X); runtime.Gosched() {
		select {
		case err := <-again:
			t.Fatalf("A's write finished before its release landed: %v", err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("A's write never asked for its lock")
		}
	}
	close(carrier.release)
	mustDone(t, evicted, "A's read evicting the clean page")
	mustDone(t, again, "A's write")
	if v := readObj(t, b, o); !bytes.Equal(v, val('2')) {
		t.Fatalf("B read %q, want A's write", v)
	}
}

// TestEvictionReleaseServerCrash: A writes two objects and evicts the
// page, releasing its locks; B then updates one of them, its callback
// record coming from the origin the server kept.  After one or two
// server crashes and §3.4 restarts the database reads back as the
// replay of the committed transactions: B's write where B wrote, A's
// elsewhere — whether B still caches the page (its callback list then
// bounds A's redo) or evicted it too (its redo then fetches the page as
// of A's PSN).
func TestEvictionReleaseServerCrash(t *testing.T) {
	for _, crashes := range []int{1, 2} {
		for _, bEvicts := range []bool{false, true} {
			t.Run(fmt.Sprintf("crashes=%d,bEvicts=%v", crashes, bEvicts), func(t *testing.T) {
				cl, ids, a, b := evictionCluster(t, nil, nil)
				o1 := page.ObjectID{Page: ids[0], Slot: 4}
				o2 := page.ObjectID{Page: ids[0], Slot: 5}
				mustDone(t, writeTxn(a, 'a', o1, o2), "A's write")
				mustDone(t, readPages(a, ids[1], ids[2]), "A's reads")
				mustDone(t, writeTxn(b, 'b', o1), "B's write")
				if n := b.Metrics.CallbackRecords.Load(); n != 2 { // its page grant covers both
					t.Fatalf("B wrote %d callback records, want 2", n)
				}
				if bEvicts {
					mustDone(t, readPages(b, ids[2], ids[3]), "B's reads")
				}
				for i := 0; i < crashes; i++ {
					cl.CrashServer()
					if err := cl.RestartServer(); err != nil {
						t.Fatalf("restart %d: %v", i+1, err)
					}
				}
				want := map[page.ObjectID][]byte{o1: val('b'), o2: val('a')}
				for o, v := range want {
					if got, err := cl.ReadObject(o); err != nil || !bytes.Equal(got, v) {
						t.Fatalf("server copy of %v: %q (%v), want %q", o, got, err, v)
					}
					if got := readObj(t, a, o); !bytes.Equal(got, v) {
						t.Fatalf("A read %v as %q, want %q", o, got, v)
					}
				}
			})
		}
	}
}

// TestEvictionRefetchKeepsOrigins: A writes o1 under its page X lock, a
// forced ship cleans the page, and A's new page evicts it outside a
// lock request — its locks wait in the queue, still cached at both ends
// — then re-reads o3 on the page before any lock request or ship takes
// the queue.  The page is back, so the next carrier releases nothing of
// it, and B's write of o1 reaches A through de-escalation and an object
// callback: B logs {o1, A, A's DCT PSN}.
func TestEvictionRefetchKeepsOrigins(t *testing.T) {
	cl, ids, a, b := evictionCluster(t, nil, nil)
	srv := cl.Server()
	o1 := page.ObjectID{Page: ids[0], Slot: 4}
	mustDone(t, writeTxn(a, 'a', o1), "A's write")
	if err := a.FlushCache(); err != nil {
		t.Fatal(err)
	}
	mustDone(t, readPages(a, ids[1]), "A's read")
	txn, _ := a.Begin()
	if _, err := txn.AllocPage(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	queued := slices.Contains(a.relq, ids[0])
	a.mu.Unlock()
	if !queued {
		t.Fatal("the clean page is not queued for release")
	}
	readObj(t, a, page.ObjectID{Page: ids[0], Slot: 6})
	mustDone(t, writeTxn(a, '1', page.ObjectID{Page: ids[2], Slot: 4}), "A's write elsewhere") // a carrier the queue rides
	name := lock.PageName(ids[0])
	if m, g := a.LLM().CachedMode(name), srv.GLM().Holding(a.ID(), name); m != lock.X || g != lock.X {
		t.Fatalf("A caches the page in %v and the GLM holds %v, want X and X", m, g)
	}
	psn, ok := srv.DCTPSN(ids[0], a.ID())
	if !ok || psn == 0 {
		t.Fatalf("A's DCT row for the page: psn %d, present %v", psn, ok)
	}
	txn, _ = b.Begin()
	if err := overwriteNow(txn, o1, val('b')); err != nil {
		t.Fatal(err)
	}
	want := wal.Callback{Object: o1, Responder: a.ID(), PSN: psn}
	if got := callbackRecords(t, b); !slices.Contains(got, want) {
		t.Fatalf("B's callback records %+v, want one %+v", got, want)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionReleaseBeforeDeescalation: A's release of a page it held X
// on travels, with the evicted dirty page, in the lock request of the
// page that evicted it, parked before the server sees it, when B's
// write de-escalates A's page lock.  A has dropped the lock already,
// and its answer must not be applied before the release has landed: the
// GLM would then drop the page lock with no object lock behind it, and
// the release would find nothing to keep an origin for.  A answers at
// once, naming the carrier; the server waits for it, the release lands,
// and B logs {o1, A, A's DCT PSN}.
func TestEvictionReleaseBeforeDeescalation(t *testing.T) {
	var carrier *park
	var ids []page.ID
	cl, ids, a, b := evictionCluster(t,
		func(_, n int, conn msg.Server) msg.Server {
			if n != 1 {
				return conn
			}
			carrier = newPark(msg.ServerCaller(conn), msg.MLock)
			carrier.match = func(req any) bool { return carries(req, ids[0]) }
			return msg.ServerConn{Caller: carrier}
		}, nil)
	srv := cl.Server()
	o1 := page.ObjectID{Page: ids[0], Slot: 4}
	mustDone(t, writeTxn(a, 'a', o1), "A's write")
	evicted := readPages(a, ids[1], ids[2])
	waitFor(t, evicted, carrier, "A's release")
	if a.LLM().HoldsAnyOnPage(ids[0]) {
		t.Fatal("A still caches a lock on the page it evicted")
	}
	type result struct {
		recs []wal.Callback
		err  error
	}
	done := make(chan result, 1)
	go func() {
		txn, _ := b.Begin()
		err := overwriteNow(txn, o1, val('b'))
		recs := callbackRecords(t, b) // before the commit may reclaim them
		if err == nil {
			err = txn.Commit()
		}
		done <- result{recs, err}
	}()
	// The de-escalation's answer waits at the server for the carrier.  An
	// answer applied at once would have let B finish.
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for srv.Metrics.CarryWaits.Load() == 0 {
		select {
		case r := <-done:
			t.Fatalf("B's write finished before A's release landed: %v", r.err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("no de-escalation answer waiting for the carrier after 10s")
		}
		runtime.Gosched()
	}
	select {
	case r := <-done:
		t.Fatalf("B's write finished before A's release landed: %v", r.err)
	default:
	}
	close(carrier.release)
	mustDone(t, evicted, "A's reads")
	psn, ok := srv.DCTPSN(ids[0], a.ID())
	if !ok || psn == 0 {
		t.Fatalf("A's DCT row for the page: psn %d, present %v", psn, ok)
	}
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("B's write still running after 10s")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if want := (wal.Callback{Object: o1, Responder: a.ID(), PSN: psn}); !slices.Contains(r.recs, want) {
		t.Fatalf("B's callback records %+v, want one %+v", r.recs, want)
	}
}

// TestEvictionReleasesAcrossPartitions: in a three-partition fleet each
// lock request that makes room carries the evicted page and the
// releases of its locks, whichever partition owns it; the router sends
// each owner its own share, so no partition
// keeps a lock the client dropped and none needs a callback for B's
// writes, while B still gets an origin for each object.
func TestEvictionReleasesAcrossPartitions(t *testing.T) {
	cfg := fleetConfig()
	cfg.ClientPool = 2
	cl := NewCluster(cfg)
	defer cl.Close()
	ids, err := cl.SeedPages(5, 8, 16) // owners 0, 1, 2, 0, 1
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
	objs := []page.ObjectID{{Page: ids[0], Slot: 4}, {Page: ids[1], Slot: 4}, {Page: ids[2], Slot: 4}}
	readObj(t, a, objs[0])
	readObj(t, a, objs[1])
	mustDone(t, writeTxn(a, 'a', objs[2]), "A's write") // evicts page 0, clean
	readObj(t, a, page.ObjectID{Page: ids[3], Slot: 0}) // evicts page 1, clean
	readObj(t, a, page.ObjectID{Page: ids[4], Slot: 0}) // evicts page 2, dirty
	var sent uint64
	for _, s := range cl.Servers() {
		for _, h := range s.GLM().HeldBy(a.ID()) {
			if h.Name.Page == ids[0] || h.Name.Page == ids[1] || h.Name.Page == ids[2] {
				t.Fatalf("partition %d still holds %v %v for A", s.Partition(), h.Name, h.Mode)
			}
		}
		sent += s.Metrics.CallbacksSent.Load() + s.Metrics.Deescalations.Load()
	}
	mustDone(t, writeTxn(b, 'b', objs...), "B's write")
	for _, s := range cl.Servers() {
		sent -= s.Metrics.CallbacksSent.Load() + s.Metrics.Deescalations.Load()
	}
	if sent != 0 {
		t.Fatalf("B's writes needed %d callbacks", -int64(sent))
	}
	if n := b.Metrics.CallbackRecords.Load(); n != 3 {
		t.Fatalf("B wrote %d callback records, want 3", n)
	}
	for _, o := range objs {
		if v := readObj(t, a, o); !bytes.Equal(v, val('b')) {
			t.Fatalf("A read %v as %q, want B's write", o, v)
		}
	}
}

// TestCarriedReleaseNoSpuriousDeadlock: A's lock request for an object
// B's open transaction wrote carries A's evicted dirty page V and the
// release of A's page lock on it; it is parked until B's next write,
// on V, has de-escalated A.  A's answer names the carrier.  Waiting at
// A for the request's reply would close a cycle the waits-for graph
// sees only half of — the request waits in the GLM behind B, B for A's
// answer — so the server waits instead, for the carried items alone,
// which land before the request waits for B.  Both commit, with no
// deadlock victim and no timeout.
func TestCarriedReleaseNoSpuriousDeadlock(t *testing.T) {
	var carrier *park
	var ids []page.ID
	cl, ids, a, b := evictionCluster(t,
		func(_, n int, conn msg.Server) msg.Server {
			if n != 1 {
				return conn
			}
			carrier = newPark(msg.ServerCaller(conn), msg.MLock)
			carrier.match = func(req any) bool { return carries(req, ids[0]) }
			return msg.ServerConn{Caller: carrier}
		}, nil)
	srv := cl.Server()
	v := page.ObjectID{Page: ids[0], Slot: 4}
	o := page.ObjectID{Page: ids[2], Slot: 4}
	mustDone(t, writeTxn(a, 'a', v), "A's write of V")
	mustDone(t, readPages(a, ids[1]), "A's read filling its cache")
	tb, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := overwriteNow(tb, o, val('b')); err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte, 1)
	readErr := make(chan error, 1)
	go func() {
		ta, err := a.Begin()
		var got []byte
		if err == nil {
			if got, err = ta.Read(o); err == nil {
				err = ta.Commit()
			} else {
				ta.Abort()
			}
		}
		read <- got
		readErr <- err
	}()
	waitFor(t, readErr, carrier, "A's carrying lock request")
	wrote := make(chan error, 1)
	go func() {
		err := tb.Overwrite(v, val('B'))
		if err == nil {
			err = tb.Commit()
		} else {
			tb.Abort()
		}
		wrote <- err
	}()
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for srv.Metrics.CarryWaits.Load() == 0 {
		select {
		case err := <-wrote:
			t.Fatalf("B's write of V finished before A's release landed: %v", err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("no callback answer waiting for the carrier after 10s")
		}
		runtime.Gosched()
	}
	close(carrier.release)
	mustDone(t, wrote, "B's transaction")
	mustDone(t, readErr, "A's read")
	if got := <-read; !bytes.Equal(got, val('b')) {
		t.Fatalf("A read %q, want B's committed write", got)
	}
	if d, to := srv.GLM().Metrics.Deadlocks.Load(), srv.GLM().Metrics.Timeouts.Load(); d != 0 || to != 0 {
		t.Fatalf("%d deadlock victims and %d timeouts, want none", d, to)
	}
	if got := readObj(t, a, v); !bytes.Equal(got, val('B')) {
		t.Fatalf("A read V as %q, want B's write", got)
	}
}

// TestRetransmittedCarrierMergesOnce: every request A sends arrives
// twice, after a stale copy of the one before it, as a lossy network
// may deliver it.  The lock request that carries A's evicted dirty page
// executes once — the reply cache answers the copies — so the server
// merges the page once and A counts one page shipped.
func TestRetransmittedCarrierMergesOnce(t *testing.T) {
	dedup := msg.NewReplyCache(0)
	cl, ids, a, b := evictionCluster(t,
		func(_, n int, conn msg.Server) msg.Server {
			if n != 1 {
				return conn
			}
			inj := fault.New(1, fault.Plan{DupProb: 1, ReplayProb: 1})
			return msg.ServerConn{Caller: msg.NewFaulty(msg.ServerCaller(conn), inj, dedup, "a", msg.DefaultRetry())}
		}, nil)
	srv := cl.Server()
	mustDone(t, writeTxn(a, 'a', page.ObjectID{Page: ids[0], Slot: 4}), "A's write")
	merges, shipped := srv.Metrics.Merges.Load(), a.Metrics.PagesShipped.Load()
	mustDone(t, readPages(a, ids[1], ids[2]), "A's reads, the second evicting the dirty page")
	if d := srv.Metrics.Merges.Load() - merges; d != 1 {
		t.Fatalf("the server merged %d pages, want the carried one once", d)
	}
	if d := a.Metrics.PagesShipped.Load() - shipped; d != 1 {
		t.Fatalf("A counts %d pages shipped, want 1", d)
	}
	if dedup.Suppressed.Load() == 0 {
		t.Fatal("no copy reached the reply cache: the case is not exercised")
	}
	if got := readObj(t, b, page.ObjectID{Page: ids[0], Slot: 4}); !bytes.Equal(got, val('a')) {
		t.Fatalf("B read %q, want A's write", got)
	}
}

// readFailingStore is a server page store whose Read of page fail (0:
// none) fails.
type readFailingStore struct {
	*storage.MemStore
	fail atomic.Uint64
}

var errReadFailed = errors.New("page read failed")

func (s *readFailingStore) Read(id page.ID) (*page.Page, error) {
	if uint64(id) == s.fail.Load() {
		return nil, errReadFailed
	}
	return s.MemStore.Read(id)
}

// holdsOn reports whether srv's GLM holds any lock on pid for c.
func holdsOn(srv *Server, c ident.ClientID, pid page.ID) bool {
	return slices.ContainsFunc(srv.GLM().HeldBy(c), func(h lock.Holding) bool { return h.Name.Page == pid })
}

// TestCarriedMergeFailureKeepsRequest: the server cannot read the disk
// copy of A's evicted dirty page, so the image the lock request carries
// does not merge.  As after a ship whose merge failed, the request goes
// on: A's read is granted, the releases of the page's locks, which A
// dropped with the page, are applied, and the failure is counted.
func TestCarriedMergeFailureKeepsRequest(t *testing.T) {
	cfg := testConfig()
	cfg.ClientPool = 2
	store := &readFailingStore{MemStore: storage.NewMemStore(cfg.PageSize)}
	cl := NewClusterWithStores(cfg, store, memLogStore(cfg, 0))
	defer cl.Close()
	ids, err := cl.SeedPages(3, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	srv := cl.Server()
	mustDone(t, writeTxn(a, 'a', page.ObjectID{Page: ids[0], Slot: 4}), "A's write")
	dropServerCopy(srv, ids[0]) // clean at the server: the merge must read the disk copy
	store.fail.Store(uint64(ids[0]))
	mustDone(t, readPages(a, ids[1], ids[2]), "A's reads, the second carrying the dirty page")
	if n := srv.Metrics.CarryFailures.Load(); n != 1 {
		t.Fatalf("%d carried merges counted failed, want 1", n)
	}
	if holdsOn(srv, a.ID(), ids[0]) {
		t.Fatal("the GLM still holds a lock A dropped with its evicted page")
	}
}

// TestCarriedMergeFailureAcrossPartitions: a read batch of two pages
// evicts two of A's, each owned by another partition than the pages
// asked for, so the router sends both shares of the carrier ahead.  The
// first share fails, at the merge (the owner cannot read the page's
// disk copy) or at the transport; the second share and the batch still
// go, so the second partition applies its release and A's reads are
// granted.
func TestCarriedMergeFailureAcrossPartitions(t *testing.T) {
	for _, at := range []string{"merge", "transport"} {
		t.Run(at, func(t *testing.T) {
			cfg := fleetConfig()
			cfg.ClientPool = 2
			store := &readFailingStore{MemStore: storage.NewMemStore(cfg.PageSize)}
			cl := NewClusterWithStores(cfg, store, memLogStore(cfg, 0))
			defer cl.Close()
			var refused atomic.Int64
			if at == "transport" {
				cl.WrapConns(func(part, n int, conn msg.Server) msg.Server {
					if part != 0 || n != 1 {
						return conn
					}
					return msg.ServerConn{Caller: refuseShares{msg.ServerCaller(conn), &refused}}
				}, nil)
			}
			ids, err := cl.SeedPages(4, 8, 16) // owners 0, 1, 2, 0
			if err != nil {
				t.Fatal(err)
			}
			a, err := cl.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			p0, p1 := cl.PartServer(0), cl.PartServer(1)
			mustDone(t, writeTxn(a, 'a', page.ObjectID{Page: ids[0], Slot: 4}), "A's write")
			mustDone(t, readPages(a, ids[1]), "A's read filling its cache")
			dropServerCopy(p0, ids[0])
			store.fail.Store(uint64(ids[0]))
			tx, err := a.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.ReadMany([]page.ObjectID{{Page: ids[2], Slot: 0}, {Page: ids[3], Slot: 0}}); err != nil {
				t.Fatalf("A's read batch: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			switch at {
			case "merge":
				if n := p0.Metrics.CarryFailures.Load(); n != 1 {
					t.Fatalf("partition 0 counted %d failed carried merges, want 1", n)
				}
				if holdsOn(p0, a.ID(), ids[0]) {
					t.Fatal("partition 0 still holds a lock A dropped with its evicted page")
				}
			case "transport":
				if refused.Load() != 1 {
					t.Fatalf("%d shares refused, want 1", refused.Load())
				}
			}
			if holdsOn(p1, a.ID(), ids[1]) {
				t.Fatal("partition 1 still holds a lock A dropped with its evicted page")
			}
		})
	}
}

// refuseShares fails every ship (a carrier's share sent ahead) at the
// transport, counting them.
type refuseShares struct {
	next msg.Caller
	n    *atomic.Int64
}

func (r refuseShares) Call(m msg.Method, body any) (any, error) {
	if m == msg.MShip {
		r.n.Add(1)
		return nil, errors.New("share refused")
	}
	return r.next.Call(m, body)
}

// landingWaits reports whether a message waits in the shard for a
// landing: a registration the next broadcast has not ended yet.
func landingWaits(sh *pageShard) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.landing != (wake.List{})
}

// TestCarrierMarksEndWithIncarnation: the server forgets a client's
// carrier marks when the client crashes, ending the conversations that
// wait for one, and marks none while it holds the client crashed, so a
// restarted client's carriers are never taken for landed on the
// strength of its crashed incarnation's numbers.
func TestCarrierMarksEndWithIncarnation(t *testing.T) {
	cl := NewCluster(testConfig())
	defer cl.Close()
	ids, err := cl.SeedPages(1, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	srv, id, pid := cl.Server(), a.ID(), ids[0]
	sh := srv.shardOf(pid)
	mark := func() uint64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.landed[dctKey{pg: pid, c: id}]
	}
	carry := func(seq uint64) {
		srv.landCarry(id, msg.ShipReplace, &msg.Carry{Seq: seq, Releases: []lock.Name{lock.PageName(pid)}})
	}
	carry(1000)
	if m := mark(); m != 1000 {
		t.Fatalf("mark %d after carrier 1000 landed", m)
	}
	waited := make(chan bool, 1)
	go func() { waited <- srv.awaitLanded(id, pid, 2000) }()
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for {
		if landingWaits(sh) {
			break
		}
		if time.Now().After(guard) {
			t.Fatal("the wait for carrier 2000 never registered")
		}
		runtime.Gosched()
	}
	cl.CrashClient(id)
	select {
	case ok := <-waited:
		if ok {
			t.Fatal("the wait for a crashed incarnation's carrier reported it landed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the wait for a crashed incarnation's carrier outlived the crash")
	}
	if m := mark(); m != 0 {
		t.Fatalf("mark %d survives the crash", m)
	}
	carry(3000) // a late carrier of the crashed incarnation
	if m := mark(); m != 0 {
		t.Fatalf("a carrier landing while the client is crashed left mark %d", m)
	}
	if _, err := cl.RestartClient(id); err != nil {
		t.Fatal(err)
	}
	carry(1)
	if m := mark(); m != 1 {
		t.Fatalf("mark %d after the restarted client's carrier 1 landed, want 1", m)
	}
}

// TestSameClientRequestOvertakesParkedCarrier: A's transaction T1
// evicts its dirty page P into the carrier of its lock request for an
// object B's open transaction wrote, and that request waits in the GLM
// behind B.  A's T2 then reads P.  T2's request names the carrier, which
// landed before T1's request waited, so the server grants it at once:
// T2 commits while T1 still waits for B, with no deadlock victim and no
// timeout.  Waiting at A for T1's reply would hold T2 until B commits.
func TestSameClientRequestOvertakesParkedCarrier(t *testing.T) {
	cl, ids, a, b := evictionCluster(t, nil, nil)
	srv := cl.Server()
	p := page.ObjectID{Page: ids[0], Slot: 4}
	o := page.ObjectID{Page: ids[2], Slot: 4}
	mustDone(t, writeTxn(a, 'a', p), "A's write of P")
	mustDone(t, readPages(a, ids[1]), "A's read filling its cache")
	tb, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := overwriteNow(tb, o, val('b')); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error, 1) // evicts P into its carrier, then waits for B
	go func() {
		txn, err := a.Begin()
		if err == nil {
			if _, err = txn.Read(o); err == nil {
				err = txn.Commit()
			} else {
				txn.Abort()
			}
		}
		t1 <- err
	}()
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for holdsOn(srv, a.ID(), ids[0]) || caches(a, ids[0]) {
		select {
		case err := <-t1:
			t.Fatalf("T1 finished while B's transaction is open: %v", err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("T1's carrier did not land after 10s")
		}
		runtime.Gosched()
	}
	t2 := make(chan []byte, 1)
	t2Err := make(chan error, 1)
	go func() {
		txn, err := a.Begin()
		var got []byte
		if err == nil {
			if got, err = txn.Read(p); err == nil {
				err = txn.Commit()
			} else {
				txn.Abort()
			}
		}
		t2 <- got
		t2Err <- err
	}()
	mustDone(t, t2Err, "T2's read of P")
	if got := <-t2; !bytes.Equal(got, val('a')) {
		t.Fatalf("T2 read P as %q, want A's write", got)
	}
	select {
	case err := <-t1:
		t.Fatalf("T1 finished while B's transaction is open: %v", err)
	default:
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	mustDone(t, t1, "T1's read")
	if d, to := srv.GLM().Metrics.Deadlocks.Load(), srv.GLM().Metrics.Timeouts.Load(); d != 0 || to != 0 {
		t.Fatalf("%d deadlock victims and %d timeouts, want none", d, to)
	}
}

// hookCaller runs hook on every request before passing it on.
type hookCaller struct {
	next msg.Caller
	hook func(m msg.Method, req any)
}

func (h hookCaller) Call(m msg.Method, req any) (any, error) {
	h.hook(m, req)
	return h.next.Call(m, req)
}

// namedCarriers returns the carrier numbers a request names: the
// carriers it asks the server to wait for, and those its own carrier
// lands after.
func namedCarriers(req any) []uint64 {
	var out []uint64
	add := func(n uint64) {
		if n != 0 {
			out = append(out, n)
		}
	}
	after := func(c *msg.Carry) {
		if c != nil {
			for _, m := range c.After {
				add(m.Seq)
			}
		}
	}
	switch r := req.(type) {
	case msg.LockReq:
		add(r.Carried)
		after(r.Carry)
	case msg.LockBatchReq:
		for _, it := range r.Items {
			add(it.Carried)
		}
		after(r.Carry)
	case msg.FetchReq:
		add(r.Carried)
	case msg.FetchBatchReq:
		for _, n := range r.Carried {
			add(n)
		}
	case msg.ShipReq:
		after(&r.Carry)
	case msg.ForceReq:
		add(r.Carried)
	}
	return out
}

// TestRestartNamesNoCarrier: the server holds a restarting client
// crashed until RecoverEnd and marks none of its carriers landed, so a
// message of its naming one would fail.  Restart recovery never names
// one: redo fetches its pages into a pool of two, and the ships of the
// pages it evicts go one at a time, each answered before the next
// message leaves.
func TestRestartNamesNoCarrier(t *testing.T) {
	var mu sync.Mutex
	var named []string
	ships, recovering := 0, true
	cl, ids, a, _ := evictionCluster(t, func(_, n int, conn msg.Server) msg.Server {
		if n != 3 { // A's and B's first conns; the third is A's restart
			return conn
		}
		return msg.ServerConn{Caller: hookCaller{msg.ServerCaller(conn), func(m msg.Method, req any) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case !recovering:
			case m == msg.MRecoverEnd:
				recovering = false
			case m == msg.MShip:
				ships++
				fallthrough
			default:
				if n := namedCarriers(req); n != nil {
					named = append(named, fmt.Sprintf("%v %+v", m, req))
				}
			}
		}}}
	}, nil)
	objs := []page.ObjectID{{Page: ids[0], Slot: 4}, {Page: ids[1], Slot: 4}, {Page: ids[2], Slot: 4}}
	mustDone(t, writeTxn(a, 'a', objs[0]), "A's first write")
	mustDone(t, writeTxn(a, 'a', objs[1]), "A's second write")
	readObj(t, a, objs[0])
	mustDone(t, writeTxn(a, 'a', objs[2]), "A's third write")
	cl.CrashClient(a.ID())
	a2, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	done, sent, got := !recovering, ships, named
	mu.Unlock()
	if !done || sent == 0 {
		t.Fatalf("restart sent %d ships, RecoverEnd seen %v: the case is not exercised", sent, done)
	}
	if got != nil {
		t.Fatalf("restart recovery named carriers: %v", got)
	}
	for _, o := range objs {
		if got := readObj(t, a2, o); !bytes.Equal(got, val('a')) {
			t.Fatalf("A read %v as %q after restart, want its write", o, got)
		}
	}
}

// TestCarriersOfAPageLandInOrder: A's flush ships its dirty page P in a
// carrier parked before the server sees it.  A then writes P again and
// replaces it, so a second carrier of P leaves while the first has no
// answer.  The second names the first (Carry.After) and lands only
// after it: until the first lands, the server marks no carrier of P
// landed and the replacement waits.  Then both land, the mark reaching
// the second's number, and the server's copy holds both writes.
func TestCarriersOfAPageLandInOrder(t *testing.T) {
	var first *park
	var second atomic.Value
	cl, ids, a, b := evictionCluster(t, func(_, n int, conn msg.Server) msg.Server {
		if n != 1 {
			return conn
		}
		first = newPark(msg.ServerCaller(conn), msg.MShip) // held before the server sees it
		return msg.ServerConn{Caller: hookCaller{first, func(m msg.Method, req any) {
			if r, ok := req.(msg.ShipReq); ok && len(r.Carry.After) > 0 {
				second.Store(r.Carry)
			}
		}}}
	}, nil)
	srv := cl.Server()
	o1, o2 := page.ObjectID{Page: ids[0], Slot: 4}, page.ObjectID{Page: ids[0], Slot: 5}
	mustDone(t, writeTxn(a, '1', o1), "A's first write")
	flushed := make(chan error, 1)
	go func() { flushed <- a.FlushCache() }()
	waitFor(t, flushed, first, "A's flush")
	mustDone(t, writeTxn(a, '2', o2), "A's second write")
	replaced := make(chan error, 1)
	go func() { replaced <- a.ReplacePage(ids[0]) }()

	sh := srv.shardOf(ids[0])
	mark := func() uint64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.landed[dctKey{pg: ids[0], c: a.ID()}]
	}
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for {
		if landingWaits(sh) {
			break
		}
		select {
		case err := <-replaced:
			t.Fatalf("A's replacement finished before its first carrier landed: %v", err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("the second carrier never waited at the server")
		}
		runtime.Gosched()
	}
	c2, ok := second.Load().(msg.Carry)
	if !ok || len(c2.After) != 1 || c2.After[0].Page != ids[0] {
		t.Fatalf("the second carrier of P names %+v, want the first", c2.After)
	}
	if m := mark(); m != 0 {
		t.Fatalf("mark %d for P before its first carrier landed", m)
	}
	close(first.release)
	mustDone(t, flushed, "A's flush")
	mustDone(t, replaced, "A's replacement")
	if m := mark(); m != c2.Seq {
		t.Fatalf("mark %d for P once both carriers landed, want the second's %d", m, c2.Seq)
	}
	for o, tag := range map[page.ObjectID]byte{o1: '1', o2: '2'} {
		if got := readObj(t, b, o); !bytes.Equal(got, val(tag)) {
			t.Fatalf("B read %v as %q, want A's write %q", o, got, val(tag))
		}
	}
}

// caches reports whether c's pool holds page pid.
func caches(c *Client, pid page.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool.Contains(pid)
}

// dropServerCopy drops the server's pooled copy of page pid.
func dropServerCopy(s *Server, pid page.ID) {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	s.pool.Drop(pid)
}
