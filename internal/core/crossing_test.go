package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// writeTxn runs one transaction writing tag to every object, reporting
// its outcome on the returned channel; a failed transaction is aborted.
func writeTxn(c *Client, tag byte, objs ...page.ObjectID) chan error {
	done := make(chan error, 1)
	go func() {
		txn, err := c.Begin()
		for _, o := range objs {
			if err == nil {
				err = txn.Overwrite(o, val(tag))
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

// waitFor returns the first of ch's value or the park's hold, failing
// the test after 10s: a guard against hangs, not a timing condition.
func waitFor(t *testing.T, ch chan error, pk *park, what string) {
	t.Helper()
	select {
	case <-pk.parked:
	case err := <-ch:
		t.Fatalf("%s: finished first: %v", what, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: nothing after 10s", what)
	}
}

func mustDone(t *testing.T, ch chan error, what string) {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still running after 10s", what)
	}
}

// objectCluster is a two-client cluster under object-level locking
// whose conns the test may wrap before the clients join.
func objectCluster(t *testing.T, nPages int, sw func(part, n int, conn msg.Server) msg.Server, cw func(id ident.ClientID, conn msg.Client) msg.Client) (*Cluster, []page.ID, *Client, *Client) {
	t.Helper()
	cfg := testConfig()
	cfg.Granularity = GranObject
	cl := NewCluster(cfg)
	cl.WrapConns(sw, cw)
	ids, err := cl.SeedPages(nPages, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if c1.ID() != 1 || c2.ID() != 2 {
		t.Fatalf("clients are %v, %v; the wrappers expect 1 and 2", c1.ID(), c2.ID())
	}
	return cl, ids, c1, c2
}

// TestGrantCallbackCrossing: the GLM records c1's grant of o, then c2's
// conflicting request sends c1 a callback for o that reaches c1 before
// the grant's reply.  Answering from the cache — "nothing cached" for a
// fresh grant, "downgraded" for an upgrade from S whose X grant is in
// flight — lets the grant install a lock the GLM has already taken back,
// and both clients end up caching o in conflicting modes.  The callback
// must instead treat the grant in flight as c1's.
func TestGrantCallbackCrossing(t *testing.T) {
	for _, upgrade := range []bool{false, true} {
		var grant, cb *park
		_, ids, c1, c2 := objectCluster(t, 1,
			func(_, n int, conn msg.Server) msg.Server {
				if n != 1 {
					return conn
				}
				grant = newPark(msg.ServerCaller(conn), msg.MLock)
				grant.deliver = true
				grant.match = func(req any) bool { return req.(msg.LockReq).Mode == lock.X }
				return msg.ServerConn{Caller: grant}
			},
			func(id ident.ClientID, conn msg.Client) msg.Client {
				if id != 1 {
					return conn
				}
				cb = newPark(msg.ClientCaller(conn), msg.MCallbackObject)
				cb.deliver = true
				return msg.ClientConn{Caller: cb}
			})
		o := page.ObjectID{Page: ids[0], Slot: 4}
		c2op := func() chan error { return writeTxn(c2, '2', o) }
		if upgrade {
			// c1 caches o in S; its write upgrades, and c2's read calls
			// c1 back to downgrade the X it was just granted.
			t1, _ := c1.Begin()
			if _, err := t1.Read(o); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			c2op = func() chan error {
				done := make(chan error, 1)
				go func() {
					t2, _ := c2.Begin()
					_, err := t2.Read(o)
					if err == nil {
						err = t2.Commit()
					}
					done <- err
				}()
				return done
			}
		}

		w1 := writeTxn(c1, '1', o)
		waitFor(t, w1, grant, "c1's grant")
		w2 := c2op()
		waitFor(t, w2, cb, "c2's callback to c1") // answered by c1, grant still held
		close(cb.release)
		close(grant.release)
		mustDone(t, w1, "c1")
		mustDone(t, w2, "c2")

		m1, m2 := c1.LLM().CachedMode(lock.ObjName(o)), c2.LLM().CachedMode(lock.ObjName(o))
		if m1 != lock.None && m2 != lock.None && !lock.Compatible(m1, m2) {
			t.Fatalf("upgrade=%v: clients cache o in conflicting modes: c1 %v, c2 %v", upgrade, m1, m2)
		}
	}
}

// TestFreshRequestBehindCallback: c1's read of o is granted S at the
// GLM, its reply held, when c2's write calls c1 back for o; then a second
// c1 transaction asks for o in X.  The callback waits for both of c1's
// requests in flight, so the server must not hold the fresh X request
// until that callback ends: the two would wait for each other in a
// cycle no waits-for graph sees, broken only by the timeout.  All three
// transactions end well inside LockTimeout, with no timeout.
func TestFreshRequestBehindCallback(t *testing.T) {
	var grant, cb *park
	cl, ids, c1, c2 := objectCluster(t, 1,
		func(_, n int, conn msg.Server) msg.Server {
			if n != 1 {
				return conn
			}
			grant = newPark(msg.ServerCaller(conn), msg.MLock)
			grant.deliver = true
			return msg.ServerConn{Caller: grant}
		},
		func(id ident.ClientID, conn msg.Client) msg.Client {
			if id != 1 {
				return conn
			}
			cb = newPark(msg.ClientCaller(conn), msg.MCallbackObject)
			cb.deliver = true
			return msg.ClientConn{Caller: cb}
		})
	o := page.ObjectID{Page: ids[0], Slot: 4}
	read := make(chan error, 1)
	go func() {
		t1, _ := c1.Begin()
		_, err := t1.Read(o)
		if err == nil {
			err = t1.Commit()
		} else {
			t1.Abort()
		}
		read <- err
	}()
	waitFor(t, read, grant, "c1's read grant")
	w2 := writeTxn(c2, '2', o)
	waitFor(t, w2, cb, "c2's callback to c1")
	start := time.Now()
	w1 := writeTxn(c1, '1', o)
	// Release the parked messages once c1's X request is in flight, or
	// done: nothing holds it back, so it may finish first.
	for !c1.LLM().Requested(lock.ObjName(o), lock.X) && len(w1) == 0 {
		runtime.Gosched()
	}
	close(cb.release)
	close(grant.release)
	// A victim of the client-level graph's false cycles (DESIGN §6 item
	// 7) is fine; waiting out the lock timeout is not.
	for _, w := range []chan error{read, w1, w2} {
		select {
		case err := <-w:
			if err != nil && !errors.Is(err, lock.ErrDeadlock) {
				t.Fatalf("transaction: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("transaction still running after 10s")
		}
	}
	if d := time.Since(start); d >= 2*time.Second {
		t.Fatalf("transactions took %v, want well under LockTimeout", d)
	}
	if to := cl.Server().GLM().Metrics.Timeouts.Load(); to != 0 {
		t.Fatalf("%d lock timeouts, want none", to)
	}
}

// TestDuplicateCallbackAfterRelease: a callback for o that reaches c1
// again after c1 answered Released must be answered at once — also
// while c1 has a request in flight for another object on o's page,
// which is no grant of o — and the server does not send a callback for
// a lock the holder already gave up.
func TestDuplicateCallbackAfterRelease(t *testing.T) {
	var pk *park
	cl, ids, c1, c2 := objectCluster(t, 1, func(_, n int, conn msg.Server) msg.Server {
		if n != 1 {
			return conn
		}
		pk = newPark(msg.ServerCaller(conn), msg.MLock)
		pk.deliver = true
		pk.match = func(req any) bool { return req.(msg.LockReq).Name.Slot == 5 }
		return msg.ServerConn{Caller: pk}
	}, nil)
	o := page.ObjectID{Page: ids[0], Slot: 4}
	mustDone(t, writeTxn(c1, '1', o), "c1")
	mustDone(t, writeTxn(c2, '2', o), "c2") // calls c1 back: Released

	w1 := writeTxn(c1, '3', page.ObjectID{Page: ids[0], Slot: 5})
	waitFor(t, w1, pk, "c1's grant of another object")
	for _, wait := range []bool{false, true} {
		done := make(chan msg.CallbackReply, 1)
		go func() {
			reply, _ := c1.CallbackObject(msg.CallbackReq{Requester: c2.ID(), Object: lock.ObjName(o), Wanted: lock.X, Wait: wait})
			done <- reply
		}()
		select {
		case reply := <-done:
			if !reply.Released || reply.Busy {
				t.Fatalf("duplicate (wait=%v): %+v, want Released", wait, reply)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("duplicate callback (wait=%v) hangs", wait)
		}
	}
	close(pk.release)
	mustDone(t, w1, "c1's second write")

	before := cl.Stats.ByName()["cb.object"]
	callbackNow(cl.Server(), c1.ID(), c2.ID(), lock.ObjName(o), lock.X)
	if n := cl.Stats.ByName()["cb.object"] - before; n != 0 {
		t.Fatalf("server sent %d callback messages for a lock c1 gave up", n)
	}
}

// TestCrossedCallbacksAreNotADeadlock: each client requests an object
// the other merely caches.  The old waits-for graph counted both
// callbacks as edges and aborted one requester; but §3.2's callback
// waits only for transactions using the object, and neither does.  The
// callbacks are held until both requests wait at the GLM, then both
// requests are granted, with no deadlock and no timeout.
func TestCrossedCallbacksAreNotADeadlock(t *testing.T) {
	parks := make(map[ident.ClientID]*park)
	cl, ids, c1, c2 := objectCluster(t, 2, nil, func(id ident.ClientID, conn msg.Client) msg.Client {
		pk := newPark(msg.ClientCaller(conn), msg.MCallbackObject)
		parks[id] = pk
		return msg.ClientConn{Caller: pk}
	})
	o1 := page.ObjectID{Page: ids[0], Slot: 0}
	o2 := page.ObjectID{Page: ids[1], Slot: 0}
	mustDone(t, writeTxn(c1, 'a', o1), "c1 caches o1")
	mustDone(t, writeTxn(c2, 'b', o2), "c2 caches o2")

	w1 := writeTxn(c1, '1', o2)
	waitFor(t, w1, parks[c2.ID()], "c1's request")
	w2 := writeTxn(c2, '2', o1)
	waitFor(t, w2, parks[c1.ID()], "c2's request")
	close(parks[c1.ID()].release)
	close(parks[c2.ID()].release)
	mustDone(t, w1, "c1")
	mustDone(t, w2, "c2")
	m := &cl.Server().GLM().Metrics
	if d, to := m.Deadlocks.Load(), m.Timeouts.Load(); d != 0 || to != 0 {
		t.Fatalf("%d deadlocks, %d timeouts; want none", d, to)
	}
}

// TestBusyCallbackClosesCycle: a true cross-use deadlock — each
// transaction uses the object the other requests — is found by the
// holders' busy answers, not by a timer: exactly one requester dies
// with ErrDeadlock well inside LockTimeout, and the survivor commits.
func TestBusyCallbackClosesCycle(t *testing.T) {
	cl, ids, c1, c2 := objectCluster(t, 2, nil, nil)
	o1 := page.ObjectID{Page: ids[0], Slot: 0}
	o2 := page.ObjectID{Page: ids[1], Slot: 0}
	t1, _ := c1.Begin()
	t2, _ := c2.Begin()
	if err := overwriteNow(t1, o1, val('1')); err != nil {
		t.Fatal(err)
	}
	if err := overwriteNow(t2, o2, val('2')); err != nil {
		t.Fatal(err)
	}
	type result struct {
		txn *Txn
		err error
	}
	results := make(chan result, 2)
	start := time.Now()
	go func() { results <- result{t1, overwriteNow(t1, o2, val('1'))} }()
	go func() { results <- result{t2, overwriteNow(t2, o1, val('2'))} }()
	var victim result
	select {
	case victim = <-results:
	case <-time.After(4 * time.Second):
		t.Fatal("no victim before LockTimeout")
	}
	if !errors.Is(victim.err, lock.ErrDeadlock) {
		t.Fatalf("first result %v, want ErrDeadlock", victim.err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("deadlock found after %v, want well under 1s", d)
	}
	if err := victim.txn.Abort(); err != nil {
		t.Fatal(err)
	}
	survivor := <-results
	if survivor.err != nil {
		t.Fatalf("survivor: %v", survivor.err)
	}
	if err := survivor.txn.Commit(); err != nil {
		t.Fatal(err)
	}
	m := &cl.Server().GLM().Metrics
	if d, to := m.Deadlocks.Load(), m.Timeouts.Load(); d != 1 || to != 0 {
		t.Fatalf("%d deadlocks, %d timeouts; want exactly one deadlock", d, to)
	}
}

// TestBusyDeescalationClosesCycle is TestBusyCallbackClosesCycle for a
// de-escalation: under adaptive locking each client holds a page lock
// and an open transaction with a structural use (an insert) of its own
// page, and each then writes an object on the other's page.  Both
// de-escalations answer busy, the two real edges close a cycle, and
// exactly one requester dies with ErrDeadlock well inside LockTimeout.
func TestBusyDeescalationClosesCycle(t *testing.T) {
	cfg := testConfig()
	cfg.Granularity = GranAdaptive
	cl, ids, cs := seededCluster(t, cfg, 2, 2)
	defer cl.Close()
	c1, c2 := cs[0], cs[1]
	t1, _ := c1.Begin()
	t2, _ := c2.Begin()
	if _, err := t1.Insert(ids[0], val('1')); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Insert(ids[1], val('2')); err != nil {
		t.Fatal(err)
	}
	glm := cl.Server().GLM()
	if glm.Holding(c1.ID(), lock.PageName(ids[0])) != lock.X || glm.Holding(c2.ID(), lock.PageName(ids[1])) != lock.X {
		t.Fatal("the inserts did not take exclusive page locks")
	}
	type result struct {
		txn *Txn
		err error
	}
	results := make(chan result, 2)
	start := time.Now()
	go func() { results <- result{t1, overwriteNow(t1, page.ObjectID{Page: ids[1], Slot: 0}, val('1'))} }()
	go func() { results <- result{t2, overwriteNow(t2, page.ObjectID{Page: ids[0], Slot: 0}, val('2'))} }()
	var victim result
	select {
	case victim = <-results:
	case <-time.After(4 * time.Second):
		t.Fatal("no victim before LockTimeout")
	}
	if !errors.Is(victim.err, lock.ErrDeadlock) {
		t.Fatalf("first result %v, want ErrDeadlock", victim.err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("deadlock found after %v, want well under 1s", d)
	}
	if err := victim.txn.Abort(); err != nil {
		t.Fatal(err)
	}
	survivor := <-results
	if survivor.err != nil {
		t.Fatalf("survivor: %v", survivor.err)
	}
	if err := survivor.txn.Commit(); err != nil {
		t.Fatal(err)
	}
	m := &glm.Metrics
	if d, to := m.Deadlocks.Load(), m.Timeouts.Load(); d != 1 || to != 0 {
		t.Fatalf("%d deadlocks, %d timeouts; want exactly one deadlock", d, to)
	}
}

// TestShipCallbackCrossing: c2 writes o and the page leaves its cache,
// so the only copy of the write is a ship on its way to the server when
// c1's read calls c2 back.  Answering at once — c2 caches no dirty page
// — lets the server downgrade c2 and hand c1 the page without the write.
// c2 answers at once, naming the ship's carrier, and the server waits
// for the carrier to land before it applies the answer: c1's grant may
// complete only after the ship landed.
func TestShipCallbackCrossing(t *testing.T) {
	var ship, grant *park
	cl, ids, c1, c2 := objectCluster(t, 1,
		func(_, n int, conn msg.Server) msg.Server {
			pk := newPark(msg.ServerCaller(conn), msg.MShip) // held before the server sees it
			if n == 1 {
				pk.m, pk.deliver, grant = msg.MLock, true, pk
			} else {
				ship = pk
			}
			return msg.ServerConn{Caller: pk}
		}, nil)
	srv := cl.Server()
	o := page.ObjectID{Page: ids[0], Slot: 4}
	mustDone(t, writeTxn(c2, '2', o), "c2's write")
	replaced := make(chan error, 1)
	go func() { replaced <- c2.ReplacePage(ids[0]) }()
	waitFor(t, replaced, ship, "c2's ship")

	read := make(chan []byte, 1)
	readErr := make(chan error, 1)
	go func() {
		t1, _ := c1.Begin()
		v, err := t1.Read(o)
		if err == nil {
			err = t1.Commit()
		}
		read <- v
		readErr <- err
	}()
	// c2's answer waits at the server for the ship's carrier.  An answer
	// applied at once would have let c1 be granted.
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for srv.Metrics.CarryWaits.Load() == 0 {
		select {
		case <-grant.parked:
			t.Fatal("c1 was granted while c2's write was still in flight")
		case err := <-readErr:
			t.Fatalf("c1's read finished before c2's ship landed: %v", err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("no callback answer waiting for the carrier after 10s")
		}
		runtime.Gosched()
	}
	select {
	case <-grant.parked:
		t.Fatal("c1 was granted while c2's write was still in flight")
	default:
	}
	close(ship.release)
	mustDone(t, replaced, "c2's ship")
	close(grant.release)
	mustDone(t, readErr, "c1's read")
	if v := <-read; !bytes.Equal(v, val('2')) {
		t.Fatalf("c1 read %q, want c2's committed write %q", v, val('2'))
	}
}

// TestCrashedServerSendsNoCallbacks: a callback goroutine of a server
// instance that crashed can still run after its successor finished
// recovery — the simulated crash does not kill goroutines.  It must not
// reach a client, which would hand its dirty page to the dead instance,
// mark it clean, and leave the live server without the updates.
func TestCrashedServerSendsNoCallbacks(t *testing.T) {
	cl, ids, c1, c2 := objectCluster(t, 1, nil, nil)
	o5 := page.ObjectID{Page: ids[0], Slot: 5}
	o6 := page.ObjectID{Page: ids[0], Slot: 6}
	mustDone(t, writeTxn(c2, '5', o5), "c2 caches o5")
	old := cl.Server()
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	mustDone(t, writeTxn(c2, '6', o6), "c2's write under the new server")
	callbackNow(old, c2.ID(), c1.ID(), lock.ObjName(o5), lock.X) // the dead instance, late
	t1, _ := c1.Begin()
	v, err := t1.Read(o6)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, val('6')) {
		t.Fatalf("c1 read %q, want c2's committed write %q", v, val('6'))
	}
}
