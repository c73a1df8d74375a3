package core

import (
	"sync"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// park is a msg.Caller middleware that holds one message so a test can
// order it against the rest of the protocol: the first call of method m
// whose request satisfies match (any call of m when match is nil) is
// parked — delivered first when deliver is set, so it is the reply that
// waits — until the test closes release.  The held call then returns
// err when set (undelivered, if deliver is not set), else its reply,
// delivering it only now if deliver is not set.  Every other call
// passes straight through.  Splice it into a cluster with Cluster.WrapConns, over
// msg.ServerCaller(conn) for a client's requests or
// msg.ClientCaller(conn) for the server's calls to one client.
type park struct {
	next    msg.Caller
	m       msg.Method
	match   func(req any) bool
	deliver bool
	err     error

	parked  chan struct{} // closed once the call is held
	release chan struct{} // closed by the test to let it go
	once    sync.Once
}

func newPark(next msg.Caller, m msg.Method) *park {
	return &park{next: next, m: m, parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *park) Call(m msg.Method, req any) (any, error) {
	held := false
	if m == p.m && (p.match == nil || p.match(req)) {
		p.once.Do(func() { held = true })
	}
	if !held {
		return p.next.Call(m, req)
	}
	var reply any
	var err error
	if p.deliver {
		reply, err = p.next.Call(m, req)
	}
	close(p.parked)
	<-p.release
	if p.err != nil {
		return nil, p.err
	}
	if !p.deliver {
		return p.next.Call(m, req)
	}
	return reply, err
}

// TestCallbackErrorLostWakeup is the deterministic form of the lost
// wakeup TestReadManyPartialError used to hit about half the time.  c1
// answers a callback with an error while it still holds the lock (its
// own wait for the open transaction timed out); the GLM saw no
// Release or Downgrade, so nothing woke the waiting c2, and the copies
// of the callback c2 re-sent meanwhile were dropped as duplicates of the
// one in flight.  The server must wake c2 when such a callback ends, so
// c2 re-issues it and is granted the lock once c1 has committed — well
// inside its LockTimeout, not at it.
func TestCallbackErrorLostWakeup(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 5 * time.Second
	cl := NewCluster(cfg)
	var pk *park
	cl.WrapConns(nil, func(id ident.ClientID, conn msg.Client) msg.Client {
		if pk != nil || id != 1 {
			return conn
		}
		pk = newPark(msg.ClientCaller(conn), msg.MCallbackObject)
		pk.err = lock.ErrTimeout
		return msg.ClientConn{Caller: pk}
	})
	ids, err := cl.SeedPages(1, 8, 16)
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
	if c1.ID() != 1 || pk == nil {
		t.Fatalf("park not spliced into c1's conn (c1 is %v)", c1.ID())
	}
	obj := page.ObjectID{Page: ids[0], Slot: 4}

	t1, _ := c1.Begin()
	if err := overwriteNow(t1, obj, val('1')); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() {
		t2, _ := c2.Begin()
		_, err := t2.Read(obj)
		if err == nil {
			err = t2.Commit()
		}
		granted <- err
	}()
	select {
	case <-pk.parked:
	case err := <-granted:
		t.Fatalf("c2 finished before its callback reached c1: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no callback to c1")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	close(pk.release) // c1's answer: an error, its cached lock kept
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("c2: %v", err)
		}
		if d := time.Since(start); d >= time.Second {
			t.Fatalf("c2 granted %v after the failed callback, want well under 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("c2 still waiting 1s after the failed callback: lost wakeup")
	}
}

// runCallbacker is the server's Callbacker with a signal: each object
// callback's issue event reports on ran once the server applied it.
type runCallbacker struct {
	serverCallbacker
	ran chan struct{}
}

func (cb runCallbacker) CallbackObject(holder, requester ident.ClientID, obj lock.Name, wanted lock.Mode) {
	cb.serverCallbacker.CallbackObject(holder, requester, obj, wanted)
	cb.ran <- struct{}{}
}

// TestAbsorbedCallbackLostWakeup is the deterministic form of a lost
// wakeup seen under -race.  A callback's answer had settled at the GLM,
// waking the waiters of that moment, but the callback was still in the
// in-flight table when the holder re-acquired the lock and the next
// requester's callback arrived: the copy was absorbed, and the old
// callback then ended without waking anyone, since it had settled.  The
// requester slept to its LockTimeout.  No message crosses the window
// between the settle and the end, so the test issues the old
// conversation itself, lets c2's callback be absorbed by it, and then
// plays the old conversation's settled end.  c2 must be granted well
// inside its LockTimeout.
func TestAbsorbedCallbackLostWakeup(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 5 * time.Second
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	defer cl.Close()
	c1, c2 := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 4}
	run := func(c *Client, f func(*Txn) error) error {
		txn, err := c.Begin()
		if err != nil {
			return err
		}
		if err := f(txn); err != nil {
			return err
		}
		return txn.Commit()
	}
	// c1 caches X on obj; c2's read of another object on the page
	// de-escalates c1's page lock, so obj is held as an object lock.
	if err := run(c1, func(txn *Txn) error { return txn.Overwrite(obj, val('1')) }); err != nil {
		t.Fatal(err)
	}
	if err := run(c2, func(txn *Txn) error {
		_, err := txn.Read(page.ObjectID{Page: ids[0], Slot: 5})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if m := cl.Server().GLM().Holding(c1.ID(), lock.ObjName(obj)); m != lock.X {
		t.Fatalf("c1 holds obj in %v, want X", m)
	}

	s := cl.Server()
	ran := make(chan struct{}, 16)
	s.glm.SetCallbacker(runCallbacker{serverCallbacker{s}, ran})
	// The old conversation with c1: settled, not yet out of the table.
	k := convKey{holder: c1.ID(), name: lock.ObjName(obj)}
	if acts, _ := s.apply(k, c2.ID(), convIssue); acts&convSend == 0 {
		t.Fatal("conversation already running")
	}
	granted := make(chan error, 1)
	go func() {
		granted <- run(c2, func(txn *Txn) error { return txn.Overwrite(obj, val('2')) })
	}()
	select {
	case <-ran: // c2's callback was absorbed by the old one
	case err := <-granted:
		t.Fatalf("c2 finished without a callback to c1: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no callback to c1")
	}
	start := time.Now()
	s.apply(k, c2.ID(), convSettled)
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("c2: %v", err)
		}
		if d := time.Since(start); d >= time.Second {
			t.Fatalf("c2 granted %v after the old callback ended, want well under 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("c2 still waiting 1s after the old callback ended: lost wakeup")
	}
}
