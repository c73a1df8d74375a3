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
// err when set, else its reply.  Every other call passes straight
// through.  Splice it into a cluster with Cluster.WrapConns, over
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
	if err := t1.Overwrite(obj, val('1')); err != nil {
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
