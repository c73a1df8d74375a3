package lock

import (
	"runtime"
	"testing"
	"time"

	"clientlog/internal/ident"
)

// TestGLMPhantomDeadlockStaleBusyEdge is the deterministic form of the
// "deadlock detected" TestPageLockingModeStillCorrect used to hit under
// -race, where every transaction takes one page lock and no cycle can
// be real.  c2 waits for c1's page lock, and c1's busy answer makes the
// edge c2→c1 real.  c1's transaction ends and the callback's answer
// settles, which wakes c2; before c2 runs again (one P, and the test
// does not yield), c1's next transaction asks for the page.  c2 is the
// older waiter, so c1's edge c1→c2 is real — and c2→c1, whose busy
// answer the release voided, must not close a cycle with it.
func TestGLMPhantomDeadlockStaleBusyEdge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c1, c2 := ident.ClientID(1), ident.ClientID(2)
	pg := PageName(1)
	var g *GLM
	g = NewGLM(&recordingCallbacker{react: func(cb callback) {
		if cb.holder == c2 {
			g.Release(c2, pg) // c2's transaction has ended
		}
	}}, 5*time.Second)
	if _, err := g.Acquire(Request{Client: c1, Name: pg, Mode: X}); err != nil {
		t.Fatal(err)
	}
	seq := g.GrantSeq(c1, pg)
	c2done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(Request{Client: c2, Name: pg, Mode: X})
		c2done <- err
	}()
	for len(g.WaitsFor().Waiters) == 0 {
		time.Sleep(time.Millisecond)
	}
	if g.HolderBusy(c2, c1, pg.Page) {
		t.Fatal("c2 doomed by c1's busy answer")
	}
	if !g.Settle(c1, pg, seq, Released, nil) {
		t.Fatal("c1's release did not settle")
	}
	if _, err := g.Acquire(Request{Client: c1, Name: pg, Mode: X}); err != nil {
		t.Fatalf("c1's next request: %v (victims %+v)", err, g.WaitsFor().Victims)
	}
	if err := <-c2done; err != nil {
		t.Fatalf("c2: %v", err)
	}
}
