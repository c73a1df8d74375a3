package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"clientlog/internal/ident"
)

// TestFairnessOldestWaiterWins: with a cooperative holder, a younger
// request must not overtake an older one for the same object.
func TestFairnessOldestWaiterWins(t *testing.T) {
	g := NewGLM(nil, 5*time.Second)
	release := make(chan struct{})
	rc := &recordingCallbacker{}
	rc.react = func(cb callback) {
		<-release // the holder yields only when the test says so
		g.Release(cb.holder, cb.name)
	}
	g.SetCallbacker(rc)

	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	order := make(chan ident.ClientID, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: X}); err == nil {
			order <- cB
			// Hold briefly then release so the younger waiter finishes.
			time.Sleep(10 * time.Millisecond)
			g.Release(cB, obj(1, 0))
		}
	}()
	time.Sleep(50 * time.Millisecond) // B is registered and older
	go func() {
		defer wg.Done()
		if _, err := g.Acquire(Request{Client: cC, Name: obj(1, 0), Mode: X}); err == nil {
			order <- cC
			g.Release(cC, obj(1, 0))
		}
	}()
	time.Sleep(50 * time.Millisecond) // C is registered and younger
	close(release)                    // A yields
	wg.Wait()
	first := <-order
	if first != cB {
		t.Fatalf("younger request overtook the older waiter: first=%v", first)
	}
	if second := <-order; second != cC {
		t.Fatalf("second grant: %v", second)
	}
}

// TestUpgradeBypassesFairness: an upgrade by the current holder must
// not queue behind waiting requests (it would deadlock against the
// callback waiting for the holder's own transaction).
func TestUpgradeBypassesFairness(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, 300*time.Millisecond) // no holder reaction
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: S}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: S}); err != nil {
		t.Fatal(err)
	}
	// C waits for X behind both S holders (no reaction: it will block).
	done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(Request{Client: cC, Name: obj(1, 0), Mode: X})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	// B releases; A (holder of S) upgrades: fairness must not queue the
	// upgrade behind C's older request.
	g.Release(cB, obj(1, 0))
	gr, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X, Upgrade: true})
	if err != nil {
		t.Fatalf("upgrade blocked behind waiter: %v", err)
	}
	if gr.Mode != X {
		t.Fatalf("upgrade grant: %+v", gr)
	}
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("C should have timed out against the upgraded holder: %v", err)
	}
}

// TestFairnessDeadlockDetected: fairness edges participate in deadlock
// detection — a cycle through an older waiter must abort someone
// instead of waiting for two timeouts.
func TestFairnessDeadlockDetected(t *testing.T) {
	g := busyGLM(5 * time.Second)
	// A holds o1; B holds o2.
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
	time.Sleep(30 * time.Millisecond)
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
		t.Fatal("deadlock with fairness edges not detected")
	}
}

// TestOverlaps pins down the name-overlap relation fairness uses.
func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b Name
		want bool
	}{
		{obj(1, 0), obj(1, 0), true},
		{obj(1, 0), obj(1, 1), false},
		{obj(1, 0), obj(2, 0), false},
		{PageName(1), obj(1, 5), true},
		{obj(1, 5), PageName(1), true},
		{PageName(1), PageName(1), true},
		{PageName(1), PageName(2), false},
	}
	for _, c := range cases {
		if got := overlaps(c.a, c.b); got != c.want {
			t.Fatalf("overlaps(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestFairnessNoGhostWaiters: a request that times out must not leave a
// waiting-registry entry behind that blocks future requests.
func TestFairnessNoGhostWaiters(t *testing.T) {
	g := NewGLM(&recordingCallbacker{}, 100*time.Millisecond)
	if _, err := g.Acquire(Request{Client: cA, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatal(err)
	}
	// B times out waiting.
	if _, err := g.Acquire(Request{Client: cB, Name: obj(1, 0), Mode: X}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	// A releases; C must acquire immediately despite B's dead request.
	g.Release(cA, obj(1, 0))
	start := time.Now()
	if _, err := g.Acquire(Request{Client: cC, Name: obj(1, 0), Mode: X}); err != nil {
		t.Fatalf("C after ghost: %v", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("ghost waiter slowed down C")
	}
}
