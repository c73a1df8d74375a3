package msg_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"clientlog/internal/fault"
	"clientlog/internal/msg"
)

func hostilePlan() fault.Plan {
	return fault.Plan{
		DropProb:      0.25,
		DupProb:       0.25,
		ReplayProb:    0.15,
		PartitionProb: 0.02,
		PartitionLen:  4,
	}
}

func TestFaultyServerExactlyOnceUnderHostilePlan(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		inner := newFake()
		inj := fault.New(seed, hostilePlan())
		f := msg.ServerConn{Caller: msg.NewFaulty(inner, inj, msg.NewReplyCache(0), "c1", msg.RetryPolicy{
			MaxAttempts: 30, BaseBackoff: 1, MaxBackoff: 10,
		})}
		const n = 300
		for i := 0; i < n; i++ {
			if err := f.Ship(msg.ShipReq{}); err != nil {
				t.Fatalf("seed %d ship %d: %v", seed, i, err)
			}
			if _, err := f.LogOp(msg.LogReq{Op: msg.LogAppend}); err != nil {
				t.Fatalf("seed %d append %d: %v", seed, i, err)
			}
		}
		if ships, appends := inner.count(msg.MShip), inner.count(msg.MLogOp); ships != n || appends != n {
			t.Fatalf("seed %d: ships=%d appends=%d want %d each (faults=%d)",
				seed, ships, appends, n, inj.Faults())
		}
		if inj.Faults() == 0 {
			t.Fatalf("seed %d: hostile plan injected nothing", seed)
		}
	}
}

func TestFaultyServerPropagatesEngineErrors(t *testing.T) {
	inner := newFake()
	inner.setErr(errors.New("lock: deadlock detected"))
	inj := fault.New(3, hostilePlan())
	f := msg.ServerConn{Caller: msg.NewFaulty(inner, inj, msg.NewReplyCache(0), "c1", msg.DefaultRetry())}
	for i := 0; i < 50; i++ {
		if _, err := f.Lock(msg.LockReq{}); err == nil {
			t.Fatal("engine error swallowed by the fault layer")
		}
	}
	// Each logical Lock must have executed exactly once even though the
	// answer was an error (retries must replay the cached error, not
	// re-run the deadlock).
	if n := inner.count(msg.MLock); n != 50 {
		t.Fatalf("lock executed %d times for 50 logical calls", n)
	}
}

func TestFaultyServerGivesUpEventually(t *testing.T) {
	inner := newFake()
	inj := fault.New(1, fault.Plan{DropProb: 1})
	f := msg.ServerConn{Caller: msg.NewFaulty(inner, inj, msg.NewReplyCache(0), "c1", msg.RetryPolicy{
		MaxAttempts: 4, BaseBackoff: 1, MaxBackoff: 2,
	})}
	err := f.Ship(msg.ShipReq{})
	if !errors.Is(err, msg.ErrUnavailable) {
		t.Fatalf("err=%v want ErrUnavailable", err)
	}
	if n := inner.count(msg.MShip); n != 0 {
		t.Fatalf("dropped requests still executed %d times", n)
	}
}

// parkFirst is a Caller whose first call waits in its handler until
// release closes; it counts every execution.
type parkFirst struct {
	entered, release chan struct{}
	calls            atomic.Int32
}

func (p *parkFirst) Call(msg.Method, any) (any, error) {
	if p.calls.Add(1) == 1 {
		close(p.entered)
		<-p.release
	}
	return nil, nil
}

// TestFaultyReplayNeverRunsInFlightRequest: a stale replay copies a
// request that was already answered.  While the stream's first call is
// still in its handler, a second call that draws Replay must neither
// run the first request again nor wait for it.
func TestFaultyReplayNeverRunsInFlightRequest(t *testing.T) {
	inner := &parkFirst{entered: make(chan struct{}), release: make(chan struct{})}
	f := msg.NewFaulty(inner, fault.New(1, fault.Plan{ReplayProb: 1}), msg.NewReplyCache(0), "srv->c1", msg.DefaultRetry())
	first := make(chan error, 1)
	go func() {
		_, err := f.Call(msg.MShip, msg.ShipReq{})
		first <- err
	}()
	<-inner.entered
	second := make(chan error, 1)
	go func() {
		_, err := f.Call(msg.MShip, msg.ShipReq{})
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		close(inner.release)
		t.Fatal("the second call replayed the in-flight first call and waited for it")
	}
	if n := inner.calls.Load(); n != 2 {
		t.Fatalf("%d executions, want 2: the replay ran the in-flight request", n)
	}
	close(inner.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}
