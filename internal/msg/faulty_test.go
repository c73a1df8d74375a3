package msg_test

import (
	"errors"
	"testing"

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
