package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRingKeepsOrderAndBounds(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(PageShip, 1, 2, "x")
	}
	events := r.Snapshot()
	if len(events) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("events out of order: %v then %v", events[i-1], events[i])
		}
	}
	if events[len(events)-1].Seq != 10 {
		t.Fatalf("last seq %d, want 10", events[len(events)-1].Seq)
	}
}

func TestRingCountAndReset(t *testing.T) {
	r := NewRing(16)
	r.Record(PageShip, 1, 7, "")
	r.Record(PageMerge, 1, 7, "")
	r.Record(PageShip, 2, 8, "")
	if got := r.Count(PageShip, 0); got != 2 {
		t.Fatalf("Count(ship) = %d", got)
	}
	if got := r.Count(PageShip, 7); got != 1 {
		t.Fatalf("Count(ship,7) = %d", got)
	}
	r.Reset()
	if len(r.Snapshot()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestRingSeqStableUnderConcurrency(t *testing.T) {
	r := NewRing(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(CallbackSent, 1, 1, "c")
			}
		}()
	}
	wg.Wait()
	events := r.Snapshot()
	if len(events) != 800 {
		t.Fatalf("got %d events", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq gap or reorder at %d: %d", i, e.Seq)
		}
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(CallbackSent, 1, 1, "c")
			}
		}()
	}
	wg.Wait()
	if len(r.Snapshot()) != 128 {
		t.Fatalf("snapshot len %d", len(r.Snapshot()))
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 3, Kind: Replacement, Client: 0, Page: 9, Detail: "psn=4"}
	s := e.String()
	for _, want := range []string{"#3", "replacement", "page=9", "psn=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	var nop Recorder = Nop{}
	nop.Record(PageShip, 1, 1, "") // must not panic
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{LockGrant, CallbackSent, DeescSent, PageShip, PageMerge,
		PageForce, Replacement, FlushNotify, RecoveryStep, LogSpace}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}
