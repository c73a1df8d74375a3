package sim

import (
	"fmt"
	"testing"

	"clientlog/internal/core"
)

// TestChaos sweeps 20 distinct seeds; each run must survive a full
// torture schedule under the default fault plan, inject a substantial
// number of faults, and pass the post-quiesce verification (reference
// state, PSN monotonicity, lock-table/DCT consistency) built into
// Chaos.
func TestChaos(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for base := int64(500); base < int64(500+seeds); base++ {
		s := seed(base)
		t.Run(fmt.Sprintf("s%d", s), func(t *testing.T) {
			t.Parallel()
			opt := DefaultChaosOptions(s)
			opt.Diskless = s%2 == 0
			// Deferred writes share one lock request, so a round sends
			// fewer RPCs for the faults to hit: 150 rounds drew as few as
			// 74 faults on these seeds, 200 draw at least 157.
			opt.Rounds = 200
			stats, err := Chaos(core.DefaultConfig(), opt)
			if err != nil {
				t.Fatalf("seed %d: %v", s, err)
			}
			logSeed(t, s)
			if stats.Faults < 100 {
				t.Fatalf("seed %d: only %d faults injected, want >=100", s, stats.Faults)
			}
			if stats.Commits == 0 || stats.Verifications == 0 {
				t.Fatalf("seed %d: degenerate run %+v", s, stats.TortureStats)
			}
			if uint64(len(stats.Schedule)) != stats.Faults {
				t.Fatalf("seed %d: schedule has %d entries, faults=%d",
					s, len(stats.Schedule), stats.Faults)
			}
		})
	}
}

// TestChaosReproducible reruns one seed and demands the identical fault
// schedule: same faults, on the same streams, at the same per-stream
// call numbers, with the same kinds.
func TestChaosReproducible(t *testing.T) {
	s := seed(4242)
	opt := DefaultChaosOptions(s)
	opt.Rounds = 80
	a, err := Chaos(core.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("first run (seed %d): %v", s, err)
	}
	b, err := Chaos(core.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("second run (seed %d): %v", s, err)
	}
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("seed %d: schedules differ in length: %d vs %d",
			s, len(a.Schedule), len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("seed %d: schedules diverge at %d: %q vs %q",
				s, i, a.Schedule[i], b.Schedule[i])
		}
	}
	if a.Commits != b.Commits || a.Aborts != b.Aborts {
		t.Fatalf("seed %d: stats diverge: %+v vs %+v", s, a.TortureStats, b.TortureStats)
	}
}

// TestChaosSuppressesDuplicates checks the other half of the contract:
// under a duplicate-heavy plan the reply caches must actually absorb
// retransmissions rather than double-executing them.
func TestChaosSuppressesDuplicates(t *testing.T) {
	s := seed(77)
	opt := DefaultChaosOptions(s)
	opt.Rounds = 80
	opt.Plan.DupProb = 0.25
	stats, err := Chaos(core.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("seed %d: %v", s, err)
	}
	if stats.Suppressed == 0 {
		t.Fatalf("seed %d: %d faults but no duplicate was suppressed", s, stats.Faults)
	}
}
