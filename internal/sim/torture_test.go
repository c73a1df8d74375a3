package sim

import (
	"fmt"
	"testing"

	"clientlog/internal/core"
)

func TestTortureShort(t *testing.T) {
	for base := int64(1); base <= 3; base++ {
		opt := DefaultTortureOptions(seed(base))
		opt.Rounds = 60
		stats, err := Torture(core.DefaultConfig(), opt)
		if err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
		if stats.Commits == 0 || stats.Verifications == 0 {
			t.Fatalf("seed %d: degenerate run %+v", opt.Seed, stats)
		}
	}
}

func TestTortureClientCrashesOnly(t *testing.T) {
	opt := DefaultTortureOptions(seed(7))
	opt.Rounds = 80
	opt.ServerCrashes = false
	stats, err := Torture(core.DefaultConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ServerCrashes != 0 {
		t.Fatalf("server crashed despite ServerCrashes=false: %+v", stats)
	}
	if stats.ClientCrashes == 0 {
		t.Fatalf("no client crashes exercised: %+v", stats)
	}
}

func TestTortureWithDisklessClient(t *testing.T) {
	for base := int64(21); base <= 24; base++ {
		opt := DefaultTortureOptions(seed(base))
		opt.Rounds = 60
		opt.Diskless = true
		if _, err := Torture(core.DefaultConfig(), opt); err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
	}
}

// TestTortureBoundedLogs runs the crash schedule over private logs small
// enough that every seed fills them, so §3.6 log-space freeing runs
// between the crashes.
func TestTortureBoundedLogs(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ClientLogCapacity = 2560
	for base := int64(31); base <= 33; base++ {
		opt := DefaultTortureOptions(seed(base))
		opt.Rounds = 60
		stats, err := Torture(cfg, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
		if stats.LogFullEvents == 0 {
			t.Fatalf("seed %d: no client log ever filled: the case is not exercised", opt.Seed)
		}
	}
}

// TestTortureSmallServerPool: a server pool of two pages over eight
// forces pages, and appends replacement records, on nearly every ship,
// so the server's log passes its bound (a pool's worth of page bytes)
// and the server checkpoints itself between the crash rounds; every
// round still recovers to the reference state.
func TestTortureSmallServerPool(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ServerPool, cfg.PageSize = 2, 512
	for base := int64(41); base <= 43; base++ {
		opt := DefaultTortureOptions(seed(base))
		opt.Pages = 8
		opt.Rounds = 300
		stats, err := Torture(cfg, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
		if stats.ServerLogCheckpoints == 0 || stats.ServerCrashes == 0 {
			t.Fatalf("seed %d: %d server checkpoints of its own, %d server crashes: the case is not exercised", opt.Seed, stats.ServerLogCheckpoints, stats.ServerCrashes)
		}
	}
}

// TestTortureOptionDefaults pins the historical matrix: churn and
// bounded logs are strictly opt-in, and the LogSlots knob translates
// into log capacity only when set.
func TestTortureOptionDefaults(t *testing.T) {
	opt := DefaultTortureOptions(seed(1))
	if opt.Churn {
		t.Fatal("churn must be opt-in")
	}
	if opt.LogSlots != 0 {
		t.Fatalf("LogSlots defaults to %d, want 0 (unbounded)", opt.LogSlots)
	}
	cfg := core.DefaultConfig()
	if got := opt.applyConfig(cfg).ClientLogCapacity; got != cfg.ClientLogCapacity {
		t.Fatalf("LogSlots=0 changed ClientLogCapacity to %d", got)
	}
	opt.LogSlots = 48
	if got := opt.applyConfig(cfg).ClientLogCapacity; got != 48*tortureLogSlotBytes {
		t.Fatalf("LogSlots=48 -> capacity %d, want %d", got, 48*tortureLogSlotBytes)
	}
}

// TestTortureChurn adds membership storms to the schedule: clean
// leave+rejoin and crash bursts interleave with transactions, crashes
// and checkpoints, and the recovered database must still replay exactly
// the committed transactions.
func TestTortureChurn(t *testing.T) {
	for base := int64(41); base <= 43; base++ {
		opt := DefaultTortureOptions(seed(base))
		opt.Rounds = 120
		opt.Clients = 4
		opt.Churn = true
		stats, err := Torture(core.DefaultConfig(), opt)
		if err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
		if stats.Leaves == 0 && stats.ClientCrashes == 0 {
			t.Fatalf("seed %d: churn enabled but no storms fired: %+v", opt.Seed, stats)
		}
		if stats.Joins != stats.Leaves {
			t.Fatalf("seed %d: %d leaves but %d rejoins", opt.Seed, stats.Leaves, stats.Joins)
		}
		if stats.Commits == 0 {
			t.Fatalf("seed %d: nothing committed under churn: %+v", opt.Seed, stats)
		}
	}
}

// TestTortureDisklessChurnBoundedLogs is the kitchen-sink cell: a
// diskless client, membership storms, and private logs capped at
// LogSlots records so §3.6 freeLogSpace fires throughout.  (The remote
// log buffers appends at the client, so the undo reservation is not
// enforced on the diskless path — the bound bites on the local-log
// clients.)
func TestTortureDisklessChurnBoundedLogs(t *testing.T) {
	for base := int64(51); base <= 52; base++ {
		opt := DefaultTortureOptions(seed(base))
		opt.Rounds = 120
		opt.Clients = 4
		opt.Diskless = true
		opt.Churn = true
		opt.LogSlots = 64
		stats, err := Torture(core.DefaultConfig(), opt)
		if err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
		if stats.Commits == 0 || stats.Verifications == 0 {
			t.Fatalf("seed %d: degenerate run %+v", opt.Seed, stats)
		}
	}
}

func TestTortureManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for base := int64(100); base < 120; base++ {
		s := seed(base)
		t.Run(fmt.Sprintf("s%d", s), func(t *testing.T) {
			opt := DefaultTortureOptions(s)
			opt.Rounds = 100
			opt.Diskless = s%2 == 0
			if _, err := Torture(core.DefaultConfig(), opt); err != nil {
				t.Fatal(err)
			}
		})
	}
}
