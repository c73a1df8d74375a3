package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"clientlog/internal/lock"
	"clientlog/internal/page"
)

// fleetConfig returns a small 3-partition configuration.
func fleetConfig() Config {
	cfg := testConfig()
	cfg.Partitions = 3
	return cfg
}

// TestFleetSeedSpansPartitions checks that seeding round-robins page
// ownership across the fleet and every partition's store mints only ids
// it owns.
func TestFleetSeedSpansPartitions(t *testing.T) {
	cl := NewCluster(fleetConfig())
	defer cl.Close()
	ids, err := cl.SeedPages(9, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	owners := make(map[int]int)
	for i, id := range ids {
		owners[cl.Owner(id)]++
		if want := i % 3; cl.Owner(id) != want {
			t.Fatalf("page %d (seed %d): owner %d, want %d", id, i, cl.Owner(id), want)
		}
	}
	for p := 0; p < 3; p++ {
		if owners[p] != 3 {
			t.Fatalf("partition %d owns %d of 9 seeded pages", p, owners[p])
		}
	}
}

// TestFleetCrossPartitionCommit commits one transaction spanning all
// three partitions and reads the values back through each owner.
func TestFleetCrossPartitionCommit(t *testing.T) {
	cl := NewCluster(fleetConfig())
	defer cl.Close()
	ids, err := cl.SeedPages(3, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := txn.Overwrite(page.ObjectID{Page: id, Slot: 0}, val(byte('A'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Flush so every partition's server copy reflects the commit, then
	// read back through the owners.
	if err := c.FlushCache(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := cl.ReadObject(page.ObjectID{Page: id, Slot: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(byte('A'+i))) {
			t.Fatalf("page %d (partition %d): got %q", id, cl.Owner(id), got)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAllocRoundRobin checks that transaction-driven page
// allocation spreads fresh pages over the fleet, each minted by its
// owning partition's store.
func TestFleetAllocRoundRobin(t *testing.T) {
	cl := NewCluster(fleetConfig())
	defer cl.Close()
	c, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	owners := make(map[int]bool)
	for i := 0; i < 6; i++ {
		pid, err := txn.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		owners[cl.Owner(pid)] = true
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(owners) != 3 {
		t.Fatalf("6 allocations landed on %d partitions, want 3", len(owners))
	}
}

// TestFleetPartitionCrashRestart crashes a single partition after a
// cross-partition commit; restart recovery with the operational client
// must restore the crashed partition's share of the data while the
// other partitions keep serving theirs.
func TestFleetPartitionCrashRestart(t *testing.T) {
	cl := NewCluster(fleetConfig())
	defer cl.Close()
	ids, err := cl.SeedPages(3, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := c.Begin()
	for i, id := range ids {
		if err := txn.Overwrite(page.ObjectID{Page: id, Slot: 1}, val(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	victim := cl.Owner(ids[1])
	cl.CrashPartition(victim)
	if err := cl.RestartPartition(victim); err != nil {
		t.Fatal(err)
	}

	// The client (still operational, holding its committed state) keeps
	// transacting across the whole fleet, including the recovered
	// partition.
	txn2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		got, err := txn2.Read(page.ObjectID{Page: id, Slot: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 16 {
			t.Fatalf("page %d: bad read %q", id, got)
		}
		if err := txn2.Overwrite(page.ObjectID{Page: id, Slot: 1}, val('z')); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCache(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		got, err := cl.ReadObject(page.ObjectID{Page: id, Slot: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val('z')) {
			t.Fatalf("page %d after partition restart: got %q", id, got)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetDistributedDeadlock builds a two-client cycle that spans two
// partitions — each partition's local waits-for graph holds only one
// edge, so only the fleet detector's merged graph can see the cycle —
// and checks that a victim dies with ErrDeadlock, the victim record is
// tagged Distributed with partition provenance, and the survivor
// commits.
func TestFleetDistributedDeadlock(t *testing.T) {
	cfg := fleetConfig()
	cfg.LockTimeout = 30 * time.Second // only the detector may resolve this
	cl := NewCluster(cfg)
	defer cl.Close()
	ids, err := cl.SeedPages(3, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	objA := page.ObjectID{Page: ids[0], Slot: 0} // partition 0
	objB := page.ObjectID{Page: ids[1], Slot: 0} // partition 1

	c1, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}

	t1, _ := c1.Begin()
	t2, _ := c2.Begin()
	if err := overwriteNow(t1, objA, val('1')); err != nil {
		t.Fatal(err)
	}
	if err := overwriteNow(t2, objB, val('2')); err != nil {
		t.Fatal(err)
	}

	type result struct {
		txn *Txn
		err error
	}
	results := make(chan result, 2)
	go func() { results <- result{t1, overwriteNow(t1, objB, val('1'))} }()
	go func() { results <- result{t2, overwriteNow(t2, objA, val('2'))} }()

	// Sweep the detector until someone dies (the background sweeper
	// would get there too; driving it keeps the test fast).  The
	// survivor stays blocked until the victim aborts, so only one result
	// can arrive here.
	var first result
	deadline := time.After(20 * time.Second)
sweep:
	for {
		select {
		case first = <-results:
			break sweep
		case <-deadline:
			t.Fatal("distributed deadlock never resolved")
		case <-time.After(5 * time.Millisecond):
			cl.Detector().Sweep()
		}
	}
	if !errors.Is(first.err, lock.ErrDeadlock) {
		t.Fatalf("victim error = %v, want ErrDeadlock", first.err)
	}
	if err := first.txn.Abort(); err != nil {
		t.Fatal(err)
	}
	// The abort releases the victim's locks; the survivor's blocked
	// acquisition now completes and its transaction commits.
	second := <-results
	if second.err != nil {
		t.Fatalf("survivor acquisition failed: %v", second.err)
	}
	if err := second.txn.Commit(); err != nil {
		t.Fatalf("survivor commit after victim abort: %v", err)
	}

	snap := cl.WaitsFor()
	foundDist := false
	for _, v := range snap.Victims {
		if v.Distributed {
			foundDist = true
			if len(v.Cycle) < 2 {
				t.Fatalf("distributed victim cycle too short: %v", v.Cycle)
			}
		}
	}
	if !foundDist {
		t.Fatalf("no Distributed victim in merged snapshot: %+v", snap.Victims)
	}
	if n := cl.Detector().Metrics.Kills.Load(); n < 1 {
		t.Fatalf("detector kill counter = %d", n)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetCrossPartitionCommitSurvivesPartitionCrash is the property
// test from the issue: commit a cross-partition transaction, crash one
// involved partition before the client ships anything, restart it, and
// check every committed value (including the crashed partition's share)
// is readable fleet-wide.
func TestFleetCrossPartitionCommitSurvivesPartitionCrash(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		cl := NewCluster(fleetConfig())
		ids, err := cl.SeedPages(6, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cl.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		txn, _ := c.Begin()
		for i, id := range ids {
			if err := txn.Overwrite(page.ObjectID{Page: id, Slot: 2}, val(byte('A'+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}

		// Commit forced only the client's private log (the paper's
		// §2 durability point); the victim partition's volatile state dies
		// now, before any page was shipped.
		cl.CrashPartition(victim)
		if err := cl.RestartPartition(victim); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if err := c.FlushCache(); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		for i, id := range ids {
			got, err := cl.ReadObject(page.ObjectID{Page: id, Slot: 2})
			if err != nil {
				t.Fatalf("victim %d page %d: %v", victim, id, err)
			}
			if !bytes.Equal(got, val(byte('A'+i))) {
				t.Fatalf("victim %d page %d (owner %d): lost committed value, got %q",
					victim, id, cl.Owner(id), got)
			}
		}
		if err := cl.CheckInvariants(); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		cl.Close()
	}
}
