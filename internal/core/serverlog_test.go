package core

import (
	"bytes"
	"testing"

	"clientlog/internal/page"
)

func TestServerCheckpointReclaimsLog(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 4, 1)
	a := cs[0]
	// Generate replacement records: update, replace, force — repeatedly.
	for round := 0; round < 6; round++ {
		for _, pid := range ids {
			txn, _ := a.Begin()
			if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(round % 8)}, val(byte(round))); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := a.ReplacePage(pid); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Server().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.Server().Log().Horizon()
	if err := cl.Server().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := cl.Server().Log().Horizon()
	if after <= before {
		t.Fatalf("server checkpoint did not reclaim log space: %v -> %v", before, after)
	}
	// The truncated log must still support a full server restart.
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatalf("restart after reclaim: %v", err)
	}
	got, err := cl.ReadObject(page.ObjectID{Page: ids[0], Slot: 5})
	if err != nil || !bytes.Equal(got, val(5)) {
		t.Fatalf("data after reclaimed-log restart: %q err=%v", got, err)
	}
}

func TestServerCrashAfterCheckpointUsesCheckpointDCT(t *testing.T) {
	// The §3.4 step-3a scan must start from the checkpointed DCT's
	// minimum RedoLSN, not the beginning of (a possibly reclaimed) log.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 1)
	a := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 0}

	t1, _ := a.Begin()
	if err := t1.Overwrite(obj, val('1')); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Server().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Server().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint work that must be recovered.
	t2, _ := a.Begin()
	if err := t2.Overwrite(obj, val('2')); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadObject(obj)
	if err != nil || !bytes.Equal(got, val('2')) {
		t.Fatalf("post-checkpoint update lost: %q err=%v", got, err)
	}
}

func TestBoundedServerLog(t *testing.T) {
	// With periodic checkpoints, the server's log span stays bounded
	// even under sustained replacement traffic.
	cfg := testConfig()
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	pid := ids[0]
	var maxSpan uint64
	for round := 0; round < 30; round++ {
		txn, _ := a.Begin()
		if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: 0}, val(byte(round))); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := a.ReplacePage(pid); err != nil {
			t.Fatal(err)
		}
		if err := cl.Server().FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Server().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		span := uint64(cl.Server().Log().End() - cl.Server().Log().Horizon())
		if span > maxSpan {
			maxSpan = span
		}
	}
	// A bounded span: generously, a handful of records, not 30 rounds'
	// worth.
	if maxSpan > 4096 {
		t.Fatalf("server log span grew unbounded: %d bytes", maxSpan)
	}
}

// TestServerReclaimsItsOwnLog: nothing outside the server calls
// Checkpoint, yet under sustained replacement traffic — one client
// committing and replacing pages of a database four times its 16-page
// server pool — the log the server retains stays under its bound, a
// pool's worth of page bytes, because the server checkpoints itself.
func TestServerReclaimsItsOwnLog(t *testing.T) {
	cfg := testConfig()
	cfg.ServerPool = 16
	cl, ids, cs := seededCluster(t, cfg, 64, 1)
	a, srv := cs[0], cl.Server()
	bound := uint64(cfg.ServerPool * cfg.PageSize)
	for i := 0; i < 6000; i++ {
		pid := ids[i%len(ids)]
		txn, _ := a.Begin()
		if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(i % 8)}, val(byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := a.ReplacePage(pid); err != nil {
			t.Fatal(err)
		}
		if kept := uint64(srv.Log().End() - srv.Log().Horizon()); kept > bound {
			t.Fatalf("commit %d: the server log retains %d bytes, bound %d", i, kept, bound)
		}
	}
	if srv.Metrics.LogCheckpoints.Load() == 0 {
		t.Fatal("the server took no checkpoint of its own: the case is not exercised")
	}
	last := 5999
	if got, err := cl.ReadObject(page.ObjectID{Page: ids[last%len(ids)], Slot: uint16(last % 8)}); err != nil || !bytes.Equal(got, val(byte(last))) {
		t.Fatalf("last write read back as %q, err %v", got, err)
	}
}
