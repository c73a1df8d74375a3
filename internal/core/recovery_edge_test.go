package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"clientlog/internal/page"
	"clientlog/internal/wal"
)

func TestClientCrashRecoveryStructuralOps(t *testing.T) {
	// Inserts, deletes and resizes (non-mergeable, page X locked) must
	// redo correctly from the private log.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 1)
	a := cs[0]
	txn, _ := a.Begin()
	obj, err := txn.Insert(ids[0], []byte("created before crash"))
	if err != nil {
		t.Fatal(err)
	}
	victim := page.ObjectID{Page: ids[0], Slot: 2}
	if err := txn.Delete(victim); err != nil {
		t.Fatal(err)
	}
	grown := page.ObjectID{Page: ids[0], Slot: 3}
	if err := txn.Resize(grown, []byte("this object grew quite a bit")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(a.ID())
	rec, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	txn2, _ := rec.Begin()
	got, err := txn2.Read(obj)
	if err != nil || string(got) != "created before crash" {
		t.Fatalf("insert lost: %q err=%v", got, err)
	}
	if _, err := txn2.Read(victim); err == nil {
		t.Fatal("deleted object resurrected")
	}
	got, err = txn2.Read(grown)
	if err != nil || string(got) != "this object grew quite a bit" {
		t.Fatalf("resize lost: %q err=%v", got, err)
	}
	txn2.Commit()
}

func TestClientCrashRecoveryLogicalRecords(t *testing.T) {
	// Logical (delta) records redo by re-applying the delta; the CLRs of
	// a pre-crash abort redo by applying the inverse delta.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 1)
	a := cs[0]
	ctr := page.ObjectID{Page: ids[0], Slot: 0}
	setup, _ := a.Begin()
	if err := setup.Resize(ctr, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Add(ctr, 100); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	// An aborted delta (logical CLR on the log).
	ab, _ := a.Begin()
	if err := ab.Add(ctr, 55); err != nil {
		t.Fatal(err)
	}
	if err := ab.Abort(); err != nil {
		t.Fatal(err)
	}
	// A committed delta after it.
	c2, _ := a.Begin()
	if err := c2.Add(ctr, 7); err != nil {
		t.Fatal(err)
	}
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(a.ID())
	rec, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := rec.Begin()
	v, err := txn.ReadCounter(ctr)
	if err != nil || v != 107 {
		t.Fatalf("counter after logical recovery = %d err=%v, want 107", v, err)
	}
	txn.Commit()
}

func TestOtherClientsRunDuringRecovery(t *testing.T) {
	// §3.3: "Transaction processing on the remaining clients can
	// continue in parallel with the recovery of the crashed client."
	cl, ids, cs := seededCluster(t, testConfig(), 4, 2)
	a, b := cs[0], cs[1]
	// a dirties its own pages, then crashes.
	txn, _ := a.Begin()
	for _, pid := range ids[:2] {
		if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: 0}, val('a')); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(a.ID())

	// b hammers disjoint pages while a recovers.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tb, _ := b.Begin()
			if err := tb.Overwrite(page.ObjectID{Page: ids[3], Slot: 1}, val('b')); err != nil {
				errCh <- err
				return
			}
			if err := tb.Commit(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	if _, err := cl.RestartClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("b failed during a's recovery: %v", err)
	default:
	}
}

func TestFreeAndReallocatePage(t *testing.T) {
	cl, _, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	txn, _ := c.Begin()
	pid, err := txn.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert(pid, []byte("ephemeral")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	finalPSN := func() page.PSN {
		c.mu.Lock()
		defer c.mu.Unlock()
		p, _ := c.pool.Get(pid)
		return p.PSN()
	}()
	if err := c.FreePage(pid); err != nil {
		t.Fatal(err)
	}
	// Reallocate: the id comes back with a continued PSN sequence
	// (Mohan-Narang seeding), so stale log records can never apply.
	txn2, _ := c.Begin()
	pid2, err := txn2.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if pid2 == pid {
		c.mu.Lock()
		p, _ := c.pool.Get(pid2)
		c.mu.Unlock()
		if p.PSN() <= finalPSN {
			t.Fatalf("reincarnated page PSN %d not above %d", p.PSN(), finalPSN)
		}
	}
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = cl
}

func TestFileBackedClientLogSurvivesRestart(t *testing.T) {
	// The same crash/recovery flow with a REAL log file: the FileStore
	// re-opened after the "crash" recovers its end and the client redoes
	// from it.
	dir := t.TempDir()
	cfg := testConfig()
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(1, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	logStore, err := wal.OpenFileStore(dir+"/client.log", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.AddClientWithLog(logStore)
	if err != nil {
		t.Fatal(err)
	}
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	txn, _ := c.Begin()
	if err := txn.Overwrite(obj, val('F')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	id := c.ID()
	// Simulate the process dying: drop the engine, close the file.
	c.Crash()
	cl.Server().ClientCrashed(id)
	logStore.Close()

	reopened, err := wal.OpenFileStore(dir+"/client.log", 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverClient(cfg, cl.serverConn(), reopened, id)
	if err != nil {
		t.Fatalf("recovery from reopened file: %v", err)
	}
	// Re-attach so callbacks reach the new engine.
	cl.Server().Attach(id, cl.clientConn(id, rec))
	txn2, _ := rec.Begin()
	got, err := txn2.Read(obj)
	if err != nil || !bytes.Equal(got, val('F')) {
		t.Fatalf("after file-backed recovery: %q err=%v", got, err)
	}
	txn2.Commit()
}

func TestLockTimeoutSurfacesAsTypedError(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 100 * time.Millisecond
	_, ids, cs := seededCluster(t, cfg, 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	ta, _ := a.Begin()
	if err := ta.Overwrite(obj, val('x')); err != nil {
		t.Fatal(err)
	}
	// b cannot get the lock while a's txn is active; the typed timeout
	// error must surface so callers can retry.
	tb, _ := b.Begin()
	err := tb.Overwrite(obj, val('y'))
	if err == nil {
		t.Fatal("conflicting write succeeded")
	}
	tb.Abort()
	ta.Commit()
}

// wrappedLog decorates a MemStore the way a metering or fault layer
// would: every method, Crash included, forwards by embedding.
type wrappedLog struct{ *wal.MemStore }

// TestCrashDropsUnforcedTailOfWrappedStore pins that a simulated crash
// reaches the log device through its Crash method, not through its
// concrete type: an appended-but-unforced record must be gone after
// CrashClient / CrashServer even when the store is a decorator.
func TestCrashDropsUnforcedTailOfWrappedStore(t *testing.T) {
	cfg := testConfig()
	slog := wrappedLog{wal.NewMemStore(0)}
	cl := NewClusterWithStores(cfg, memPageStore(cfg), slog)
	defer cl.Close()
	clog := wrappedLog{wal.NewMemStore(0)}
	c, err := cl.AddClientWithLog(clog)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]wrappedLog{"client": clog, "server": slog} {
		if _, err := st.Append([]byte("appended, never forced")); err != nil {
			t.Fatal(err)
		}
		if st.End() <= st.Durable() {
			t.Fatalf("%s log has no unforced tail to lose", name)
		}
	}
	cl.CrashClient(c.ID())
	if clog.End() != clog.Durable() {
		t.Errorf("client log kept its unforced tail across CrashClient: end=%d durable=%d", clog.End(), clog.Durable())
	}
	cl.CrashServer()
	if slog.End() != slog.Durable() {
		t.Errorf("server log kept its unforced tail across CrashServer: end=%d durable=%d", slog.End(), slog.Durable())
	}
}
