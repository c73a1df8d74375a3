package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// testConfig returns a small, fast configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.PageSize = 1024
	cfg.ServerPool = 64
	cfg.ClientPool = 16
	cfg.LockTimeout = 5 * time.Second
	return cfg
}

// seededCluster builds a cluster with nPages seeded pages (8 objects of
// 16 bytes each) and nClients clients.
func seededCluster(t *testing.T, cfg Config, nPages, nClients int) (*Cluster, []page.ID, []*Client) {
	t.Helper()
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(nPages, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		c, err := cl.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	return cl, ids, clients
}

func val(tag byte) []byte {
	out := make([]byte, 16)
	for i := range out {
		out[i] = tag
	}
	return out
}

func TestCommitReadBack(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 2, 1)
	c := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 3}

	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Overwrite(obj, val('A')); err != nil {
		t.Fatal(err)
	}
	got, err := txn.Read(obj)
	if err != nil || !bytes.Equal(got, val('A')) {
		t.Fatalf("read own write: %q err=%v", got, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second transaction on the same client sees it (cache + cached
	// locks, zero server messages for the read).
	txn2, _ := c.Begin()
	got, err = txn2.Read(obj)
	if err != nil || !bytes.Equal(got, val('A')) {
		t.Fatalf("next txn read: %q err=%v", got, err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commit in the paper's mode ships nothing: the server's copy is
	// still the seeded one until a callback or replacement.
	if n := cl.Server().Metrics.Merges.Load(); n != 0 {
		t.Fatalf("server merged %d pages without any ship", n)
	}
}

func TestCommitForcesPrivateLog(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	txn, _ := c.Begin()
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, val('B')); err != nil {
		t.Fatal(err)
	}
	durableBefore := c.Log().Durable()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.Log().Durable() <= durableBefore {
		t.Fatal("commit did not force the private log")
	}
}

func TestAbortRestoresValues(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 2}

	before, err := cl.ReadObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := c.Begin()
	if err := txn.Overwrite(obj, val('C')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Overwrite(obj, val('D')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	txn2, _ := c.Begin()
	got, err := txn2.Read(obj)
	if err != nil || !bytes.Equal(got, before) {
		t.Fatalf("after abort: %q, want %q (err=%v)", got, before, err)
	}
	txn2.Commit()
}

func TestSavepointPartialRollback(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	o1 := page.ObjectID{Page: ids[0], Slot: 0}
	o2 := page.ObjectID{Page: ids[0], Slot: 1}

	txn, _ := c.Begin()
	if err := txn.Overwrite(o1, val('E')); err != nil {
		t.Fatal(err)
	}
	sp := txn.Savepoint()
	if err := txn.Overwrite(o2, val('F')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Overwrite(o1, val('G')); err != nil {
		t.Fatal(err)
	}
	if err := txn.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	g1, _ := txn.Read(o1)
	g2, _ := txn.Read(o2)
	if !bytes.Equal(g1, val('E')) {
		t.Fatalf("o1 after partial rollback: %q, want E's", g1)
	}
	orig2 := make([]byte, 16)
	for b := range orig2 {
		orig2[b] = byte(uint64(ids[0])*31 + 1*7 + uint64(b))
	}
	if !bytes.Equal(g2, orig2) {
		t.Fatalf("o2 after partial rollback: %q, want seed value", g2)
	}
	// The transaction continues and commits the surviving update.
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteResize(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	txn, _ := c.Begin()
	obj, err := txn.Insert(ids[0], []byte("created"))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Resize(obj, []byte("created and grown")); err != nil {
		t.Fatal(err)
	}
	got, _ := txn.Read(obj)
	if string(got) != "created and grown" {
		t.Fatalf("after resize: %q", got)
	}
	if err := txn.Delete(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(obj); err == nil {
		t.Fatal("read of deleted object succeeded")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestStructuralAbortRestoresStructure(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	// Delete an existing object and insert a new one, then abort.
	victim := page.ObjectID{Page: ids[0], Slot: 5}
	txn, _ := c.Begin()
	origVal, err := txn.Read(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert(ids[0], []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	txn2, _ := c.Begin()
	got, err := txn2.Read(victim)
	if err != nil || !bytes.Equal(got, origVal) {
		t.Fatalf("deleted object not restored: %q err=%v", got, err)
	}
	txn2.Commit()
}

func TestLogicalCounter(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	// Make slot 0 an 8-byte counter.
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	txn, _ := c.Begin()
	if err := txn.Resize(obj, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Add(obj, 40); err != nil {
		t.Fatal(err)
	}
	if err := txn.Add(obj, 2); err != nil {
		t.Fatal(err)
	}
	v, err := txn.ReadCounter(obj)
	if err != nil || v != 42 {
		t.Fatalf("counter = %d err=%v", v, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Logical undo: add then abort.
	txn2, _ := c.Begin()
	if err := txn2.Add(obj, 100); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Abort(); err != nil {
		t.Fatal(err)
	}
	txn3, _ := c.Begin()
	v, err = txn3.ReadCounter(obj)
	if err != nil || v != 42 {
		t.Fatalf("counter after logical undo = %d err=%v", v, err)
	}
	txn3.Commit()
}

func TestConcurrentSamePageDifferentObjects(t *testing.T) {
	// The paper's headline capability: two clients update different
	// objects of the same page concurrently, nothing is forced to disk,
	// and the merge reconciles the copies.
	cl, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	oa := page.ObjectID{Page: ids[0], Slot: 0}
	ob := page.ObjectID{Page: ids[0], Slot: 1}

	ta, _ := a.Begin()
	if err := ta.Overwrite(oa, val('a')); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	if err := tb.Overwrite(ob, val('b')); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	// Cross-reads force the copies together via callbacks + merging.
	t2, _ := a.Begin()
	gotB, err := t2.Read(ob)
	if err != nil || !bytes.Equal(gotB, val('b')) {
		t.Fatalf("a reads b's object: %q err=%v", gotB, err)
	}
	t2.Commit()
	t3, _ := b.Begin()
	gotA, err := t3.Read(oa)
	if err != nil || !bytes.Equal(gotA, val('a')) {
		t.Fatalf("b reads a's object: %q err=%v", gotA, err)
	}
	t3.Commit()
	if cl.Server().Metrics.Merges.Load() == 0 {
		t.Fatal("no merges happened; concurrency was serialized unexpectedly")
	}
}

func TestWriteConflictCallback(t *testing.T) {
	// B overwrites an object A also wrote: the callback must ship A's
	// committed update to the server before B proceeds, so B's read
	// sees A's value.
	_, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 4}

	ta, _ := a.Begin()
	if err := ta.Overwrite(obj, val('x')); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	got, err := tb.Read(obj)
	if err != nil || !bytes.Equal(got, val('x')) {
		t.Fatalf("b sees %q, want x's (err=%v)", got, err)
	}
	if err := tb.Overwrite(obj, val('y')); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	// And back: A must now see B's value.
	ta2, _ := a.Begin()
	got, err = ta2.Read(obj)
	if err != nil || !bytes.Equal(got, val('y')) {
		t.Fatalf("a sees %q, want y's (err=%v)", got, err)
	}
	ta2.Commit()
}

func TestBlockingWriteWriteConflict(t *testing.T) {
	// While A's transaction is active, B's conflicting write must wait
	// for A's commit (strict 2PL through the callback protocol).
	_, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 6}

	ta, _ := a.Begin()
	if err := ta.Overwrite(obj, val('1')); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tb, _ := b.Begin()
		if err := tb.Overwrite(obj, val('2')); err != nil {
			done <- err
			return
		}
		done <- tb.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("b finished while a held the lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("b after a's commit: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("b never unblocked")
	}
	// Final state is B's value.
	ta2, _ := a.Begin()
	got, err := ta2.Read(obj)
	if err != nil || !bytes.Equal(got, val('2')) {
		t.Fatalf("final value %q, want 2's (err=%v)", got, err)
	}
	ta2.Commit()
}

func TestManyClientsDisjointObjects(t *testing.T) {
	// Stress: 4 clients, concurrent transactions on disjoint objects of
	// a shared page set; every committed value must be visible at the
	// end.
	cfg := testConfig()
	cl, ids, cs := seededCluster(t, cfg, 4, 4)
	var wg sync.WaitGroup
	errCh := make(chan error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				txn, err := c.Begin()
				if err != nil {
					errCh <- err
					return
				}
				for _, pid := range ids {
					obj := page.ObjectID{Page: pid, Slot: uint16(i)}
					if err := txn.Overwrite(obj, val(byte('0'+i))); err != nil {
						errCh <- fmt.Errorf("client %d: %w", i, err)
						txn.Abort()
						return
					}
				}
				if err := txn.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Verify through a fresh client (forces callbacks of all copies).
	fresh, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := fresh.Begin()
	for _, pid := range ids {
		for i := range cs {
			obj := page.ObjectID{Page: pid, Slot: uint16(i)}
			got, err := txn.Read(obj)
			if err != nil || !bytes.Equal(got, val(byte('0'+i))) {
				t.Fatalf("page %d slot %d: %q err=%v", pid, i, got, err)
			}
		}
	}
	txn.Commit()
}

func TestDeadlockVictimCanRetry(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 2 * time.Second
	_, ids, cs := seededCluster(t, cfg, 2, 2)
	a, b := cs[0], cs[1]
	o1 := page.ObjectID{Page: ids[0], Slot: 0}
	o2 := page.ObjectID{Page: ids[1], Slot: 0}

	var sawVictim bool
	run := func(c *Client, first, second page.ObjectID) error {
		txn, _ := c.Begin()
		if err := txn.Overwrite(first, val('z')); err != nil {
			txn.Abort()
			return err
		}
		if err := txn.Overwrite(second, val('z')); err != nil {
			txn.Abort()
			return err
		}
		return txn.Commit()
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = run(a, o1, o2) }()
	go func() { defer wg.Done(); errs[1] = run(b, o2, o1) }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			sawVictim = true
		}
	}
	if !sawVictim {
		// Both may have serialized cleanly depending on timing; that is
		// acceptable — but if neither failed, the data must be sane.
		t.Log("no deadlock materialized this run (timing)")
	}
	// The system must still be operational.
	txn, _ := a.Begin()
	if _, err := txn.Read(o1); err != nil {
		t.Fatalf("system wedged after deadlock: %v", err)
	}
	txn.Commit()
}

func TestTxnAfterDoneFails(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 1)
	txn, _ := cs[0].Begin()
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, val('q')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, val('r')); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("write after commit: %v", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	obj := page.ObjectID{Page: ids[0], Slot: 1}
	if _, err := txn.Read(obj); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after commit: %v", err)
	}
	if err := txn.Add(obj, 1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("add after commit: %v", err)
	}
	if _, err := txn.Insert(ids[0], val('s')); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("insert after commit: %v", err)
	}
	if err := txn.RollbackTo(wal.NilLSN); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("rollback after commit: %v", err)
	}
	if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestCacheEvictionShipsDirtyPages(t *testing.T) {
	cfg := testConfig()
	cfg.ClientPool = 4 // tiny cache forces replacement traffic
	cl, ids, cs := seededCluster(t, cfg, 16, 1)
	c := cs[0]
	for _, pid := range ids {
		txn, _ := c.Begin()
		if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: 0}, val('m')); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Metrics.PagesShipped.Load() == 0 {
		t.Fatal("no replacement shipments despite tiny cache")
	}
	// All committed values must be at the server (via ships) or client.
	for _, pid := range ids {
		got, err := cl.ReadObject(page.ObjectID{Page: pid, Slot: 0})
		if err != nil {
			t.Fatal(err)
		}
		// Pages still cached dirty at the client may not have shipped;
		// flush and re-check those.
		if !bytes.Equal(got, val('m')) {
			if err := c.FlushCache(); err != nil {
				t.Fatal(err)
			}
			got, err = cl.ReadObject(page.ObjectID{Page: pid, Slot: 0})
			if err != nil || !bytes.Equal(got, val('m')) {
				t.Fatalf("page %d: %q err=%v", pid, got, err)
			}
		}
	}
}

func TestAllocAndFreePages(t *testing.T) {
	cl, _, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	txn, _ := c.Begin()
	pid, err := txn.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := txn.Insert(pid, []byte("on fresh page"))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCache(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadObject(obj)
	if err != nil || string(got) != "on fresh page" {
		t.Fatalf("alloc'd page content: %q err=%v", got, err)
	}
}
