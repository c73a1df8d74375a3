package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"clientlog/internal/fault"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// TestReadManyCoalesces verifies the batched read path returns the same
// values as per-object reads while collapsing the lock traffic into one
// RPC whose grants carry the pages, and — once the locks are cached but
// the pages are not — the fetch traffic into one RPC.
func TestReadManyCoalesces(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 4, 1)
	c := cs[0]

	var objs []page.ObjectID
	for _, pid := range ids {
		objs = append(objs, page.ObjectID{Page: pid, Slot: 1}, page.ObjectID{Page: pid, Slot: 5})
	}
	want := make([][]byte, len(objs))
	for i, obj := range objs {
		v, err := cl.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	before := cl.Stats.ByName()
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := txn.ReadMany(objs)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := range objs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("obj %d: got %q want %q", i, got[i], want[i])
		}
	}

	after := cl.Stats.ByName()
	delta := func(name string) uint64 { return after[name] - before[name] }
	if delta("lock-batch") == 0 {
		t.Fatal("ReadMany issued no lock-batch RPC")
	}
	if n := delta("fetch-batch"); n != 0 {
		t.Fatalf("ReadMany fetched %d times after grants that carried the pages", n/2)
	}
	if n := delta("lock"); n != 0 {
		t.Fatalf("ReadMany fell back to %d single-lock RPCs", n)
	}
	if n := delta("fetch"); n != 0 {
		t.Fatalf("ReadMany fell back to %d single-fetch RPCs", n)
	}

	// Cached locks, pages gone: no lock traffic, one fetch-batch.
	for _, pid := range ids {
		if err := c.ReplacePage(pid); err != nil {
			t.Fatal(err)
		}
	}
	before = cl.Stats.ByName()
	txn, _ = c.Begin()
	if _, err := txn.ReadMany(objs); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	after = cl.Stats.ByName()
	if n := delta("fetch-batch"); n != 2 {
		t.Fatalf("ReadMany over cached locks: %d fetch-batch messages, want one RPC", n)
	}
	if n := delta("lock-batch") + delta("lock") + delta("fetch"); n != 0 {
		t.Fatalf("ReadMany over cached locks sent %d lock or single-fetch messages", n)
	}
}

// TestReadManyCoherence checks a batched read observes another client's
// committed update: the stale cached copy must be refreshed through the
// batch fetch path, not served as-is.
func TestReadManyCoherence(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 2, 2)
	a, b := cs[0], cs[1]
	objs := []page.ObjectID{
		{Page: ids[0], Slot: 2},
		{Page: ids[1], Slot: 3},
	}

	// A caches the pages and their locks.
	ta, _ := a.Begin()
	if _, err := ta.ReadMany(objs); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}

	// B updates both objects (callbacks revoke A's cached locks).
	tb, _ := b.Begin()
	for _, obj := range objs {
		if err := tb.Overwrite(obj, val('Z')); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}

	// A's next batched read must see Z on both pages.
	ta2, _ := a.Begin()
	got, err := ta2.ReadMany(objs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta2.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := range objs {
		if !bytes.Equal(got[i], val('Z')) {
			t.Fatalf("obj %d: stale read %q after remote commit", i, got[i])
		}
	}
}

// TestBatchRPCsDuplicateRetries drives the batched RPCs through the
// fault-injecting transport with heavy duplication and replay, so the
// server-side ReplyCache must dedupe concurrent duplicate retries of
// LockBatch/FetchBatch for the workload to stay serializable.  Run with
// -race to check the dedupe path itself.
func TestBatchRPCsDuplicateRetries(t *testing.T) {
	cfg := testConfig()
	cl := NewCluster(cfg)
	inj := fault.New(7, fault.Plan{DupProb: 0.3, ReplayProb: 0.2})
	cl.WrapConns(func(part, n int, conn msg.Server) msg.Server {
		return msg.ServerConn{Caller: msg.NewFaulty(msg.ServerCaller(conn), inj, msg.NewReplyCache(0),
			fmt.Sprintf("c%d->srv", n), msg.DefaultRetry())}
	}, nil)

	ids, err := cl.SeedPages(4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	const nClients = 3
	clients := make([]*Client, nClients)
	for i := range clients {
		if clients[i], err = cl.AddClient(); err != nil {
			t.Fatal(err)
		}
	}

	objs := make([]page.ObjectID, 0, len(ids))
	for _, pid := range ids {
		objs = append(objs, page.ObjectID{Page: pid, Slot: 0})
	}
	var wg sync.WaitGroup
	errc := make(chan error, nClients)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *Client) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				txn, err := c.Begin()
				if err != nil {
					errc <- err
					return
				}
				if _, err := txn.ReadMany(objs); err != nil {
					txn.Abort()
					continue // deadlock/timeout under churn is legal
				}
				obj := objs[(ci+round)%len(objs)]
				if err := txn.Overwrite(obj, val(byte('a'+ci))); err != nil {
					txn.Abort()
					continue
				}
				// The write's lock upgrade is asked for at commit.
				if err := txn.Commit(); errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout) {
					txn.Abort()
					continue
				} else if err != nil {
					errc <- err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := cl.Server().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadManyPartialError pins down batch error semantics: when one
// item in the batch cannot be granted, ReadMany fails with that item's
// typed lock error while the other grants stand.
func TestReadManyPartialError(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 250 * time.Millisecond
	_, ids, cs := seededCluster(t, cfg, 2, 2)
	a, b := cs[0], cs[1]

	blocked := page.ObjectID{Page: ids[1], Slot: 4}
	free := page.ObjectID{Page: ids[0], Slot: 4}

	// A pins blocked under an uncommitted X lock.
	ta, _ := a.Begin()
	if err := overwriteNow(ta, blocked, val('X')); err != nil {
		t.Fatal(err)
	}

	tb, _ := b.Begin()
	if _, err := tb.ReadMany([]page.ObjectID{free, blocked}); err == nil {
		t.Fatal("ReadMany succeeded against an exclusively held object")
	}
	tb.Abort()
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}

	// After A commits, the same batch goes through.
	tb2, _ := b.Begin()
	got, err := tb2.ReadMany([]page.ObjectID{free, blocked})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[1], val('X')) {
		t.Fatalf("post-commit batch read %q, want %q", got[1], val('X'))
	}
	if err := tb2.Commit(); err != nil {
		t.Fatal(err)
	}
}
