package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// retryPressure runs fn as one transaction, retrying when §3.6 log
// pressure aborts it (ErrNoLogSpace is the engine saying "abort and
// retry": the undo reservation guarantees the rollback itself can
// log).  Any other error, or more than limit retries, fails the test.
func retryPressure(t *testing.T, limit int, fn func() error) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrNoLogSpace) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if attempt >= limit {
			t.Fatalf("still no log space after %d retries: %v", attempt, err)
		}
	}
}

// TestBoundedLogTwoClientsWithCallbacks drives two clients over a tiny
// private log so that callback log records, checkpoints and the §3.6
// force-page protocol all contend for log space.
func TestBoundedLogTwoClientsWithCallbacks(t *testing.T) {
	cfg := testConfig()
	cfg.ClientLogCapacity = 6 * 1024
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(8, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	// Alternate ownership of the same objects so callbacks (and their
	// log records) flow constantly while the log wraps.
	for round := 0; round < 120; round++ {
		c := a
		if round%2 == 1 {
			c = b
		}
		retryPressure(t, 20, func() error {
			txn, err := c.Begin()
			if err != nil {
				return err
			}
			for op := 0; op < 4; op++ {
				obj := page.ObjectID{Page: ids[(round+op)%len(ids)], Slot: uint16(op)}
				if err := txn.Overwrite(obj, make([]byte, 32)); err != nil {
					if aerr := txn.Abort(); aerr != nil {
						t.Fatalf("abort must always have reserved log space: %v", aerr)
					}
					return err
				}
			}
			if err := txn.Commit(); err != nil {
				if aerr := txn.Abort(); aerr != nil {
					t.Fatalf("abort must always have reserved log space: %v", aerr)
				}
				return err
			}
			return nil
		})
		if round%30 == 29 {
			if err := c.Checkpoint(); err != nil {
				t.Fatalf("round %d checkpoint: %v", round, err)
			}
		}
	}
	if a.Metrics.LogFullEvents.Load() == 0 || b.Metrics.LogFullEvents.Load() == 0 {
		t.Fatalf("log-full events %d and %d: a log never filled", a.Metrics.LogFullEvents.Load(), b.Metrics.LogFullEvents.Load())
	}
	if a.Metrics.ForceRequests.Load()+b.Metrics.ForceRequests.Load() == 0 {
		t.Fatal("bounded logs never triggered §3.6 forces")
	}
}

// pressureVal derives the deterministic 16-byte value a given commit
// round writes to a given slot; the reference model and the database
// must agree on it.
func pressureVal(round, slot int) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v, uint64(round)*1_000_003+uint64(slot))
	return v
}

// TestLogSpacePressureCommittedSurvivesCrash is the §3.6 durability
// property test: under sustained log-space pressure — a private log so
// small that freeLogSpace runs mid-transaction throughout — every
// committed update survives a client crash and §3.3 restart recovery,
// even though the log records that produced it may long since have been
// reclaimed and the page copies live who-knows-where between client
// cache, server pool and server disk.
func TestLogSpacePressureCommittedSurvivesCrash(t *testing.T) {
	cfg := testConfig()
	cfg.ClientLogCapacity = 2560
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}

	// model holds the value each object had after the last COMMITTED
	// transaction that wrote it; aborted rounds must leave no trace.
	model := make(map[page.ObjectID][]byte)

	verify := func(tag string) {
		t.Helper()
		txn, err := c.Begin()
		if err != nil {
			t.Fatalf("%s: begin verify: %v", tag, err)
		}
		for obj, want := range model {
			got, err := txn.Read(obj)
			if err != nil {
				t.Fatalf("%s: read %v: %v", tag, obj, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %v = %x, committed %x", tag, obj, got, want)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("%s: verify commit: %v", tag, err)
		}
	}

	const rounds = 90
	for round := 0; round < rounds; round++ {
		objs := make([]page.ObjectID, 4)
		for op := range objs {
			objs[op] = page.ObjectID{
				Page: ids[(round*7+op*3)%len(ids)],
				Slot: uint16((round + op) % 8),
			}
		}
		retryPressure(t, 30, func() error {
			txn, err := c.Begin()
			if err != nil {
				return err
			}
			for op, obj := range objs {
				if err := txn.Overwrite(obj, pressureVal(round, op)); err != nil {
					if aerr := txn.Abort(); aerr != nil {
						t.Fatalf("abort must always have reserved log space: %v", aerr)
					}
					return err
				}
			}
			if err := txn.Commit(); err != nil {
				if aerr := txn.Abort(); aerr != nil {
					t.Fatalf("abort must always have reserved log space: %v", aerr)
				}
				return err
			}
			return nil
		})
		// The transaction committed: fold it into the reference model.
		for op, obj := range objs {
			model[obj] = pressureVal(round, op)
		}
		// Periodically crash mid-stream and recover; every committed
		// update must still be there.
		if round%30 == 17 {
			cl.CrashClient(c.ID())
			c, err = cl.RestartClient(c.ID())
			if err != nil {
				t.Fatalf("round %d: restart: %v", round, err)
			}
			verify("after crash-recovery")
		}
	}
	verify("final")

	if c.Metrics.LogReclaims.Load() == 0 {
		t.Fatal("2.5KiB log over 90 txns but freeLogSpace never ran")
	}
	if c.Metrics.LogFullEvents.Load() == 0 {
		t.Fatal("pressure run never filled the log")
	}
	if c.Metrics.ForcedShips.Load() == 0 {
		t.Fatal("freeLogSpace ran but never shipped the min-RedoLSN page")
	}
}

// TestLogSpacePinnedTxnSurfacesError pins the log with a transaction
// whose own records exceed the capacity: §3.6 has nothing to reclaim
// below the transaction's first LSN, so the engine must return
// ErrNoLogSpace — never lose an update silently — and the abort that
// follows must succeed on the very space the undo reservation held
// back, leaving the database exactly as before the transaction.
func TestLogSpacePinnedTxnSurfacesError(t *testing.T) {
	cfg := testConfig()
	cfg.ClientLogCapacity = 2 * 1024
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot the seeded values the oversized transaction will clobber.
	before := make(map[page.ObjectID][]byte)
	snap, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*8; i++ {
		obj := page.ObjectID{Page: ids[i/8], Slot: uint16(i % 8)}
		v, err := snap.Read(obj)
		if err != nil {
			t.Fatal(err)
		}
		before[obj] = v
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	// One transaction tries to write far more than the log can hold.
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	for i := 0; i < 64; i++ {
		obj := page.ObjectID{Page: ids[i%4], Slot: uint16(i % 8)}
		if err := txn.Overwrite(obj, pressureVal(999, i)); err != nil {
			gotErr = err
			break
		}
	}
	if gotErr == nil { // the writes waiting for their X locks are applied here
		gotErr = txn.Commit()
	}
	if gotErr == nil {
		t.Fatal("64 updates fit a 2KiB log: the capacity check is not enforced")
	}
	if !errors.Is(gotErr, ErrNoLogSpace) {
		t.Fatalf("oversized txn failed with %v, want ErrNoLogSpace", gotErr)
	}
	if c.Metrics.LogReclaimFails.Load() == 0 {
		t.Fatal("ErrNoLogSpace surfaced but the reclaim-fail counter never moved")
	}
	// The abort must succeed: its CLRs and abort record spend the undo
	// reservation every forward append left free.
	if err := txn.Abort(); err != nil {
		t.Fatalf("abort of the pinned txn must always have log space: %v", err)
	}

	// No silent loss, no partial application: everything reads as before.
	check, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for obj, want := range before {
		got, err := check.Read(obj)
		if err != nil {
			t.Fatalf("read %v after abort: %v", obj, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v = %x after aborted txn, want the pre-txn %x", obj, got, want)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}

	// And the client is not wedged: a reasonable transaction commits.
	retryPressure(t, 10, func() error {
		small, err := c.Begin()
		if err != nil {
			return err
		}
		obj := page.ObjectID{Page: ids[0], Slot: 0}
		if err := small.Overwrite(obj, pressureVal(1000, 0)); err != nil {
			_ = small.Abort()
			return err
		}
		if err := small.Commit(); err != nil {
			_ = small.Abort()
			return err
		}
		return nil
	})
}

// TestLogSpaceForceAfterCallbackAnswer: c2's oldest dirty page left in
// its answer to a callback, and that answer is still on its way to the
// server when c2's log fills.  §3.6 picks the page and asks the server
// to force it, but the server still holds the copy from before c2's
// update, so a force now would cover nothing c2 logged.  The force
// names the copy (its PSN) and waits at the server until the answer has
// landed — answering at once would fail a transaction with "log full
// and nothing reclaimable" — and c1's write, granted once the answer
// merged, completes as well.
func TestLogSpaceForceAfterCallbackAnswer(t *testing.T) {
	cl, ids, c1, c2, cb := parkedAnswerCluster(t)
	srv := cl.Server()
	o := page.ObjectID{Page: ids[0], Slot: 1}
	mustDone(t, writeTxn(c2, '2', o), "c2's write of o")
	wrote := writeTxn(c1, '1', o)
	waitFor(t, wrote, cb, "c2's answer to c1's callback")

	// c2 writes page 1 until its log fills and §3.6 forces page 0, the
	// page with the oldest RedoLSN.
	filled := fillLog(c2, ids[1])
	guard := time.Now().Add(10 * time.Second) // against hangs, not a timing condition
	for srv.Metrics.ForceWaits.Load() == 0 {
		select {
		case err := <-filled:
			t.Fatalf("c2's writes finished before its force of page 0 waited: %v", err)
		default:
		}
		if time.Now().After(guard) {
			t.Fatal("c2's force of page 0: no wait at the server after 10s")
		}
		runtime.Gosched()
	}
	close(cb.release)
	mustDone(t, wrote, "c1's write of o") // granted after the answer merged
	mustDone(t, filled, "c2's writes over a full log")
}

// TestLogSpaceForceWaitsForParkedAnswer is the same crossing with the
// answer held for a second: the force must wait for it at the server,
// however long it takes, where a client that re-asked on a timer gave
// up after a quarter second with "log full and nothing reclaimable".
func TestLogSpaceForceWaitsForParkedAnswer(t *testing.T) {
	_, ids, c1, c2, cb := parkedAnswerCluster(t)
	o := page.ObjectID{Page: ids[0], Slot: 1}
	mustDone(t, writeTxn(c2, '2', o), "c2's write of o")
	wrote := writeTxn(c1, '1', o)
	waitFor(t, wrote, cb, "c2's answer to c1's callback")
	time.AfterFunc(time.Second, func() { close(cb.release) })
	mustDone(t, fillLog(c2, ids[1]), "c2's writes over a full log")
	mustDone(t, wrote, "c1's write of o")
	if c2.Metrics.LogFullEvents.Load() == 0 {
		t.Fatal("c2's log never filled; the force never ran")
	}
}

// parkedAnswerCluster is a two-client cluster under object locking
// with 2 KiB client logs, whose c2 answer to the first callback is
// delivered and then held until cb is released.
func parkedAnswerCluster(t *testing.T) (*Cluster, []page.ID, *Client, *Client, *park) {
	t.Helper()
	cfg := testConfig()
	cfg.Granularity = GranObject
	cfg.ClientLogCapacity = 2 * 1024
	cl := NewCluster(cfg)
	t.Cleanup(cl.Close)
	ids, err := cl.SeedPages(2, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	var cb *park
	cl.WrapConns(nil, func(id ident.ClientID, conn msg.Client) msg.Client {
		if id != 2 {
			return conn
		}
		cb = newPark(msg.ClientCaller(conn), msg.MCallbackObject) // answer held
		cb.deliver = true
		return msg.ClientConn{Caller: cb}
	})
	c1, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if c1.ID() != 1 || c2.ID() != 2 {
		t.Fatalf("clients are %v, %v; the wrapper expects 1 and 2", c1.ID(), c2.ID())
	}
	return cl, ids, c1, c2, cb
}

// fillLog runs 200 one-object transactions of c's over page pid, which
// fill a 2 KiB log many times over, and reports the first error.
func fillLog(c *Client, pid page.ID) chan error {
	filled := make(chan error, 1)
	go func() {
		for round := 0; round < 200; round++ {
			if err := <-writeTxn(c, byte(round), page.ObjectID{Page: pid, Slot: uint16(round % 8)}); err != nil {
				filled <- fmt.Errorf("round %d: %w", round, err)
				return
			}
		}
		filled <- nil
	}()
	return filled
}

// TestAbortDurableBeforeReclaim: an aborted transaction whose update
// already reached the server's disk leaves the active transactions
// only with its abort durable.  Were the compensation and abort records
// still volatile, a §3.6 reclaim could drop the update below them, and
// a crash would lose them: restart would find no loser to undo, and the
// server's copy would keep the aborted value.
func TestAbortDurableBeforeReclaim(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 0
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	c := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	seeded, err := cl.ReadObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := overwriteNow(txn, obj, val('X')); err != nil {
		t.Fatal(err)
	}
	// The update leaves with its page, and the server forces the page:
	// its DPT entry retires, so only the transaction pins its record.
	if err := c.ReplacePage(obj.Page); err != nil {
		t.Fatal(err)
	}
	if err := c.force(obj.Page); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.reclaimLocked()
	c.mu.Unlock()
	cl.CrashClient(c.ID())
	c2, err := cl.RestartClient(c.ID())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	check, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := check.Read(obj)
	if err != nil || !bytes.Equal(got, seeded) {
		t.Fatalf("after the abort and a crash, %v = %q (err %v), want the seeded %q", obj, got, err, seeded)
	}
	check.Commit()
}

// TestRestartEntryWithNothingToRedoRetires: a page whose updates the
// server already holds re-enters the DPT at restart (the checkpoint
// listed it) with nothing to redo.  Its entry must then wait for a
// force like a shipped page's, or no §3.6 force could retire it and the
// log below it would stay pinned: "private log full and nothing
// reclaimable".
func TestRestartEntryWithNothingToRedoRetires(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 0
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	c := cs[0]
	pid := ids[0]
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := overwriteNow(txn, page.ObjectID{Page: pid, Slot: 0}, val('Y')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// The server gets the page but does not force it; the checkpoint
	// lists the page in its DPT.
	if err := c.ReplacePage(pid); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cl.CrashClient(c.ID())
	c2, err := cl.RestartClient(c.ID())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	c2.mu.Lock()
	_, listed := c2.dpt[pid]
	c2.mu.Unlock()
	if !listed {
		t.Fatal("the restarted client's DPT lacks the page: the case is not exercised")
	}
	if err := c2.freeLogSpace(); err != nil {
		t.Fatalf("freeLogSpace after restart: %v", err)
	}
	c2.mu.Lock()
	_, listed = c2.dpt[pid]
	c2.mu.Unlock()
	if listed {
		t.Fatal("the server forced the page, yet its DPT entry stayed")
	}
}
