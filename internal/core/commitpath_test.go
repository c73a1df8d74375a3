package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// TestCommitPathZeroAllocs pins the paper's headline path to its
// allocation budget.  With the locks cached and the pages resident, a
// transaction allocates its handle and nothing else: Begin, k
// overwrites and Commit make at most one allocation, each Read adds the
// copy it returns, and an Abort adds at most one per update it undoes
// (the log read).
func TestCommitPathZeroAllocs(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 4, 1)
	c := cs[0]
	objs := make([]page.ObjectID, 0, 8)
	for i := 0; i < 8; i++ {
		objs = append(objs, page.ObjectID{Page: ids[i%len(ids)], Slot: uint16(i)})
	}
	var err error
	run := func(k, reads int, abort bool) func() {
		v := val(byte('a' + k))
		return func() {
			txn, e := c.Begin()
			if e != nil {
				err = e
				return
			}
			for _, o := range objs[:k] {
				if e := txn.Overwrite(o, v); e != nil {
					err = e
				}
			}
			for _, o := range objs[:reads] {
				if _, e := txn.Read(o); e != nil {
					err = e
				}
			}
			if abort {
				e = txn.Abort()
			} else {
				e = txn.Commit()
			}
			if e != nil {
				err = e
			}
		}
	}
	// Warm up: cache every lock, fetch every page, grow every buffer.
	for i := 0; i < 100; i++ {
		run(8, 8, i%2 == 0)()
	}
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 8; k++ {
		commit := testing.AllocsPerRun(200, run(k, 0, false))
		withReads := testing.AllocsPerRun(200, run(k, 3, false))
		abort := testing.AllocsPerRun(200, run(k, 0, true))
		if err != nil {
			t.Fatal(err)
		}
		if commit > 1 {
			t.Errorf("k=%d: Begin + overwrites + Commit allocates %v times, want <= 1", k, commit)
		}
		if withReads != commit+3 {
			t.Errorf("k=%d: three reads add %v allocations, want 3", k, withReads-commit)
		}
		if abort > float64(1+k) {
			t.Errorf("k=%d: Begin + overwrites + Abort allocates %v times, want <= %d", k, abort, 1+k)
		}
	}
}

// TestTxnUsesReleasedAndAccessHistory runs committed, aborted and
// partially rolled-back transactions mixing shared and exclusive,
// object and page (structural) locks.  Every finished transaction must
// have left the LLM's use tables, and the per-page access history —
// and with it what a de-escalation installs — must be exactly what
// this history has always produced.
func TestTxnUsesReleasedAndAccessHistory(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 3, 1)
	c := cs[0]
	r := rand.New(rand.NewSource(7))
	var finished []ident.TxnID
	for i := 0; i < 20; i++ {
		txn, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for j := 1 + r.Intn(4); j > 0; j-- {
			obj := page.ObjectID{Page: ids[r.Intn(len(ids))], Slot: uint16(r.Intn(8))}
			switch r.Intn(8) {
			case 0, 1, 2, 3:
				_, err = txn.Read(obj)
			case 4, 5:
				err = txn.Overwrite(obj, val(byte(i)))
			case 6:
				sp := txn.Savepoint()
				if err = txn.Overwrite(obj, val(byte(i))); err == nil {
					err = txn.RollbackTo(sp)
				}
			default:
				err = txn.Resize(obj, val(byte(i))) // structural: page-name use
			}
			if err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		}
		if r.Intn(3) == 0 {
			err = txn.Abort()
		} else {
			err = txn.Commit()
		}
		if err != nil {
			t.Fatalf("txn %d end: %v", i, err)
		}
		finished = append(finished, txn.ID())
	}
	for _, id := range finished {
		if uses := c.LLM().TxnUses(id); len(uses) != 0 {
			t.Fatalf("finished %v still uses %v", id, uses)
		}
	}
	render := func(ols []lock.ObjLock) string {
		sort.Slice(ols, func(a, b int) bool { return ols[a].Slot < ols[b].Slot })
		return fmt.Sprint(ols)
	}
	wantAccessed := []string{
		"[{1 S} {2 X} {3 S} {4 X} {5 X} {6 X} {7 X}]",
		"[{0 X} {1 X} {2 X} {3 S} {4 S} {5 S} {6 X} {7 X}]",
		"[{0 X} {1 S} {2 X} {3 X} {4 S} {5 X} {6 X} {7 S}]",
	}
	for i, pid := range ids {
		if got := render(c.LLM().AccessedObjects(pid)); got != wantAccessed[i] {
			t.Errorf("page %d accessed %q, want %q", pid, got, wantAccessed[i])
		}
	}
	// A second client's reads de-escalate the page locks: the object
	// locks left behind are the access history.
	other, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	txn, err := other.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range ids {
		if _, err := txn.Read(page.ObjectID{Page: pid, Slot: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	wantCached := []string{
		"[{1 S} {2 X} {3 S} {4 X} {5 X} {6 X} {7 X}]",
		"[{0 X} {1 S} {2 X} {3 S} {4 S} {5 S} {6 X} {7 X}]",
		"[{0 X} {1 S} {2 X} {3 X} {4 S} {5 X} {6 X} {7 S}]",
	}
	for i, pid := range ids {
		if c.LLM().CachedMode(lock.PageName(pid)) != lock.None {
			t.Errorf("page %d: page lock survived the other client's read", pid)
		}
		if got := render(c.LLM().CachedObjLocks(pid)); got != wantCached[i] {
			t.Errorf("page %d de-escalated to %q, want %q", pid, got, wantCached[i])
		}
	}
}

// TestCallbackWaitsForLocalHolder: a callback for an object that a
// local transaction updated waits for that transaction's end, however
// many other local transactions commit on the same page meanwhile.  The
// holder writes twice; a reader that saw the first value would have
// read uncommitted data.
func TestCallbackWaitsForLocalHolder(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 1}

	var stop atomic.Bool
	busy := make(chan error, 1)
	go func() {
		// Local commits on the other objects of the page, racing the
		// callbacks.
		var err error
		for i := 0; !stop.Load() && err == nil; i++ {
			var txn *Txn
			if txn, err = a.Begin(); err != nil {
				break
			}
			if err = txn.Overwrite(page.ObjectID{Page: ids[0], Slot: uint16(2 + i%6)}, val('z')); err != nil {
				txn.Abort()
				if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout) {
					err = nil
				}
				continue
			}
			err = txn.Commit()
		}
		busy <- err
	}()

	for round := 0; round < 10; round++ {
		holder, err := a.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := holder.Overwrite(obj, val('x')); err != nil {
			t.Fatal(err)
		}
		read := make(chan []byte, 1)
		readErr := make(chan error, 1)
		go func() {
			txn, err := b.Begin()
			if err != nil {
				readErr <- err
				return
			}
			got, err := txn.Read(obj)
			if err == nil {
				err = txn.Commit()
			}
			if err != nil {
				readErr <- err
				return
			}
			read <- got
		}()
		select {
		case got := <-read:
			t.Fatalf("round %d: read %q while the holder was active", round, got)
		case err := <-readErr:
			t.Fatalf("round %d: %v", round, err)
		case <-time.After(20 * time.Millisecond):
		}
		final := val(byte('A' + round))
		if err := holder.Overwrite(obj, final); err != nil {
			t.Fatal(err)
		}
		if err := holder.Commit(); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-read:
			if !bytes.Equal(got, final) {
				t.Fatalf("round %d: read %q, want the committed %q", round, got, final)
			}
		case err := <-readErr:
			t.Fatalf("round %d: %v", round, err)
		}
	}
	stop.Store(true)
	if err := <-busy; err != nil {
		t.Fatal(err)
	}
}

// refusingStore is a client log device that refuses checkpoint records
// while refuse is set.
type refusingStore struct {
	*wal.MemStore
	refuse atomic.Bool
}

var errRefused = errors.New("checkpoint append refused")

func (s *refusingStore) Append(payload []byte) (wal.LSN, error) {
	return s.AppendHeadroom(payload, 0)
}

func (s *refusingStore) AppendHeadroom(payload []byte, headroom uint64) (wal.LSN, error) {
	if s.refuse.Load() && wal.Kind(payload[0]) == wal.KindCheckpoint {
		return wal.NilLSN, errRefused
	}
	return s.MemStore.AppendHeadroom(payload, headroom)
}

// TestAutoCheckpointFailureKeepsCommit: once the commit record is
// durable the commit has happened, so a failing automatic checkpoint
// after it must not make Commit report an error — a caller retrying on
// error would apply the transaction twice.  The next commit retries the
// checkpoint.
func TestAutoCheckpointFailureKeepsCommit(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 1
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := &refusingStore{MemStore: wal.NewMemStore(0)}
	st.refuse.Store(true)
	c, err := cl.AddClientWithLog(st)
	if err != nil {
		t.Fatal(err)
	}
	obj := page.ObjectID{Page: ids[0], Slot: 2}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	base, err := txn.ReadCounter(obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := txn.Add(obj, 5); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d with the checkpoint refused: %v", i, err)
		}
		if txn, err = c.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Metrics.Checkpoints.Load(); n != 0 {
		t.Fatalf("%d checkpoints written through a refusing log", n)
	}
	st.refuse.Store(false)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := c.Metrics.Checkpoints.Load(); n != 1 {
		t.Fatalf("the next commit wrote %d checkpoints, want the retried one", n)
	}

	cl.CrashClient(c.ID())
	c, err = cl.RestartClient(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	txn, err = c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := txn.ReadCounter(obj)
	if err != nil {
		t.Fatal(err)
	}
	if got != base+10 {
		t.Fatalf("counter %d after restart, want %d (two commits of +5, each applied once)", got, base+10)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}
