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

// TestSharedCommitAllocs is TestCommitPathZeroAllocs's networked twin.
// Two clients on a loopback cluster take turns committing one overwrite
// each on a page ring 16 times their cache, so every commit misses: its
// lock request makes room first and carries the dirty page it evicts,
// its grant carries the page image, and the server merges the carried
// page and reads storage.  A page image copy costs a fixed number of
// allocations, not one per slot: a commit measured 42 allocations (47
// when the evicted page went in a ship of its own, 133 before page
// copies kept their payloads in one array and the GLM reused its page
// tables), and the bound is that plus 10 %.
func TestSharedCommitAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.ClientPool = 4
	cfg.ServerPool = 16
	const pages, slots = 64, 16
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(pages, slots, 32)
	if err != nil {
		t.Fatal(err)
	}
	var cs [2]*Client
	for i := range cs {
		if cs[i], err = cl.AddClient(); err != nil {
			t.Fatal(err)
		}
	}
	v := bytes.Repeat([]byte{'s'}, 32)
	n := 0
	commit := func(c *Client, k int) {
		txn, e := c.Begin()
		if e == nil {
			e = txn.Overwrite(page.ObjectID{Page: ids[k%pages], Slot: uint16(k % slots)}, v)
			if e == nil {
				e = txn.Commit()
			}
		}
		if e != nil {
			err = e
		}
	}
	// Each client walks the ring half a turn apart from the other, so a
	// page it asks for is never in its cache nor locked by the other.
	round := func() {
		commit(cs[0], n)
		commit(cs[1], n+pages/2)
		n++
	}
	for i := 0; i < 2*pages; i++ {
		round()
	}
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	shipped, fetched := cs[0].Metrics.PagesShipped.Load(), cs[0].Metrics.PagesFetched.Load()
	perCommit := testing.AllocsPerRun(runs, round) / 2
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun makes one more call than it counts.
	if d := cs[0].Metrics.PagesFetched.Load() - fetched; d < runs {
		t.Fatalf("client 0 installed %d page images in %d commits: not every commit missed", d, runs)
	}
	if d := cs[0].Metrics.PagesShipped.Load() - shipped; d < runs {
		t.Fatalf("client 0 shipped %d pages in %d commits: not every commit evicted a dirty page", d, runs)
	}
	const bound = 42 * 1.1
	t.Logf("%.1f allocations per missing commit", perCommit)
	if perCommit > bound {
		t.Errorf("a missing commit allocates %.1f times, want <= %.1f", perCommit, bound)
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
			// The write's lock is asked for at commit.
			if err = txn.Overwrite(page.ObjectID{Page: ids[0], Slot: uint16(2 + i%6)}, val('z')); err == nil {
				err = txn.Commit()
			}
			if err != nil {
				txn.Abort()
				if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout) {
					err = nil
				}
			}
		}
		busy <- err
	}()

	for round := 0; round < 10; round++ {
		holder, err := a.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := overwriteNow(holder, obj, val('x')); err != nil {
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
// while refuse is set.  It holds its MemStore as a plain wal.Store, so
// the log hands it whole payloads (the MemStore's own Appender methods
// would encode past it).
type refusingStore struct {
	wal.Store
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
	return s.Store.(wal.HeadroomAppender).AppendHeadroom(payload, headroom)
}

// Crash drops the MemStore's unforced tail, as a client crash does.
func (s *refusingStore) Crash() { s.Store.(*wal.MemStore).Crash() }

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
	st := &refusingStore{Store: wal.NewMemStore(0)}
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

// gatedStore is a client log device whose flush, once armed, finishes
// and then waits for open: the commit that forced it has its record on
// disk and has not yet released its locks.
type gatedStore struct {
	wal.Store
	armed   atomic.Bool
	reached chan struct{}
	open    chan struct{}
}

func (s *gatedStore) Flush(upTo wal.LSN) error {
	err := s.Store.Flush(upTo)
	if s.armed.CompareAndSwap(true, false) {
		close(s.reached)
		<-s.open
	}
	return err
}

// Crash drops the MemStore's unforced tail, as a client crash does.
func (s *gatedStore) Crash() { s.Store.(*wal.MemStore).Crash() }

// TestTxnEndsAcrossClientCrashAndRestart: a transaction passes its alive
// checks and forces its commit record, then its client crashes (the
// LLM's tables are cleared) and restarts, and a later transaction of
// the restarted client takes locks, before the first one ends.  Its
// Release drops only its own uses — none of the later transaction's —
// and the database read back equals the replay of the committed
// transactions, the first one among them: its commit record was durable.
func TestTxnEndsAcrossClientCrashAndRestart(t *testing.T) {
	cl, ids, _ := seededCluster(t, testConfig(), 2, 0)
	st := &gatedStore{Store: wal.NewMemStore(0), reached: make(chan struct{}), open: make(chan struct{})}
	a, err := cl.AddClientWithLog(st)
	if err != nil {
		t.Fatal(err)
	}
	objs := []page.ObjectID{{Page: ids[0], Slot: 1}, {Page: ids[0], Slot: 2}, {Page: ids[1], Slot: 3}}
	ref := make(map[page.ObjectID][]byte)
	readAll := func(c *Client) map[page.ObjectID][]byte {
		t.Helper()
		txn, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[page.ObjectID][]byte)
		for _, pid := range ids {
			for s := uint16(0); s < 8; s++ {
				obj := page.ObjectID{Page: pid, Slot: s}
				if out[obj], err = txn.Read(obj); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for obj, v := range readAll(a) {
		ref[obj] = v
	}
	// Cache every object's X lock at a.
	warm, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := overwriteNow(warm, o, val('0')); err != nil {
			t.Fatal(err)
		}
		ref[o] = val('0')
	}
	if err := warm.Commit(); err != nil {
		t.Fatal(err)
	}

	first, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := first.Overwrite(o, val('1')); err != nil {
			t.Fatal(err)
		}
	}
	st.armed.Store(true)
	committed := make(chan error, 1)
	go func() { committed <- first.Commit() }()
	<-st.reached
	for _, o := range objs {
		ref[o] = val('1') // the commit record is durable
	}

	cl.CrashClient(a.ID())
	a2, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	later, err := a2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := later.Overwrite(objs[0], val('2')); err != nil {
		t.Fatal(err)
	}
	if _, err := later.Read(objs[1]); err != nil {
		t.Fatal(err)
	}
	close(st.open)
	if err := <-committed; err != nil {
		t.Fatalf("the first transaction's commit: %v", err)
	}
	uses := a2.LLM().TxnUses(later.ID())
	sort.Slice(uses, func(i, j int) bool { return uses[i].Name.Slot < uses[j].Name.Slot })
	if got, want := fmt.Sprint(uses), fmt.Sprint([]lock.Holding{
		{Name: lock.ObjName(objs[0]), Mode: lock.X}, {Name: lock.ObjName(objs[1]), Mode: lock.S},
	}); got != want {
		t.Fatalf("the later transaction uses %s after the first one ended, want %s", got, want)
	}
	if err := later.Commit(); err != nil {
		t.Fatal(err)
	}
	ref[objs[0]] = val('2')

	cl.CrashClient(a.ID())
	a3, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	for obj, got := range readAll(a3) {
		if !bytes.Equal(got, ref[obj]) {
			t.Errorf("object %v = %q, reference %q", obj, got, ref[obj])
		}
	}
}

// BenchmarkPrivateTxn runs the paper's headline path: Begin, five
// overwrites and three reads whose locks the client caches and whose
// pages it holds, and Commit (a private-log append and force).
func BenchmarkPrivateTxn(b *testing.B) {
	cl := NewCluster(testConfig())
	ids, err := cl.SeedPages(4, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		b.Fatal(err)
	}
	objs := make([]page.ObjectID, 8)
	for i := range objs {
		objs[i] = page.ObjectID{Page: ids[i%len(ids)], Slot: uint16(i)}
	}
	v := val('b')
	run := func() error {
		txn, err := c.Begin()
		if err != nil {
			return err
		}
		for _, o := range objs[:5] {
			if err := txn.Overwrite(o, v); err != nil {
				return err
			}
		}
		for _, o := range objs[5:] {
			if _, err := txn.Read(o); err != nil {
				return err
			}
		}
		return txn.Commit()
	}
	for i := 0; i < 10; i++ { // cache the locks and pages
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
