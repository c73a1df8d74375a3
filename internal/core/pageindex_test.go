package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// scanPageRecords is the oracle for Client.pageRecords: the filter of the
// whole-log scans RecoverPage and CallbackList ran for every page before
// the restart index existed, started at from.
func scanPageRecords(t *testing.T, c *Client, pid page.ID, from wal.LSN) []wal.LSN {
	t.Helper()
	var out []wal.LSN
	sc := c.log.Scan(from)
	for sc.Next() {
		rec := sc.Record()
		if cb, isCB := rec.(*wal.Callback); isCB {
			if cb.Object.Page == pid {
				out = append(out, sc.LSN())
			}
			continue
		}
		if p, _, redoable := recTarget(rec); redoable && p == pid {
			out = append(out, sc.LSN())
		}
	}
	if sc.Err() != nil {
		t.Fatalf("oracle scan from %v: %v", from, sc.Err())
	}
	return out
}

// logLSNs returns the LSN of every readable record, then the end of the
// log: every value of `from` that can tell two answers apart.
func logLSNs(t *testing.T, c *Client) []wal.LSN {
	t.Helper()
	var out []wal.LSN
	sc := c.log.Scan(c.log.Horizon())
	for sc.Next() {
		out = append(out, sc.LSN())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return append(out, c.log.End())
}

// checkIndexAgainstScan compares the index with the oracle for every page
// and every from.
func checkIndexAgainstScan(t *testing.T, tag string, c *Client, pids []page.ID) {
	t.Helper()
	for _, from := range logLSNs(t, c) {
		for _, pid := range pids {
			got, err := c.pageRecords(pid, from)
			if err != nil {
				t.Fatalf("%s: %v pageRecords(%d, %v): %v", tag, c.id, pid, from, err)
			}
			want := scanPageRecords(t, c, pid, from)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %v page %d from %v:\nindex %v\n scan %v", tag, c.id, pid, from, got, want)
			}
		}
	}
}

// kindCounts counts the readable records of a client's log by kind.
func kindCounts(t *testing.T, c *Client, into map[wal.Kind]int) {
	t.Helper()
	sc := c.log.Scan(c.log.Horizon())
	for sc.Next() {
		into[sc.Record().Kind()]++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
}

// indexHistory runs rounds single-threaded transactions on random clients
// over a few shared pages of 8-byte objects: overwrites and logical adds,
// a quarter of them rolled back (compensation records), every conflict
// between clients resolved by a callback (callback records).
func indexHistory(t *testing.T, r *rand.Rand, cs []*Client, ids []page.ID, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		c := cs[r.Intn(len(cs))]
		txn, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			obj := page.ObjectID{Page: ids[r.Intn(len(ids))], Slot: uint16(r.Intn(8))}
			if r.Intn(3) == 0 {
				err = txn.Add(obj, int64(r.Intn(100)))
			} else {
				v := make([]byte, 8)
				r.Read(v)
				err = txn.Overwrite(obj, v)
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if r.Intn(4) == 0 {
			err = txn.Abort()
		} else {
			err = txn.Commit()
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestPageIndexMatchesFullScan(t *testing.T) {
	for _, nClients := range []int{2, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("clients=%d/seed=%d", nClients, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				cl := NewCluster(testConfig())
				ids, err := cl.SeedPages(3, 8, 8)
				if err != nil {
					t.Fatal(err)
				}
				cs := make([]*Client, nClients)
				for i := range cs {
					if cs[i], err = cl.AddClient(); err != nil {
						t.Fatal(err)
					}
				}
				indexHistory(t, r, cs, ids, 60)
				for _, c := range cs {
					checkIndexAgainstScan(t, "first build", c, ids) // builds
				}
				// A checkpoint in mid-history: a record kind the index must
				// step over, and the cold path that releases the index of the
				// client taking it.  The others extend theirs.
				if err := cs[0].Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if cs[0].pidx.byPage != nil {
					t.Error("checkpoint kept the restart index")
				}
				indexHistory(t, r, cs, ids, 60)
				kinds := make(map[wal.Kind]int)
				for _, c := range cs {
					checkIndexAgainstScan(t, "extended", c, ids)
					kindCounts(t, c, kinds)
				}
				for _, k := range []wal.Kind{wal.KindUpdate, wal.KindLogical, wal.KindCLR, wal.KindCallback, wal.KindCheckpoint} {
					if kinds[k] == 0 {
						t.Errorf("the history wrote no %v record", k)
					}
				}
			})
		}
	}
}

// TestPageIndexExtendsAndSurvivesReclaim builds the index, queries it
// while transactions append to the same log, then moves the reclaim
// horizon the way the forward path does (transaction end and flush
// notifications reclaim without touching the index) — first past some
// entries, then past everything indexed.
func TestPageIndexExtendsAndSurvivesReclaim(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 4, 1)
	c := cs[0]
	write := func(pid page.ID, tag byte) error {
		txn, err := c.Begin()
		if err != nil {
			return err
		}
		for s := 0; s < 3; s++ {
			if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(s)}, val(tag)); err != nil {
				return err
			}
		}
		return txn.Commit()
	}
	for i := 0; i < 20; i++ {
		if err := write(ids[i%len(ids)], byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkIndexAgainstScan(t, "built", c, ids)

	// Two appenders, a page each, against queries for all four pages.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(pid page.ID) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := write(pid, byte(i)); err != nil {
					t.Errorf("appender on page %d: %v", pid, err)
					return
				}
			}
		}(ids[w])
	}
	prev := make(map[page.ID][]wal.LSN)
	for i := 0; i < 200; i++ {
		pid := ids[i%len(ids)]
		got, err := c.pageRecords(pid, wal.NilLSN)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if p := prev[pid]; len(got) < len(p) || !slices.Equal(got[:len(p)], p) {
			t.Fatalf("query %d: page %d's list is no extension of the one before", i, pid)
		}
		for _, lsn := range got[len(prev[pid]):] {
			rec, _, err := c.log.Read(lsn)
			if err != nil {
				t.Fatalf("query %d: page %d lists %v: %v", i, pid, lsn, err)
			}
			if p, _, _ := recTarget(rec); p != pid {
				t.Fatalf("query %d: page %d lists %v, a record of page %d", i, pid, lsn, p)
			}
		}
		prev[pid] = got
	}
	close(stop)
	wg.Wait()
	checkIndexAgainstScan(t, "extended under appends", c, ids)

	// Reclaim past some entries.
	if err := c.log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	all := prev[ids[0]]
	if err := c.log.Reclaim(all[len(all)/2]); err != nil {
		t.Fatal(err)
	}
	if h := c.log.Horizon(); h <= all[0] {
		t.Fatalf("horizon %v did not pass the first entry %v", h, all[0])
	}
	checkIndexAgainstScan(t, "after reclaim", c, ids)

	// Reclaim past everything indexed, then append: the next query has to
	// resume at the horizon, not at the LSN it stopped at.
	if err := write(ids[2], 'x'); err != nil {
		t.Fatal(err)
	}
	if err := c.log.Reclaim(c.log.End()); err != nil {
		t.Fatal(err)
	}
	if h := c.log.Horizon(); h <= c.pidx.upTo {
		t.Fatalf("horizon %v did not pass the indexed prefix %v", h, c.pidx.upTo)
	}
	if err := write(ids[3], 'y'); err != nil {
		t.Fatal(err)
	}
	checkIndexAgainstScan(t, "after reclaim past the index", c, ids)
}

// countingStore counts the ReadAt calls reaching a log device; onRead,
// when set, runs before each of them.
type countingStore struct {
	wal.Store
	reads  atomic.Int64
	onRead func(n int64)
}

func (s *countingStore) ReadAt(lsn wal.LSN) ([]byte, wal.LSN, error) {
	n := s.reads.Add(1)
	if s.onRead != nil {
		s.onRead(n)
	}
	return s.Store.ReadAt(lsn)
}

// TestPageIndexBuildSurvivesReclaimBesideIt lets a reclaim overtake the
// building pass: it starts at the horizon, below every RedoLSN, so unlike
// the per-page scans it replaces it can lose the record it is about to
// read to a flush notification or a local commit.
func TestPageIndexBuildSurvivesReclaimBesideIt(t *testing.T) {
	cl := NewCluster(testConfig())
	ids, err := cl.SeedPages(2, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: wal.NewMemStore(0)}
	c, err := cl.AddClientWithLog(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		txn, _ := c.Begin()
		if err := txn.Overwrite(page.ObjectID{Page: ids[i%2], Slot: uint16(i % 8)}, val(byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	lsns := logLSNs(t, c)
	newHorizon := lsns[len(lsns)/2]
	base := store.reads.Load()
	store.onRead = func(n int64) {
		if n == base+3 { // the third record of the pass
			if err := store.Store.Reclaim(newHorizon); err != nil {
				t.Error(err)
			}
		}
	}
	got, err := c.pageRecords(ids[0], wal.NilLSN)
	store.onRead = nil
	if err != nil {
		t.Fatalf("build with a reclaim beside it: %v", err)
	}
	if h := c.log.Horizon(); h != newHorizon {
		t.Fatalf("horizon %v, want %v", h, newHorizon)
	}
	if want := scanPageRecords(t, c, ids[0], newHorizon); !slices.Equal(got[len(got)-len(want):], want) {
		t.Fatalf("index %v does not end in the readable records %v", got, want)
	}
	checkIndexAgainstScan(t, "after the overtaken build", c, ids)
}

// TestRecoverPageCallsShareOneIndexBuild starts the index the way a
// server restart does — one goroutine per page, all at once — and counts
// the log reads: the first caller's single pass, nothing for the rest.
func TestRecoverPageCallsShareOneIndexBuild(t *testing.T) {
	cl := NewCluster(testConfig())
	ids, err := cl.SeedPages(16, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: wal.NewMemStore(0)}
	c, err := cl.AddClientWithLog(store)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for _, pid := range ids {
			txn, _ := c.Begin()
			if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(round)}, val(byte(round))); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := store.reads.Load()
	var wg sync.WaitGroup
	for _, pid := range ids {
		wg.Add(1)
		go func(pid page.ID) {
			defer wg.Done()
			lsns, err := c.pageRecords(pid, wal.NilLSN)
			if err != nil || len(lsns) != 4 {
				t.Errorf("page %d: %d records, err %v; want its 4 updates", pid, len(lsns), err)
			}
		}(pid)
	}
	wg.Wait()
	if reads, records := store.reads.Load()-before, int64(c.log.RecordsAppended()); reads != records {
		t.Errorf("%d concurrent callers made %d log reads for %d records, want one pass", len(ids), reads, records)
	}
}

// TestServerRestartReadsEachLogOnce is a count gate: a server restart
// that makes two clients recover 128 pages each reads each private log a
// fixed number of times (one pass for the index, then every page's own
// records), not once per page.
func TestServerRestartReadsEachLogOnce(t *testing.T) {
	const nClients, perClient, slots = 2, 128, 8
	cfg := testConfig()
	cfg.ServerPool = nClients * perClient // nothing reaches disk before the crash
	cfg.ClientPool = perClient
	cl := NewCluster(cfg)
	ids, err := cl.SeedPages(nClients*perClient, slots, 16)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*countingStore, nClients)
	cs := make([]*Client, nClients)
	for i := range cs {
		stores[i] = &countingStore{Store: wal.NewMemStore(0)}
		if cs[i], err = cl.AddClientWithLog(stores[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Each client dirties its own 128 pages, three rounds of two objects.
	ref := make(refState)
	for i, c := range cs {
		mine := ids[i*perClient : (i+1)*perClient]
		for round := 0; round < 3; round++ {
			for _, pid := range mine {
				txn, err := c.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 2; s++ {
					obj := page.ObjectID{Page: pid, Slot: uint16((round + 3*s) % slots)}
					v := val(byte(int(pid) + round + s))
					if err := txn.Overwrite(obj, v); err != nil {
						t.Fatal(err)
					}
					ref[obj] = v
				}
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The freshest copies now live in the server's buffer only.
		for _, pid := range mine {
			if err := c.ReplacePage(pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	var records, before int64
	for i, c := range cs {
		if n := len(c.DPTSnapshot()); n != perClient {
			t.Fatalf("%v has %d dirty pages before the crash, want %d", c.id, n, perClient)
		}
		records += int64(c.log.RecordsAppended())
		before += stores[i].reads.Load()
	}

	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}

	var reads int64
	for _, st := range stores {
		reads += st.reads.Load()
	}
	reads -= before
	t.Logf("RestartServer: %d log reads over %d records (%.2f per record)", reads, records, float64(reads)/float64(records))
	if reads > 3*records {
		t.Errorf("RestartServer made %d log reads for %d records: more than 3 per record", reads, records)
	}
	for i, c := range cs {
		txn, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, pid := range ids[i*perClient : (i+1)*perClient] {
			for s := 0; s < slots; s++ {
				obj := page.ObjectID{Page: pid, Slot: uint16(s)}
				want, written := ref[obj]
				if !written {
					continue
				}
				got, err := txn.Read(obj)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("after restart %v = %q, reference %q (err %v)", obj, got, want, err)
				}
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// recoveryStub is a client of which RecoverServer sees only the §3.4
// handlers.
type recoveryStub struct {
	msg.Client // the handlers restart recovery does not call stay nil
	info       msg.RecoveryInfoReply

	failAt   int64 // the CallbackList call that fails; 0 = none
	cbCalls  atomic.Int64
	started  atomic.Int64 // RecoverPage calls entered
	finished atomic.Int64 // RecoverPage calls returned
}

var errStubCallbackList = errors.New("stub: callback list refused")

func (s *recoveryStub) RecoveryInfo() (msg.RecoveryInfoReply, error) { return s.info, nil }

func (s *recoveryStub) CallbackList(msg.CallbackListReq) (msg.CallbackListReply, error) {
	if s.cbCalls.Add(1) == s.failAt {
		return msg.CallbackListReply{}, errStubCallbackList
	}
	return msg.CallbackListReply{}, nil
}

func (s *recoveryStub) RecoverPage(msg.RecoverPageReq) error {
	s.started.Add(1)
	// Long enough that a RecoverServer which does not wait returns first.
	time.Sleep(20 * time.Millisecond)
	s.finished.Add(1)
	return nil
}

// TestRecoverServerWaitsForLaunchedRecoverPageCalls pins step (d)'s error path:
// when gathering the CallBack_P list of the N-th page fails, the page
// recoveries already launched must have returned before RecoverServer
// does, and the pages never dispatched must not stay marked recovering.
func TestRecoverServerWaitsForLaunchedRecoverPageCalls(t *testing.T) {
	const nPages, failAt = 8, 5
	cl := NewCluster(testConfig())
	ids, err := cl.SeedPages(nPages, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	const owner, other = ident.ClientID(1), ident.ClientID(2)
	// The owner has every page dirty and none cached; the other client
	// caches them all, so it is asked for a CallBack_P list per page.
	ownerStub := &recoveryStub{}
	otherStub := &recoveryStub{failAt: failAt}
	for _, pid := range ids {
		ownerStub.info.DPT = append(ownerStub.info.DPT, wal.DPTEntry{Page: pid, RedoLSN: wal.StartLSN()})
		otherStub.info.Cached = append(otherStub.info.Cached, pid)
	}
	part := cl.parts[0]
	srv := NewServer(cl.cfg, part.store, part.slog)
	err = srv.RecoverServer(map[ident.ClientID]msg.Client{owner: ownerStub, other: otherStub}, nil)
	if !errors.Is(err, errStubCallbackList) {
		t.Fatalf("RecoverServer = %v, want the stub's CallbackList error", err)
	}
	started, finished := ownerStub.started.Load(), ownerStub.finished.Load()
	if started != failAt-1 {
		t.Errorf("%d page recoveries launched, want the %d before the failure", started, failAt-1)
	}
	if finished != started {
		t.Errorf("RecoverServer returned with %d of %d page recoveries still running", started-finished, started)
	}
	marked := 0
	for i := range srv.pageShards {
		sh := &srv.pageShards[i]
		sh.mu.Lock()
		marked += len(sh.recovering)
		sh.mu.Unlock()
	}
	if marked > int(started) {
		t.Errorf("%d pages marked recovering, but only %d recoveries were dispatched", marked, started)
	}
}
