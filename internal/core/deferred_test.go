package core

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// txnRecords returns the records of transaction id in c's private log.
func txnRecords(t *testing.T, c *Client, id ident.TxnID) []wal.Record {
	t.Helper()
	var out []wal.Record
	sc := c.Log().Scan(c.Log().Horizon())
	for sc.Next() {
		switch r := sc.Record().(type) {
		case *wal.Update:
			if r.TxnID == id {
				out = append(out, r)
			}
		case *wal.CLR:
			if r.TxnID == id {
				out = append(out, r)
			}
		case *wal.Abort:
			if r.TxnID == id {
				out = append(out, r)
			}
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return out
}

// lockExchanges counts the Lock and LockBatch round trips cl's
// transport has carried.
func lockExchanges(cl *Cluster) uint64 {
	n := cl.Stats.ByName()
	return (n["lock"] + n["lock-batch"]) / 2
}

// TestDeferredWriteReadOwn: an Overwrite the cache does not cover sends
// nothing, and the transaction's next Read of the object returns the
// new value; the commit makes it visible to another client.
func TestDeferredWriteReadOwn(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 3}
	txn, _ := a.Begin()
	before := cl.Stats.Messages()
	if err := txn.Overwrite(obj, val('n')); err != nil {
		t.Fatal(err)
	}
	if n := cl.Stats.Messages() - before; n != 0 {
		t.Fatalf("a deferred Overwrite sent %d messages, want none", n)
	}
	got, err := txn.Read(obj)
	if err != nil || !bytes.Equal(got, val('n')) {
		t.Fatalf("read of the deferred write: %q, %v; want %q", got, err, val('n'))
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, b, obj); !bytes.Equal(got, val('n')) {
		t.Fatalf("b read %q, want the committed %q", got, val('n'))
	}
}

// TestDeferredWriteErrorsSurfaceAtFlush: a deferred write's lock error
// and its page error come back typed from the Read or Commit that
// applies it, and from every later method but Abort; the Abort leaves
// no record of the write in the log and no change on the page.
func TestDeferredWriteErrorsSurfaceAtFlush(t *testing.T) {
	// noTrace checks that txn logged nothing and obj reads want.
	noTrace := func(t *testing.T, c *Client, txn *Txn, reader *Client, obj page.ObjectID, want []byte) {
		t.Helper()
		if recs := txnRecords(t, c, txn.ID()); len(recs) != 0 {
			t.Fatalf("the aborted transaction logged %d records, want none", len(recs))
		}
		if got := readObj(t, reader, obj); !bytes.Equal(got, want) {
			t.Fatalf("object reads %q after the abort, want %q", got, want)
		}
	}

	t.Run("timeout", func(t *testing.T) {
		cfg := testConfig()
		cfg.LockTimeout = 100 * time.Millisecond
		_, ids, cs := seededCluster(t, cfg, 1, 2)
		a, b := cs[0], cs[1]
		obj := page.ObjectID{Page: ids[0], Slot: 0}
		ta, _ := a.Begin()
		if err := overwriteNow(ta, obj, val('a')); err != nil {
			t.Fatal(err)
		}
		tb, _ := b.Begin()
		if err := tb.Overwrite(obj, val('b')); err != nil {
			t.Fatal(err)
		}
		if err := tb.Commit(); !errors.Is(err, lock.ErrTimeout) {
			t.Fatalf("commit: %v, want lock.ErrTimeout", err)
		}
		if _, err := tb.Read(page.ObjectID{Page: ids[0], Slot: 1}); !errors.Is(err, lock.ErrTimeout) {
			t.Fatalf("read after the failed flush: %v, want lock.ErrTimeout", err)
		}
		if err := tb.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := ta.Commit(); err != nil {
			t.Fatal(err)
		}
		noTrace(t, b, tb, b, obj, val('a'))
	})

	t.Run("deadlock", func(t *testing.T) {
		_, ids, c1, c2 := objectCluster(t, 2, nil, nil)
		o1 := page.ObjectID{Page: ids[0], Slot: 0}
		o2 := page.ObjectID{Page: ids[1], Slot: 0}
		t1, _ := c1.Begin()
		t2, _ := c2.Begin()
		if err := overwriteNow(t1, o1, val('1')); err != nil {
			t.Fatal(err)
		}
		if err := overwriteNow(t2, o2, val('2')); err != nil {
			t.Fatal(err)
		}
		if err := t1.Overwrite(o2, val('1')); err != nil {
			t.Fatal(err)
		}
		if err := t2.Overwrite(o1, val('2')); err != nil {
			t.Fatal(err)
		}
		type result struct {
			c        *Client
			txn      *Txn
			deferred page.ObjectID
			err      error
		}
		results := make(chan result, 2)
		go func() { _, err := t1.Read(o1); results <- result{c1, t1, o2, err} }()
		go func() { _, err := t2.Read(o2); results <- result{c2, t2, o1, err} }()
		var victim result
		select {
		case victim = <-results:
		case <-time.After(4 * time.Second):
			t.Fatal("no victim before LockTimeout")
		}
		if !errors.Is(victim.err, lock.ErrDeadlock) {
			t.Fatalf("first result %v, want ErrDeadlock", victim.err)
		}
		if err := victim.txn.Commit(); !errors.Is(err, lock.ErrDeadlock) {
			t.Fatalf("commit after the failed flush: %v, want ErrDeadlock", err)
		}
		if err := victim.txn.Abort(); err != nil {
			t.Fatal(err)
		}
		survivor := <-results
		if survivor.err != nil {
			t.Fatalf("survivor: %v", survivor.err)
		}
		if err := survivor.txn.Commit(); err != nil {
			t.Fatal(err)
		}
		var recs int
		for _, rec := range txnRecords(t, victim.c, victim.txn.ID()) {
			if u, ok := rec.(*wal.Update); ok && u.Object() == victim.deferred {
				recs++
			}
		}
		if recs != 0 {
			t.Fatalf("the victim logged its deferred write %d times, want never", recs)
		}
		tag := val('1')
		if survivor.c == c2 {
			tag = val('2')
		}
		if got := readObj(t, victim.c, victim.deferred); !bytes.Equal(got, tag) {
			t.Fatalf("the victim's deferred object reads %q, want the survivor's %q", got, tag)
		}
	})

	for _, tc := range []struct {
		name string
		obj  func(ids []page.ID) page.ObjectID
		data []byte
		want error
	}{
		{"bad-slot", func(ids []page.ID) page.ObjectID { return page.ObjectID{Page: ids[0], Slot: 20} }, val('x'), page.ErrBadSlot},
		{"size-mismatch", func(ids []page.ID) page.ObjectID { return page.ObjectID{Page: ids[0], Slot: 2} }, []byte("short"), page.ErrSizeMismatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ids, cs := seededCluster(t, testConfig(), 2, 1)
			c := cs[0]
			obj := tc.obj(ids)
			orig := readObj(t, c, page.ObjectID{Page: ids[0], Slot: 2})
			txn, _ := c.Begin()
			if err := txn.Overwrite(obj, tc.data); err != nil {
				t.Fatalf("deferred write: %v", err)
			}
			if _, err := txn.Read(page.ObjectID{Page: ids[1], Slot: 0}); !errors.Is(err, tc.want) {
				t.Fatalf("read: %v, want %v", err, tc.want)
			}
			if err := txn.Commit(); !errors.Is(err, tc.want) {
				t.Fatalf("commit: %v, want %v", err, tc.want)
			}
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
			noTrace(t, c, txn, c, page.ObjectID{Page: ids[0], Slot: 2}, orig)
		})
	}
}

// TestDeferredWritesMessageCount: writes and reads of seven objects the
// cache covers none of, W W R W R W W and the commit, take exactly three
// lock exchanges — one per read and one at the commit — and no fetch.
func TestDeferredWritesMessageCount(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 7, 1)
	c := cs[0]
	txn, _ := c.Begin()
	locks, fetches := lockExchanges(cl), cl.Stats.ByName()["fetch"]
	for i, op := range "WWRWRWW" {
		obj := page.ObjectID{Page: ids[i], Slot: uint16(i)}
		var err error
		if op == 'W' {
			err = txn.Overwrite(obj, val(byte('a'+i)))
		} else {
			_, err = txn.Read(obj)
		}
		if err != nil {
			t.Fatalf("op %d (%c): %v", i, op, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := lockExchanges(cl) - locks; n != 3 {
		t.Fatalf("%d lock exchanges, want 3", n)
	}
	if n := cl.Stats.ByName()["fetch"] - fetches; n != 0 {
		t.Fatalf("%d fetch messages, want none: the grants carry the pages", n)
	}
	for i, op := range "WWRWRWW" {
		obj := page.ObjectID{Page: ids[i], Slot: uint16(i)}
		if got := readObj(t, c, obj); op == 'W' && !bytes.Equal(got, val(byte('a'+i))) {
			t.Fatalf("object %d reads %q, want %q", i, got, val(byte('a'+i)))
		}
	}
}

// TestCrashWithDeferredWrites: a client that crashes while it still
// holds deferred writes has logged none of them, and after its restart
// every object reads as a replay of the committed transactions.
func TestCrashWithDeferredWrites(t *testing.T) {
	cl, ids, cs := seededCluster(t, testConfig(), 4, 2)
	a, b := cs[0], cs[1]
	ref := make(map[page.ObjectID][]byte)
	for _, pid := range ids {
		for slot := uint16(0); slot < 8; slot++ {
			o := page.ObjectID{Page: pid, Slot: slot}
			ref[o] = readObj(t, b, o)
		}
	}
	committed := []page.ObjectID{{Page: ids[0], Slot: 0}, {Page: ids[1], Slot: 1}}
	mustDone(t, writeTxn(a, 'c', committed...), "a's commit")
	for _, o := range committed {
		ref[o] = val('c')
	}
	txn, _ := a.Begin()
	for _, o := range []page.ObjectID{{Page: ids[2], Slot: 0}, {Page: ids[3], Slot: 3}, {Page: ids[0], Slot: 0}} {
		if err := txn.Overwrite(o, val('p')); err != nil {
			t.Fatal(err)
		}
	}
	if recs := txnRecords(t, a, txn.ID()); len(recs) != 0 {
		t.Fatalf("the deferred writes logged %d records, want none", len(recs))
	}
	cl.CrashClient(a.ID())
	a, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	for o, want := range ref {
		if got := readObj(t, a, o); !bytes.Equal(got, want) {
			t.Fatalf("%v reads %q after the restart, want %q", o, got, want)
		}
	}
}

// batchTap records the most pages one lock request of the wrapped conn
// asked for.
type batchTap struct {
	next msg.Caller
	mu   *sync.Mutex
	most *int
}

func (b batchTap) Call(m msg.Method, req any) (any, error) {
	var pids []page.ID
	switch m {
	case msg.MLock:
		pids = []page.ID{req.(msg.LockReq).Name.Page}
	case msg.MLockBatch:
		for _, it := range req.(msg.LockBatchReq).Items {
			if !slices.Contains(pids, it.Name.Page) {
				pids = append(pids, it.Name.Page)
			}
		}
	}
	b.mu.Lock()
	*b.most = max(*b.most, len(pids))
	b.mu.Unlock()
	return b.next.Call(m, req)
}

// TestDeferredWritesFitThePool: with a two-page client pool, writes to
// five pages go in lock requests of at most two pages each, so no
// request brings in more pages than the pool holds: no page is evicted
// before its write and fetched back.
func TestDeferredWritesFitThePool(t *testing.T) {
	cfg := testConfig()
	cfg.ClientPool = 2
	var mu sync.Mutex
	most := 0
	cl := NewCluster(cfg)
	cl.WrapConns(func(_, _ int, conn msg.Server) msg.Server {
		return msg.ServerConn{Caller: batchTap{next: msg.ServerCaller(conn), mu: &mu, most: &most}}
	}, nil)
	ids, err := cl.SeedPages(5, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	locks, fetches := lockExchanges(cl), cl.Stats.ByName()["fetch"]
	objs := make([]page.ObjectID, len(ids))
	for i, pid := range ids {
		objs[i] = page.ObjectID{Page: pid, Slot: 1}
	}
	mustDone(t, writeTxn(c, 'w', objs...), "the write")
	mu.Lock()
	defer mu.Unlock()
	if most > cfg.ClientPool {
		t.Fatalf("a lock request asked for %d pages, more than the %d-page pool", most, cfg.ClientPool)
	}
	if n := lockExchanges(cl) - locks; n != 3 {
		t.Fatalf("%d lock exchanges, want 3 (2 + 2 + 1 pages)", n)
	}
	if n := cl.Stats.ByName()["fetch"] - fetches; n != 0 {
		t.Fatalf("%d fetch messages, want none", n)
	}
}

// TestDeferredWriteCopiesValue: the caller may reuse its value buffer
// once Overwrite returns; the deferred write keeps the value it was
// given.
func TestDeferredWriteCopiesValue(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 1, 1)
	c := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 5}
	buf := val('k')
	txn, _ := c.Begin()
	if err := txn.Overwrite(obj, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, val('!'))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, c, obj); !bytes.Equal(got, val('k')) {
		t.Fatalf("read %q, want the value given to Overwrite %q", got, val('k'))
	}
}

// TestDeferredWriteSavepoint: writes deferred before a savepoint precede
// it, and those deferred after it roll back with RollbackTo.
func TestDeferredWriteSavepoint(t *testing.T) {
	_, ids, cs := seededCluster(t, testConfig(), 2, 1)
	c := cs[0]
	o1 := page.ObjectID{Page: ids[0], Slot: 1}
	o2 := page.ObjectID{Page: ids[1], Slot: 1}
	orig := readObj(t, c, o2)
	txn, _ := c.Begin()
	if err := txn.Overwrite(o1, val('1')); err != nil {
		t.Fatal(err)
	}
	sp := txn.Savepoint()
	if err := txn.Overwrite(o2, val('2')); err != nil {
		t.Fatal(err)
	}
	if err := txn.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, c, o1); !bytes.Equal(got, val('1')) {
		t.Fatalf("o1 reads %q, want %q", got, val('1'))
	}
	if got := readObj(t, c, o2); !bytes.Equal(got, orig) {
		t.Fatalf("o2 reads %q, want its value before the savepoint %q", got, orig)
	}
}
