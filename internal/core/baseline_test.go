package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"clientlog/internal/page"
)

func TestPageLockingModeStillCorrect(t *testing.T) {
	// GranPage is the authors' earlier page-locking system [20]: two
	// clients updating different objects of the same page serialize on
	// the page lock, but the outcome must match.
	cfg := testConfig()
	cfg.Granularity = GranPage
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	a, b := cs[0], cs[1]
	oa := page.ObjectID{Page: ids[0], Slot: 0}
	ob := page.ObjectID{Page: ids[0], Slot: 1}

	var wg sync.WaitGroup
	run := func(c *Client, obj page.ObjectID, tag byte) {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			txn, _ := c.Begin()
			if err := txn.Overwrite(obj, val(tag)); err != nil {
				txn.Abort()
				t.Errorf("overwrite: %v", err)
				return
			}
			if err := txn.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}
	wg.Add(2)
	go run(a, oa, 'a')
	go run(b, ob, 'b')
	wg.Wait()

	fresh, _ := cl.AddClient()
	txn, _ := fresh.Begin()
	ga, _ := txn.Read(oa)
	gb, _ := txn.Read(ob)
	if !bytes.Equal(ga, val('a')) || !bytes.Equal(gb, val('b')) {
		t.Fatalf("page-lock mode lost updates: %q %q", ga, gb)
	}
	txn.Commit()
}

func TestPageLockModeNeverGrantsObjectLocks(t *testing.T) {
	cfg := testConfig()
	cfg.Granularity = GranPage
	_, ids, cs := seededCluster(t, cfg, 1, 1)
	c := cs[0]
	txn, _ := c.Begin()
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, val('p')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, h := range c.LLM().CachedLocks() {
		if !h.Name.IsPage {
			t.Fatalf("object lock %v cached in page-lock mode", h.Name)
		}
	}
}

func TestTokenModeSerializesPageUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.Update = UpdateToken
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	a, b := cs[0], cs[1]
	oa := page.ObjectID{Page: ids[0], Slot: 0}
	ob := page.ObjectID{Page: ids[0], Slot: 1}

	for i := 0; i < 4; i++ {
		ta, _ := a.Begin()
		if err := ta.Overwrite(oa, val(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
		if err := ta.Commit(); err != nil {
			t.Fatal(err)
		}
		tb, _ := b.Begin()
		if err := tb.Overwrite(ob, val(byte('A'+i))); err != nil {
			t.Fatal(err)
		}
		if err := tb.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if cl.Server().Metrics.TokenTransfers.Load() == 0 {
		t.Fatal("token never migrated despite alternating updaters")
	}
	fresh, _ := cl.AddClient()
	txn, _ := fresh.Begin()
	ga, _ := txn.Read(oa)
	gb, _ := txn.Read(ob)
	if !bytes.Equal(ga, val('d')) || !bytes.Equal(gb, val('D')) {
		t.Fatalf("token mode final values: %q %q", ga, gb)
	}
	txn.Commit()
}

func TestShipLogAtCommitReachesServerLog(t *testing.T) {
	cfg := testConfig()
	cfg.Logging = LogShipCommit
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	c := cs[0]
	base := cl.Server().Log().RecordsAppended()
	txn, _ := c.Begin()
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, val('L')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Server().Log().RecordsAppended(); got <= base {
		t.Fatalf("server log unchanged (%d) after ship-at-commit", got)
	}
	// The private log must NOT have been forced at commit (durability
	// comes from the server log in this baseline).
	if c.Log().Forces() != 0 {
		t.Fatalf("private log forced %d times in ship mode", c.Log().Forces())
	}
}

func TestShipPagesAtCommitServerSeesDataImmediately(t *testing.T) {
	cfg := testConfig()
	cfg.Logging = LogShipPages
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	c := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 3}
	txn, _ := c.Begin()
	if err := txn.Overwrite(obj, val('V')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// No callback, no replacement: the commit itself shipped the page.
	got, err := cl.ReadObject(obj)
	if err != nil || !bytes.Equal(got, val('V')) {
		t.Fatalf("server copy after page-ship commit: %q err=%v", got, err)
	}
}

func TestShipModeRollbackStillLocal(t *testing.T) {
	cfg := testConfig()
	cfg.Logging = LogShipCommit
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	c := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 1}
	orig, _ := cl.ReadObject(obj)

	txn, _ := c.Begin()
	if err := txn.Overwrite(obj, val('W')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	txn2, _ := c.Begin()
	got, err := txn2.Read(obj)
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("ship-mode abort: %q want %q err=%v", got, orig, err)
	}
	txn2.Commit()
}

func TestPaperModeCommitSendsNoMessages(t *testing.T) {
	// The headline advantage (1): commit is a purely local operation.  A
	// commit whose writes already hold their locks sends nothing; one
	// with a deferred write sends the one lock request the write needs,
	// and still no page, log record or force.
	cl, ids, cs := seededCluster(t, testConfig(), 2, 1)
	c := cs[0]
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	txn, _ := c.Begin()
	if err := txn.Overwrite(obj, val('N')); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(obj); err != nil { // takes the write's lock
		t.Fatal(err)
	}
	before := cl.Stats.Messages()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := cl.Stats.Messages(); after != before {
		t.Fatalf("commit sent %d messages; the paper's commit sends none", after-before)
	}

	txn, _ = c.Begin()
	if err := txn.Overwrite(page.ObjectID{Page: ids[1], Slot: 0}, val('D')); err != nil {
		t.Fatal(err)
	}
	byName := cl.Stats.ByName()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	sent := map[string]uint64{}
	for name, n := range cl.Stats.ByName() {
		if d := n - byName[name]; d != 0 {
			sent[name] = d
		}
	}
	if want := map[string]uint64{"lock": 2}; !reflect.DeepEqual(sent, want) {
		t.Fatalf("commit with a deferred write sent %v, want one lock exchange %v", sent, want)
	}
}

func TestLatencyInjection(t *testing.T) {
	cfg := testConfig()
	cfg.Latency = 2 * time.Millisecond
	_, ids, cs := seededCluster(t, cfg, 1, 1)
	c := cs[0]
	start := time.Now()
	txn, _ := c.Begin()
	if _, err := txn.Read(page.ObjectID{Page: ids[0], Slot: 0}); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	// At least one lock RPC, which carries the page = 2 one-way messages
	// = 4ms (a separate fetch RPC followed it before protocol version 5).
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}
