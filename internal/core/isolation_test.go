package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"clientlog/internal/lock"
	"clientlog/internal/page"
)

func TestUncommittedDataNeverVisible(t *testing.T) {
	// Strict 2PL through the callback protocol: B can never observe A's
	// uncommitted bytes.  While A's write waits for its lock, B reads
	// the committed value; once A holds the lock, B's read blocks until
	// A resolves.
	cfg := testConfig()
	cfg.LockTimeout = 300 * time.Millisecond
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 0}
	orig, _ := cl.ReadObject(obj)

	ta, _ := a.Begin()
	if err := ta.Overwrite(obj, val('U')); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	if data, err := tb.Read(obj); err != nil || !bytes.Equal(data, orig) {
		t.Fatalf("read beside a deferred write: %q (err %v), want the committed %q", data, err, orig)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Read(obj); err != nil { // takes A's lock, calling B back
		t.Fatal(err)
	}
	// B's read must NOT succeed while A is in flight.
	tb, _ = b.Begin()
	if data, err := tb.Read(obj); err == nil {
		t.Fatalf("read of uncommitted data succeeded: %q", data)
	} else if !errors.Is(err, lock.ErrTimeout) && !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("unexpected error kind: %v", err)
	}
	tb.Abort()
	// A aborts; B now sees the original value.  The release can race
	// B's re-request under a heavily loaded scheduler (the 300ms lock
	// timeout above is deliberately tight), so time out and retry
	// instead of failing on the first ErrTimeout.
	if err := ta.Abort(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tb2, _ := b.Begin()
		got, err := tb2.Read(obj)
		if err == nil {
			if !bytes.Equal(got, orig) {
				t.Fatalf("after abort: %q want %q", got, orig)
			}
			tb2.Commit()
			break
		}
		tb2.Abort()
		if !errors.Is(err, lock.ErrTimeout) || time.Now().After(deadline) {
			t.Fatalf("after abort: err=%v", err)
		}
	}
}

func TestReadersBlockWriter(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 5 * time.Second
	_, ids, cs := seededCluster(t, cfg, 1, 2)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 1}
	ta, _ := a.Begin()
	if _, err := ta.Read(obj); err != nil {
		t.Fatal(err)
	}
	// b's write blocks while a's reader is active; a's commit releases
	// it through the callback protocol (the retained cached S lock does
	// NOT keep blocking it).
	done := make(chan error, 1)
	go func() {
		tb, _ := b.Begin()
		if err := tb.Overwrite(obj, val('W')); err != nil {
			done <- err
			return
		}
		done <- tb.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("write finished while reader active: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after reader commit: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("writer never unblocked after reader commit")
	}
}

func TestTokenModeSurvivesServerCrash(t *testing.T) {
	// The token table is volatile server state; a crash must not corrupt
	// data (locks still serialize, merges still reconcile).
	cfg := testConfig()
	cfg.Update = UpdateToken
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	a, b := cs[0], cs[1]
	oa := page.ObjectID{Page: ids[0], Slot: 0}
	ob := page.ObjectID{Page: ids[0], Slot: 1}
	ta, _ := a.Begin()
	if err := ta.Overwrite(oa, val('1')); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	// Both clients update after the crash; token table was rebuilt
	// lazily.
	ta2, _ := a.Begin()
	if err := ta2.Overwrite(oa, val('2')); err != nil {
		t.Fatal(err)
	}
	if err := ta2.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	if err := tb.Overwrite(ob, val('3')); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	fresh, _ := cl.AddClient()
	txn, _ := fresh.Begin()
	g1, _ := txn.Read(oa)
	g2, _ := txn.Read(ob)
	if !bytes.Equal(g1, val('2')) || !bytes.Equal(g2, val('3')) {
		t.Fatalf("token-mode post-crash values: %q %q", g1, g2)
	}
	txn.Commit()
}

func TestShipLogModeManyClients(t *testing.T) {
	cfg := testConfig()
	cfg.Logging = LogShipCommit
	cl, ids, cs := seededCluster(t, cfg, 2, 3)
	for i, c := range cs {
		txn, _ := c.Begin()
		for _, pid := range ids {
			if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(i)}, val(byte('0'+i))); err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Server log now carries every client's records.
	if cl.Server().Log().RecordsAppended() < uint64(len(cs)*len(ids)) {
		t.Fatalf("server log records: %d", cl.Server().Log().RecordsAppended())
	}
	fresh, _ := cl.AddClient()
	txn, _ := fresh.Begin()
	for i := range cs {
		for _, pid := range ids {
			got, err := txn.Read(page.ObjectID{Page: pid, Slot: uint16(i)})
			if err != nil || !bytes.Equal(got, val(byte('0'+i))) {
				t.Fatalf("page %d slot %d: %q err=%v", pid, i, got, err)
			}
		}
	}
	txn.Commit()
}
