package core

import (
	"testing"

	"clientlog/internal/page"
	"clientlog/internal/trace"
)

func TestTraceCallbackFlow(t *testing.T) {
	// The traced protocol sequence of a write-write takeover must show:
	// callback to the holder, the holder's page ship, the server merge,
	// in that order.
	cfg := testConfig()
	cl, ids, cs := seededCluster(t, cfg, 1, 2)
	ring := trace.NewRing(256)
	cl.SetTracer(ring)
	a, b := cs[0], cs[1]
	obj := page.ObjectID{Page: ids[0], Slot: 0}

	ta, _ := a.Begin()
	if err := ta.Overwrite(obj, val('a')); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	ring.Reset()
	tb, _ := b.Begin()
	if err := tb.Overwrite(obj, val('b')); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}

	events := ring.Snapshot()
	var cbSeq, shipSeq, mergeSeq uint64
	for _, e := range events {
		if e.Page != ids[0] {
			continue
		}
		switch e.Kind {
		case trace.CallbackSent, trace.DeescSent:
			if cbSeq == 0 {
				cbSeq = e.Seq
			}
		case trace.PageShip:
			if shipSeq == 0 && e.Client == a.ID() {
				shipSeq = e.Seq
			}
		case trace.PageMerge:
			if mergeSeq == 0 && e.Client == a.ID() {
				mergeSeq = e.Seq
			}
		}
	}
	if cbSeq == 0 || shipSeq == 0 || mergeSeq == 0 {
		t.Fatalf("missing events: cb=%d ship=%d merge=%d (events: %v)", cbSeq, shipSeq, mergeSeq, events)
	}
	if !(cbSeq < shipSeq && shipSeq < mergeSeq) {
		t.Fatalf("protocol order wrong: cb=%d ship=%d merge=%d", cbSeq, shipSeq, mergeSeq)
	}
}

func TestTraceReplacementBeforeForce(t *testing.T) {
	// WAL at the server: the replacement record must be traced before
	// the in-place page write it covers.
	cfg := testConfig()
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	ring := trace.NewRing(256)
	cl.SetTracer(ring)
	a := cs[0]
	txn, _ := a.Begin()
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, val('x')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.ReplacePage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Server().FlushAll(); err != nil {
		t.Fatal(err)
	}
	var repSeq, forceSeq uint64
	for _, e := range ring.Snapshot() {
		if e.Page != ids[0] {
			continue
		}
		if e.Kind == trace.Replacement && repSeq == 0 {
			repSeq = e.Seq
		}
		if e.Kind == trace.PageForce && forceSeq == 0 {
			forceSeq = e.Seq
		}
	}
	if repSeq == 0 || forceSeq == 0 {
		t.Fatalf("missing events: rep=%d force=%d", repSeq, forceSeq)
	}
	if repSeq >= forceSeq {
		t.Fatalf("replacement record (%d) did not precede the page write (%d)", repSeq, forceSeq)
	}
}

func TestTraceSurvivesServerRestart(t *testing.T) {
	cfg := testConfig()
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	ring := trace.NewRing(256)
	cl.SetTracer(ring)
	a := cs[0]
	txn, _ := a.Begin()
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, val('r')); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.CrashServer()
	if err := cl.RestartServer(); err != nil {
		t.Fatal(err)
	}
	if ring.Count(trace.RecoveryStep, 0) < 2 {
		t.Fatalf("recovery steps not traced through restart: %v", ring.Snapshot())
	}
}

func TestTraceFlushNotify(t *testing.T) {
	// A page the client shipped is written in place: the server's flush
	// note to that client (§3.2) is traced for that client and page.
	cfg := testConfig()
	cl, ids, cs := seededCluster(t, cfg, 1, 1)
	ring := trace.NewRing(256)
	cl.SetTracer(ring)
	a := cs[0]
	writeAndReplace(t, a, ids[0], 'f')
	writePage(t, cl.Server(), ids[0])
	var notes []trace.Event
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.FlushNotify {
			notes = append(notes, e)
		}
	}
	if len(notes) != 1 || notes[0].Client != a.ID() || notes[0].Page != ids[0] {
		t.Fatalf("flush-notify events %v, want one for client %v and page %d", notes, a.ID(), ids[0])
	}
}
