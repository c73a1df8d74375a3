package main

import (
	"testing"

	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// unforcedTail starts a transaction on client ci, overwrites one object and
// stops before commit: the update record is appended but never forced.  It
// returns the record's LSN.
func unforcedTail(t *testing.T, in *instance, ci int) wal.LSN {
	t.Helper()
	// Force everything so far, so the only unforced record is ours.
	if err := in.clients[ci].Log().ForceAll(); err != nil {
		t.Fatal(err)
	}
	lsn := in.clientLogs[ci].End()
	txn, err := in.clients[ci].Begin()
	if err != nil {
		t.Fatal(err)
	}
	var val [objSize]byte
	putValue(val[:], uint32(ci+1), 1<<40)
	first := ci * in.w.pages / numClients
	if err := txn.Overwrite(page.ObjectID{Page: in.ids[first], Slot: 0}, val[:]); err != nil {
		t.Fatal(err)
	}
	if end, durable := in.clientLogs[ci].End(), in.clientLogs[ci].Durable(); end <= lsn || durable > lsn {
		t.Fatalf("expected an unforced record at %v: end %v, durable %v", lsn, end, durable)
	}
	return lsn
}

// TestCrashThroughDecoratorDiscardsUnforcedTail: Client.Crash discards the
// unforced log tail only after a type switch on *wal.MemStore, which a
// decorated store does not satisfy.  The benchmark crashes the inner device
// itself; an appended-but-unforced record must be gone afterwards, traced
// or not.
func TestCrashThroughDecoratorDiscardsUnforcedTail(t *testing.T) {
	w := workloadByName("crash-recover")
	for _, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer(1<<16, 1<<16)
		}
		in, err := build(w, 1, tr)
		if err != nil {
			t.Fatal(err)
		}
		lsn := unforcedTail(t, in, victim)
		in.crashClient(victim)
		if _, _, err := in.clientLogs[victim].ReadAt(lsn); err == nil {
			t.Errorf("traced=%v: the unforced record at %v survived the crash", traced, lsn)
		}
		if end := in.clientLogs[victim].End(); end != lsn {
			t.Errorf("traced=%v: log ends at %v after the crash, want %v", traced, end, lsn)
		}
		if err := in.restartClient(victim); err != nil {
			t.Fatalf("traced=%v: restart: %v", traced, err)
		}
		chk := &checkResult{}
		half := w.pages / numClients * objsPerPage
		in.verify(victim, victim*half, (victim+1)*half, "after restart", chk)
		if chk.lost != 0 || chk.bad != 0 {
			t.Errorf("traced=%v: read-back after restart: lost %d, bad %d (%s)", traced, chk.lost, chk.bad, chk.first)
		}
		in.close()
	}
}

// TestProgramCrashAloneKeepsDecoratedTail documents why the benchmark
// holds the inner store: through the decorator, the program's own crash
// path leaves the unforced record in place.  When this fails the program
// has learnt to crash wrapped stores, and instance.crashClient/crashServer
// no longer need to reach for the device.
func TestProgramCrashAloneKeepsDecoratedTail(t *testing.T) {
	in, err := build(workloadByName("crash-recover"), 1, newTracer(1<<16, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	lsn := unforcedTail(t, in, victim)
	in.cluster.CrashClient(in.clients[victim].ID())
	if _, _, err := in.clientLogs[victim].ReadAt(lsn); err != nil {
		t.Errorf("the program's crash discarded the tail of a decorated log (%v): the benchmark's own device crash is now redundant", err)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := newTracer(16, 16)
	b := tr.client[0]
	txn := b.enter()
	op := b.enter()
	rpc := b.enter()
	b.leave(rpc, layMsg, nmLock, 1, nil)
	b.leave(op, layCore, nmWrite, 0, nil)
	b.leave(txn, layCore, nmTxn, 0, nil)
	spans := b.recorded()
	if len(spans) != 3 || spans[0].parent != -1 || spans[1].parent != 0 || spans[2].parent != 1 {
		t.Fatalf("parents = %d, %d, %d; want -1, 0, 1", spans[0].parent, spans[1].parent, spans[2].parent)
	}
	if b.cur.Load() != -1 {
		t.Errorf("current span after leaving everything = %d, want -1", b.cur.Load())
	}
	// The child time summarize subtracts is the RPC's, once.
	s := summarize(tr)
	if s.childNs != spans[2].dur || s.txnNs != spans[0].dur {
		t.Errorf("summarize: child %d, txn %d; want %d, %d", s.childNs, s.txnNs, spans[2].dur, spans[0].dur)
	}
	// A full buffer drops and counts.
	for i := 0; i < 20; i++ {
		b.leave(b.enter(), layCore, nmBegin, 0, nil)
	}
	if tr.dropped() != 7 {
		t.Errorf("dropped %d spans, want 7", tr.dropped())
	}
}
