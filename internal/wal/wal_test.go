package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

func testRecords() []Record {
	t1 := ident.MakeTxnID(3, 7)
	return []Record{
		&Update{TxnID: t1, PrevLSN: 16, Page: 9, Slot: 2, PSN: 41,
			Op: OpOverwrite, Before: []byte("old"), After: []byte("new")},
		&Update{TxnID: t1, PrevLSN: 40, Page: 9, Slot: 3, PSN: 42, Op: OpInsert, After: []byte("born")},
		&Update{TxnID: t1, PrevLSN: 60, Page: 9, Slot: 2, PSN: 43,
			Op: OpOverwriteAt, Offset: 7, Before: []byte("pa"), After: []byte("rt")},
		&Update{TxnID: t1, PrevLSN: 80, Page: 9, Slot: 3, PSN: 43, Op: OpDelete, Before: []byte("born")},
		&Logical{TxnID: t1, PrevLSN: 120, Page: 4, Slot: 0, PSN: 5, Delta: -17},
		&CLR{TxnID: t1, PrevLSN: 160, Page: 9, Slot: 2, PSN: 44, Op: OpOverwrite,
			After: []byte("old"), UndoNext: 16},
		&CLR{TxnID: t1, PrevLSN: 200, Page: 4, Slot: 0, PSN: 6, Op: OpLogicalAdd, Delta: 17, UndoNext: NilLSN},
		&Commit{TxnID: t1, PrevLSN: 240},
		&Abort{TxnID: ident.MakeTxnID(3, 8), PrevLSN: 280},
		&Checkpoint{
			Active: []TxnInfo{{ID: t1, FirstLSN: 16, LastLSN: 240}},
			DPT:    []DPTEntry{{Page: 9, RedoLSN: 16}, {Page: 4, RedoLSN: 120}},
		},
		&Checkpoint{}, // empty tables must round-trip too
		&Callback{Object: page.ObjectID{Page: 9, Slot: 2}, Responder: 5, PSN: 77},
		&Replacement{Page: 9, PagePSN: 80, Entries: []ReplEntry{{Client: 3, PSN: 44}, {Client: 5, PSN: 78}}},
		&ServerCheckpoint{DCT: []DCTEntry{{Page: 9, Client: 3, PSN: 44, RedoLSN: 360}}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		enc := Encode(rec)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Kind(), err)
		}
		if !reflect.DeepEqual(rec, dec) {
			t.Fatalf("%s: round trip mismatch:\n got %#v\nwant %#v", rec.Kind(), dec, rec)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, err := Decode([]byte{}); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := Decode([]byte{200}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, rec := range testRecords() {
		enc := Encode(rec)
		for cut := 1; cut < len(enc); cut += 3 {
			if _, err := Decode(enc[:cut]); err == nil {
				t.Fatalf("%s truncated to %d bytes accepted", rec.Kind(), cut)
			}
		}
	}
}

func TestLogAppendScan(t *testing.T) {
	l := NewLog(NewMemStore(0))
	var lsns []LSN
	recs := testRecords()
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(lsns) > 0 && lsn <= lsns[len(lsns)-1] {
			t.Fatalf("LSN not monotone: %v after %v", lsn, lsns[len(lsns)-1])
		}
		lsns = append(lsns, lsn)
	}
	// Random access.
	got, _, err := l.Read(lsns[4])
	if err != nil || got.Kind() != KindLogical {
		t.Fatalf("Read: %v %v", got, err)
	}
	// Full scan.
	sc := l.Scan(NilLSN)
	i := 0
	for sc.Next() {
		if sc.LSN() != lsns[i] {
			t.Fatalf("scan LSN %v, want %v", sc.LSN(), lsns[i])
		}
		if sc.Record().Kind() != recs[i].Kind() {
			t.Fatalf("scan kind %v, want %v", sc.Record().Kind(), recs[i].Kind())
		}
		i++
	}
	if sc.Err() != nil || i != len(recs) {
		t.Fatalf("scan stopped at %d/%d: %v", i, len(recs), sc.Err())
	}
	// Partial scan from the middle.
	sc = l.Scan(lsns[5])
	var n int
	for sc.Next() {
		n++
	}
	if n != len(recs)-5 {
		t.Fatalf("partial scan saw %d records, want %d", n, len(recs)-5)
	}
}

// pageOf is the oracle for peekPage: the page a decoded record describes.
func pageOf(rec Record) (page.ID, bool) {
	switch r := rec.(type) {
	case *Update:
		return r.Page, true
	case *Logical:
		return r.Page, true
	case *CLR:
		return r.Page, true
	case *Callback:
		return r.Object.Page, true
	}
	return 0, false
}

func TestPeekPageMatchesDecode(t *testing.T) {
	for _, rec := range testRecords() {
		enc := Encode(rec)
		want, wantOK := pageOf(rec)
		got, ok, err := peekPage(enc)
		if err != nil || ok != wantOK || got != want {
			t.Errorf("%s: peekPage = (%d, %v, %v), want (%d, %v, nil)", rec.Kind(), got, ok, err, want, wantOK)
		}
		if n := testing.AllocsPerRun(100, func() { peekPage(enc) }); n != 0 {
			t.Errorf("%s: peekPage allocates %v times", rec.Kind(), n)
		}
		if !wantOK {
			continue
		}
		// The page field ends where its varint does: a shorter prefix is
		// corrupt, a longer one yields the page.
		if _, _, err := peekPage(enc[:1]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s truncated to its kind: err = %v", rec.Kind(), err)
		}
		for cut := 2; cut < len(enc); cut++ {
			got, ok, err := peekPage(enc[:cut])
			if err != nil && !errors.Is(err, ErrCorrupt) || err == nil && (!ok || got != want) {
				t.Errorf("%s truncated to %d bytes: peekPage = (%d, %v, %v)", rec.Kind(), cut, got, ok, err)
			}
		}
	}
	for _, bad := range [][]byte{{}, {200}} {
		if _, _, err := peekPage(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("peekPage(%v): err = %v, want ErrCorrupt", bad, err)
		}
	}
}

// TestScanPagesResumes checks that ScanPages reports exactly the
// page-describing records with their pages and the last checkpoint it
// passed, stops at the end of the log as of the call, and that a second
// call from the returned LSN sees only what was appended in between.
func TestScanPagesResumes(t *testing.T) {
	l := NewLog(NewMemStore(0))
	type hit struct {
		lsn LSN
		pid page.ID
	}
	var want, got []hit
	var lastCkpt LSN
	appendAll := func() {
		for _, r := range testRecords() {
			lsn, err := l.Append(r)
			if err != nil {
				t.Fatal(err)
			}
			if pid, ok := pageOf(r); ok {
				want = append(want, hit{lsn, pid})
			}
			if r.Kind() == KindCheckpoint {
				lastCkpt = lsn
			}
		}
	}
	collect := func(lsn LSN, pid page.ID) { got = append(got, hit{lsn, pid}) }

	appendAll()
	end, ckpt, err := l.ScanPages(l.Horizon(), collect)
	if err != nil || end != l.End() || ckpt != lastCkpt {
		t.Fatalf("first pass stopped at %v (end %v), checkpoint %v (want %v): %v", end, l.End(), ckpt, lastCkpt, err)
	}
	appendAll()
	if end, ckpt, err = l.ScanPages(end, collect); err != nil || end != l.End() || ckpt != lastCkpt {
		t.Fatalf("second pass stopped at %v (end %v), checkpoint %v (want %v): %v", end, l.End(), ckpt, lastCkpt, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanPages saw\n%v\nwant\n%v", got, want)
	}
	if end, ckpt, err = l.ScanPages(end, collect); err != nil || end != l.End() || ckpt != NilLSN || len(got) != len(want) {
		t.Fatalf("pass over nothing: end %v, checkpoint %v, %d hits, err %v", end, ckpt, len(got), err)
	}
}

func TestMemStoreCrashLosesUnflushedTail(t *testing.T) {
	st := NewMemStore(0)
	l := NewLog(st)
	a, _ := l.Append(&Commit{TxnID: 1})
	if err := l.Force(a); err != nil {
		t.Fatal(err)
	}
	b, _ := l.Append(&Commit{TxnID: 2})
	st.Crash()
	if _, _, err := l.Read(a); err != nil {
		t.Fatalf("durable record lost: %v", err)
	}
	if _, _, err := l.Read(b); err == nil {
		t.Fatal("unflushed record survived crash")
	}
	// The log must accept appends again at the durable end.
	c, err := l.Append(&Commit{TxnID: 3})
	if err != nil || c != b {
		t.Fatalf("append after crash: lsn=%v err=%v (want %v)", c, err, b)
	}
}

func TestMemStoreCapacityAndReclaim(t *testing.T) {
	st := NewMemStore(256)
	l := NewLog(st)
	var lsns []LSN
	for {
		lsn, err := l.Append(&Update{TxnID: 1, Page: 1, Op: OpOverwrite,
			Before: make([]byte, 16), After: make([]byte, 16)})
		if errors.Is(err, ErrLogFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if len(lsns) < 2 {
		t.Fatalf("only %d records fit", len(lsns))
	}
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	// Reclaiming the first half must free space for new appends.
	if err := l.Reclaim(lsns[len(lsns)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Commit{TxnID: 1}); err != nil {
		t.Fatalf("append after reclaim: %v", err)
	}
	if _, _, err := l.Read(lsns[0]); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("reclaimed read: %v", err)
	}
	if _, _, err := l.Read(lsns[len(lsns)-1]); err != nil {
		t.Fatalf("live read: %v", err)
	}
}

func TestFileStoreRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "client.log")
	st, err := OpenFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(st)
	recs := testRecords()
	var lsns []LSN
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	end := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.End() != end {
		t.Fatalf("reopened end %v, want %v", st2.End(), end)
	}
	l2 := NewLog(st2)
	sc := l2.Scan(NilLSN)
	i := 0
	for sc.Next() {
		if !reflect.DeepEqual(sc.Record(), recs[i]) {
			t.Fatalf("record %d mismatch after reopen", i)
		}
		i++
	}
	if sc.Err() != nil || i != len(recs) {
		t.Fatalf("reopen scan: %d/%d, err=%v", i, len(recs), sc.Err())
	}
}

func TestFileStoreTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.log")
	st, err := OpenFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(st)
	a, _ := l.Append(&Commit{TxnID: 1})
	l.Append(&Commit{TxnID: 2})
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	nextAfterA := func() LSN {
		_, next, err := l.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}()
	st.Close()

	// Corrupt the second record's checksum byte on disk.
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(nextAfterA)+4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenFileStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.End() != nextAfterA {
		t.Fatalf("end after torn tail %v, want %v", st2.End(), nextAfterA)
	}
}

func TestLogMetrics(t *testing.T) {
	l := NewLog(NewMemStore(0))
	if _, err := l.AppendAndForce(&Commit{TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if l.RecordsAppended() != 1 || l.BytesAppended() == 0 || l.Forces() != 1 {
		t.Fatalf("metrics: recs=%d bytes=%d forces=%d",
			l.RecordsAppended(), l.BytesAppended(), l.Forces())
	}
}

// TestFileStoreRefusesOtherFormat: a log written in the fixed-width
// record format (magic CLOGWAL1) is refused with an error naming both
// formats, and the file is left as it was.
func TestFileStoreRefusesOtherFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.log")
	old := make([]byte, StartLSN())
	copy(old, "CLOGWAL1")
	// One CLOGWAL1 frame: a fixed-width Commit record.
	payload, _ := hex.DecodeString("0402000000010000002c01000000000000")
	old = binary.LittleEndian.AppendUint32(old, uint32(len(payload)))
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(payload))
	old = append(old, payload...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFileStore(path, 0)
	if err == nil {
		st.Close()
		t.Fatal("a CLOGWAL1 log opened")
	}
	if !strings.Contains(err.Error(), "CLOGWAL1") || !strings.Contains(err.Error(), fileMagic) {
		t.Fatalf("error %q does not name both formats", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the refused file changed: %v", err)
	}
	if err := os.WriteFile(path, []byte("NOTALOG!........"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, 0); err == nil || !strings.Contains(err.Error(), "not a log file") {
		t.Fatalf("a file without a log preamble: err = %v", err)
	}
}
