package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// goldenCase is a record, the hex of its encoding, and its size in the
// fixed-width format (CLOGWAL1) the varint format replaced.
type goldenCase struct {
	rec   Record
	hex   string
	fixed int
}

// goldenCases pins the record format: every kind, and each branch of the
// update's op byte.
func goldenCases() []goldenCase {
	return []goldenCase{
		{&Update{TxnID: ident.MakeTxnID(3, 7), PrevLSN: 0x1234, Page: 42, Slot: 5, PSN: 99, Op: OpOverwriteAt, Offset: 4, Before: []byte("old!"), After: []byte("new!")},
			"018780808030b4242a05633604046f6c64216e657721", 56},
		{&Logical{TxnID: ident.MakeTxnID(3, 8), PrevLSN: 77, Page: 9, Slot: 1, PSN: 1000, Delta: -5},
			"0288808080304d0901e80709", 43},
		{&CLR{TxnID: ident.MakeTxnID(2, 1), PrevLSN: 500, Page: 8, Slot: 3, PSN: 12, Op: OpOverwrite, After: []byte{1, 2, 3}, UndoNext: 64},
			"038180808020f40308030c01030102030040", 63},
		{&Commit{TxnID: ident.MakeTxnID(1, 2), PrevLSN: 300},
			"048280808010ac02", 17},
		{&Abort{TxnID: ident.MakeTxnID(1, 3), PrevLSN: 16},
			"05838080801010", 17},
		{&Checkpoint{Active: []TxnInfo{{ID: ident.MakeTxnID(1, 4), FirstLSN: 16, LastLSN: 80}}, DPT: []DPTEntry{{Page: 3, RedoLSN: 16}, {Page: 4, RedoLSN: 48}}},
			"0601848080801010500203100430", 65},
		{&Callback{Object: page.ObjectID{Page: 6, Slot: 2}, Responder: 4, PSN: 71},
			"0706020447", 23},
		{&Replacement{Page: 11, PagePSN: 250, Entries: []ReplEntry{{Client: 1, PSN: 249}, {Client: 2, PSN: 200}}},
			"080bfa010201f90102c801", 45},
		{&ServerCheckpoint{DCT: []DCTEntry{{Page: 11, Client: 2, PSN: 200, RedoLSN: 16}}},
			"09010b02c80110", 33},
		{&Update{TxnID: ident.MakeTxnID(1, 9), PrevLSN: 0x12345, Page: 300, Slot: 15, PSN: 4000, Op: OpOverwrite, Before: bytes.Repeat([]byte("a"), 32), After: bytes.Repeat([]byte("b"), 32)},
			"018980808010c5c604ac020fa01f212061616161616161616161616161616161616161616161616161616161616161616262626262626262626262626262626262626262626262626262626262626262", 112},
		{&Update{TxnID: ident.MakeTxnID(1, 10), PrevLSN: 0x12380, Page: 300, Slot: 2, PSN: 4001, Op: OpResize, Before: []byte("ab"), After: []byte("abcd")},
			"018a8080801080c704ac0202a11f040204616261626364", 54},
		{&CLR{TxnID: ident.MakeTxnID(3, 8), PrevLSN: 90, Page: 9, Slot: 1, PSN: 1001, Op: OpLogicalAdd, Delta: 5, UndoNext: 77},
			"0388808080305a0901e90705000a4d", 60},
	}
}

// TestEncodeGolden pins the record format byte for byte: every kind's
// encoding equals its golden hex, whether built by Encode or appended
// after other bytes by AppendRecord, and is no longer than it was in
// the fixed-width format.
func TestEncodeGolden(t *testing.T) {
	for _, c := range goldenCases() {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := Encode(c.rec); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode = %x, want %s", c.rec.Kind(), got, c.hex)
		}
		prefix := []byte("prefix")
		if got := AppendRecord(prefix, c.rec); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix" {
			t.Errorf("%s: AppendRecord = %x, want prefix + %s", c.rec.Kind(), got, c.hex)
		}
		if n := EncodedSize(c.rec); n != len(want) {
			t.Errorf("%s: EncodedSize = %d, want %d", c.rec.Kind(), n, len(want))
		}
		if len(want) > c.fixed {
			t.Errorf("%s: %d bytes, more than the fixed-width format's %d", c.rec.Kind(), len(want), c.fixed)
		}
	}
}

// TestCodecAllocatesNothing: AppendRecord into a buffer with room for
// the record, and a Decoder's decoding of the records a rollback reads,
// allocate nothing.
func TestCodecAllocatesNothing(t *testing.T) {
	var d Decoder
	for _, c := range goldenCases() {
		buf := make([]byte, 0, EncodedSize(c.rec))
		if n := testing.AllocsPerRun(100, func() { AppendRecord(buf, c.rec) }); n != 0 {
			t.Errorf("%s: AppendRecord allocates %v times", c.rec.Kind(), n)
		}
		switch k := c.rec.Kind(); k {
		case KindUpdate, KindLogical, KindCLR:
			enc := Encode(c.rec)
			if n := testing.AllocsPerRun(100, func() { d.Decode(enc) }); n != 0 {
				t.Errorf("%s: Decoder.Decode allocates %v times", k, n)
			}
		}
	}
}

// TestLogAppendAllocatesNothing: an append encodes the record straight
// into the store's chunk.
func TestLogAppendAllocatesNothing(t *testing.T) {
	l := NewLog(NewMemStore(1 << 20))
	rec := &Update{TxnID: 1, Page: 3, Op: OpOverwrite, Before: make([]byte, 32), After: make([]byte, 32)}
	for i := 0; i < 100; i++ { // warm the chunk and index up
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	n := testing.AllocsPerRun(1000, func() {
		var lsn LSN
		if lsn, err = l.Append(rec); err == nil {
			err = l.Force(lsn)
		}
		if err == nil {
			err = l.Reclaim(l.Durable())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("append + force + reclaim allocates %v times", n)
	}
}

// fill returns a payload of n bytes that names its record.
func fill(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i + j)
	}
	return p
}

// TestMemStoreAcrossChunks runs appends, reads, Reclaim and Crash over
// records spread across several chunks, the largest bigger than any
// chunk.
func TestMemStoreAcrossChunks(t *testing.T) {
	m := NewMemStore(0)
	if err := m.Reclaim(100); err != nil || m.Horizon() != StartLSN() {
		t.Fatalf("reclaim of an empty log: horizon %v, err %v", m.Horizon(), err)
	}
	sizes := []int{7000, 3000, 1000, memChunk, 5, memChunk + 10, 2000, 9000}
	var lsns []LSN
	for i := 0; i < 40; i++ {
		lsn, err := m.Append(fill(i, sizes[i%len(sizes)]))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if len(m.chunks) < 10 {
		t.Fatalf("%d chunks: the test no longer crosses chunk boundaries", len(m.chunks))
	}
	check := func(from int) {
		t.Helper()
		for i := from; i < len(lsns); i++ {
			got, next, err := m.ReadAt(lsns[i])
			if err != nil || !bytes.Equal(got, fill(i, sizes[i%len(sizes)])) {
				t.Fatalf("record %d at %v: %v (%d bytes)", i, lsns[i], err, len(got))
			}
			if i+1 < len(lsns) && next != lsns[i+1] {
				t.Fatalf("record %d: next %v, want %v", i, next, lsns[i+1])
			}
		}
	}
	check(0)
	if _, _, err := m.ReadAt(lsns[3] + 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read inside a record: %v", err)
	}

	// Reclaim in the middle of record 17: records 0..16 go, and the
	// chunks that held only them with them.
	chunks := len(m.chunks)
	if err := m.Flush(lsns[30]); err != nil {
		t.Fatal(err)
	}
	if err := m.Reclaim(lsns[17] + 3); err != nil {
		t.Fatal(err)
	}
	if m.Horizon() != lsns[17] {
		t.Fatalf("horizon %v, want %v", m.Horizon(), lsns[17])
	}
	if len(m.chunks) >= chunks {
		t.Fatalf("reclaim kept all %d chunks", chunks)
	}
	for i := 0; i < 17; i++ {
		if _, _, err := m.ReadAt(lsns[i]); !errors.Is(err, ErrReclaimed) {
			t.Fatalf("reclaimed record %d: %v", i, err)
		}
	}
	check(17)

	// A reclaim past the durable horizon stops there.
	if err := m.Reclaim(m.End()); err != nil {
		t.Fatal(err)
	}
	if m.Horizon() != lsns[31] {
		t.Fatalf("horizon %v, want %v (durable through record 30)", m.Horizon(), lsns[31])
	}
	check(31)

	// A crash keeps records 31..34 (durable through 34), drops the rest,
	// and appends resume at the durable end.
	if err := m.Flush(lsns[34] + 1); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if m.End() != lsns[35] {
		t.Fatalf("end after crash %v, want %v", m.End(), lsns[35])
	}
	lsns = lsns[:35]
	check(31)
	for i := 35; i < 50; i++ {
		lsn, err := m.Append(fill(i, sizes[i%len(sizes)]))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	check(31)

	// Crash with nothing durable beyond the horizon, then reclaim all.
	if err := m.Flush(m.End()); err != nil {
		t.Fatal(err)
	}
	if err := m.Reclaim(m.End()); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if m.LiveBytes() != 0 || m.Horizon() != m.End() {
		t.Fatalf("empty log: live %d, horizon %v, end %v", m.LiveBytes(), m.Horizon(), m.End())
	}
	lsn, err := m.Append(fill(7, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := m.ReadAt(lsn); err != nil || !bytes.Equal(got, fill(7, 10)) {
		t.Fatalf("append after emptying: %v", err)
	}
}

// TestMemStoreLogFullScript replays a fixed sequence of appends with
// undo headroom, partial flushes, reclaims and crashes on a bounded log.
// The appends refused with ErrLogFull, and the final positions, are the
// ones the store has always produced for this script.
func TestMemStoreLogFullScript(t *testing.T) {
	m := NewMemStore(2000)
	var full []int
	x := uint32(1)
	for i := 0; i < 600; i++ {
		x = x*1664525 + 1013904223
		n := int(x>>24) % 120
		head := uint64(x>>8) % 96
		switch {
		case i%7 == 6:
			m.Flush(m.Horizon() + (m.End()-m.Horizon())*3/4)
		case i%11 == 10:
			m.Reclaim(m.Horizon() + LSN(x%400))
		case i%29 == 28:
			m.Crash()
		}
		_, err := m.AppendHeadroom(fill(i, n), head)
		if errors.Is(err, ErrLogFull) {
			full = append(full, i)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	fmt.Fprint(h, full)
	if len(full) != 278 || h.Sum64() != 0xd1b175b36a010e85 {
		t.Errorf("%d appends refused (hash %#x), want 278 (hash 0xd1b175b36a010e85): %v", len(full), h.Sum64(), full)
	}
	got := fmt.Sprintf("end %d durable %d horizon %d live %d", m.End(), m.Durable(), m.Horizon(), m.LiveBytes())
	if want := "end 10598 durable 10048 horizon 8644 live 1954"; got != want {
		t.Errorf("final state %q, want %q", got, want)
	}
	for lsn := m.Horizon(); lsn < m.End(); {
		_, next, err := m.ReadAt(lsn)
		if err != nil {
			t.Fatalf("live record at %v: %v", lsn, err)
		}
		lsn = next
	}
}

// TestMemStoreSteadyStateAllocs: a bounded store cycling append, flush
// and reclaim reuses its reclaimed chunks and index, so once warm it
// allocates nothing per record, and it keeps at most memSpares chunks
// for reuse.
func TestMemStoreSteadyStateAllocs(t *testing.T) {
	m := NewMemStore(64 << 10)
	l := NewLog(m)
	rec := &Update{TxnID: 1, Page: 3, Op: OpOverwrite, Before: make([]byte, 40), After: make([]byte, 40)}
	const perRun = 400 // about 38 KB: each run crosses two or three chunks
	var err error
	run := func() {
		for i := 0; i < perRun && err == nil; i++ {
			var lsn LSN
			if lsn, err = l.Append(rec); err == nil {
				err = l.Force(lsn)
			}
			if err == nil && i%8 == 7 {
				err = l.Reclaim(l.Durable())
			}
		}
	}
	for i := 0; i < 10; i++ {
		run()
	}
	n := testing.AllocsPerRun(20, run)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("%v allocations per %d records", n, perRun)
	}
	if len(m.spares) > memSpares {
		t.Fatalf("%d spare chunks kept, at most %d", len(m.spares), memSpares)
	}
}

// BenchmarkMemStoreAppend measures one record's append through a Log
// into a MemStore, with the force and reclaim a commit makes.
func BenchmarkMemStoreAppend(b *testing.B) {
	l := NewLog(NewMemStore(1 << 20))
	rec := &Update{TxnID: 1, Page: 3, Op: OpOverwrite, Before: make([]byte, 32), After: make([]byte, 32)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lsn, err := l.Append(rec)
		if err == nil {
			err = l.Force(lsn)
		}
		if err == nil && i%8 == 7 {
			err = l.Reclaim(l.Durable())
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
