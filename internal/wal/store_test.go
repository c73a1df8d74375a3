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

// TestEncodeGolden pins the record format byte for byte: every kind's
// encoding equals the hex the format has always produced, whether built
// by Encode or appended after other bytes by AppendRecord.
func TestEncodeGolden(t *testing.T) {
	cases := []struct {
		rec Record
		hex string
	}{
		{&Update{TxnID: ident.MakeTxnID(3, 7), PrevLSN: 0x1234, Page: 42, Slot: 5, PSN: 99, Op: OpOverwriteAt, Offset: 4, Before: []byte("old!"), After: []byte("new!")},
			"01070000000300000034120000000000002a00000000000000050063000000000000000604000000040000006f6c6421040000006e657721"},
		{&Logical{TxnID: ident.MakeTxnID(3, 8), PrevLSN: 77, Page: 9, Slot: 1, PSN: 1000, Delta: -5},
			"0208000000030000004d0000000000000009000000000000000100e803000000000000fbffffffffffffff"},
		{&CLR{TxnID: ident.MakeTxnID(2, 1), PrevLSN: 500, Page: 8, Slot: 3, PSN: 12, Op: OpOverwrite, After: []byte{1, 2, 3}, UndoNext: 64},
			"030100000002000000f401000000000000080000000000000003000c0000000000000001000000000300000001020300000000000000004000000000000000"},
		{&Commit{TxnID: ident.MakeTxnID(1, 2), PrevLSN: 300},
			"0402000000010000002c01000000000000"},
		{&Abort{TxnID: ident.MakeTxnID(1, 3), PrevLSN: 16},
			"0503000000010000001000000000000000"},
		{&Checkpoint{Active: []TxnInfo{{ID: ident.MakeTxnID(1, 4), FirstLSN: 16, LastLSN: 80}}, DPT: []DPTEntry{{Page: 3, RedoLSN: 16}, {Page: 4, RedoLSN: 48}}},
			"0601000000040000000100000010000000000000005000000000000000020000000300000000000000100000000000000004000000000000003000000000000000"},
		{&Callback{Object: page.ObjectID{Page: 6, Slot: 2}, Responder: 4, PSN: 71},
			"0706000000000000000200040000004700000000000000"},
		{&Replacement{Page: 11, PagePSN: 250, Entries: []ReplEntry{{Client: 1, PSN: 249}, {Client: 2, PSN: 200}}},
			"080b00000000000000fa000000000000000200000001000000f90000000000000002000000c800000000000000"},
		{&ServerCheckpoint{DCT: []DCTEntry{{Page: 11, Client: 2, PSN: 200, RedoLSN: 16}}},
			"09010000000b0000000000000002000000c8000000000000001000000000000000"},
	}
	for _, c := range cases {
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
	}
}

// TestLogAppendAllocatesNothing: an append encodes into the log's own
// buffer and the store copies the payload into its chunk.
func TestLogAppendAllocatesNothing(t *testing.T) {
	l := NewLog(NewMemStore(1 << 20))
	rec := &Update{TxnID: 1, Page: 3, Op: OpOverwrite, Before: make([]byte, 32), After: make([]byte, 32)}
	for i := 0; i < 100; i++ { // warm the encoding buffer up
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
