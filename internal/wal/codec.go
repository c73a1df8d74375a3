package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// ErrCorrupt reports a record payload that cannot be decoded.
var ErrCorrupt = errors.New("wal: corrupt record")

// Encode serializes a record to the byte payload stored in the log.
// The first byte is the Kind; the rest is kind-specific little-endian
// fields with u32-length-prefixed byte strings.
func Encode(r Record) []byte {
	return AppendRecord(make([]byte, 0, EncodedSize(r)), r)
}

// EncodedSize returns len(Encode(r)) without encoding r.
func EncodedSize(r Record) int {
	switch rec := r.(type) {
	case *Update:
		return 48 + len(rec.Before) + len(rec.After)
	case *Logical:
		return 43
	case *CLR:
		return 60 + len(rec.After)
	case *Commit, *Abort:
		return 17
	case *Checkpoint:
		return 9 + 24*len(rec.Active) + 16*len(rec.DPT)
	case *Callback:
		return 23
	case *Replacement:
		return 21 + 12*len(rec.Entries)
	case *ServerCheckpoint:
		return 5 + 28*len(rec.DCT)
	default:
		panic("wal.EncodedSize: unknown record type") // naming it would make r escape
	}
}

// AppendRecord appends Encode(r) to buf and returns the extended buffer.
// With room for EncodedSize(r) bytes in buf it allocates nothing, and r
// does not escape: a record built on the caller's stack stays there.
func AppendRecord(buf []byte, r Record) []byte {
	w := writer{buf: buf}
	switch rec := r.(type) {
	case *Update:
		w.u8(uint8(KindUpdate))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
		w.u64(uint64(rec.Page))
		w.u16(rec.Slot)
		w.u64(uint64(rec.PSN))
		w.u8(uint8(rec.Op))
		w.u32(rec.Offset)
		w.bytes(rec.Before)
		w.bytes(rec.After)
	case *Logical:
		w.u8(uint8(KindLogical))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
		w.u64(uint64(rec.Page))
		w.u16(rec.Slot)
		w.u64(uint64(rec.PSN))
		w.u64(uint64(rec.Delta))
	case *CLR:
		w.u8(uint8(KindCLR))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
		w.u64(uint64(rec.Page))
		w.u16(rec.Slot)
		w.u64(uint64(rec.PSN))
		w.u8(uint8(rec.Op))
		w.u32(rec.Offset)
		w.bytes(rec.After)
		w.u64(uint64(rec.Delta))
		w.u64(uint64(rec.UndoNext))
	case *Commit:
		w.u8(uint8(KindCommit))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
	case *Abort:
		w.u8(uint8(KindAbort))
		w.u64(uint64(rec.TxnID))
		w.u64(uint64(rec.PrevLSN))
	case *Checkpoint:
		w.u8(uint8(KindCheckpoint))
		w.u32(uint32(len(rec.Active)))
		for _, t := range rec.Active {
			w.u64(uint64(t.ID))
			w.u64(uint64(t.FirstLSN))
			w.u64(uint64(t.LastLSN))
		}
		w.u32(uint32(len(rec.DPT)))
		for _, d := range rec.DPT {
			w.u64(uint64(d.Page))
			w.u64(uint64(d.RedoLSN))
		}
	case *Callback:
		w.u8(uint8(KindCallback))
		w.u64(uint64(rec.Object.Page))
		w.u16(rec.Object.Slot)
		w.u32(uint32(rec.Responder))
		w.u64(uint64(rec.PSN))
	case *Replacement:
		w.u8(uint8(KindReplacement))
		w.u64(uint64(rec.Page))
		w.u64(uint64(rec.PagePSN))
		w.u32(uint32(len(rec.Entries)))
		for _, e := range rec.Entries {
			w.u32(uint32(e.Client))
			w.u64(uint64(e.PSN))
		}
	case *ServerCheckpoint:
		w.u8(uint8(KindServerCheckpoint))
		w.u32(uint32(len(rec.DCT)))
		for _, e := range rec.DCT {
			w.u64(uint64(e.Page))
			w.u32(uint32(e.Client))
			w.u64(uint64(e.PSN))
			w.u64(uint64(e.RedoLSN))
		}
	default:
		panic("wal.AppendRecord: unknown record type")
	}
	return w.buf
}

// Decode parses a payload produced by Encode.  The images of the record
// it returns alias data.
func Decode(data []byte) (Record, error) { return new(Decoder).Decode(data) }

// A Decoder decodes the records a rollback reads — update, logical and
// compensation records — into storage of its own, so reading them
// allocates nothing; such a record is valid until the Decoder's next
// Decode.  Records of the other kinds are allocated as usual.
type Decoder struct {
	upd Update
	lg  Logical
	clr CLR
}

// Decode parses a payload produced by Encode into d's storage.
func (d *Decoder) Decode(data []byte) (Record, error) {
	r := reader{buf: data}
	kind := Kind(r.u8())
	switch kind {
	case KindUpdate:
		rec := &d.upd
		*rec = Update{
			TxnID:   ident.TxnID(r.u64()),
			PrevLSN: LSN(r.u64()),
			Page:    page.ID(r.u64()),
			Slot:    r.u16(),
			PSN:     page.PSN(r.u64()),
			Op:      OpKind(r.u8()),
		}
		rec.Offset = r.u32()
		rec.Before = r.bytes()
		rec.After = r.bytes()
		return rec, r.err()
	case KindLogical:
		rec := &d.lg
		*rec = Logical{
			TxnID:   ident.TxnID(r.u64()),
			PrevLSN: LSN(r.u64()),
			Page:    page.ID(r.u64()),
			Slot:    r.u16(),
			PSN:     page.PSN(r.u64()),
			Delta:   int64(r.u64()),
		}
		return rec, r.err()
	case KindCLR:
		rec := &d.clr
		*rec = CLR{
			TxnID:   ident.TxnID(r.u64()),
			PrevLSN: LSN(r.u64()),
			Page:    page.ID(r.u64()),
			Slot:    r.u16(),
			PSN:     page.PSN(r.u64()),
			Op:      OpKind(r.u8()),
		}
		rec.Offset = r.u32()
		rec.After = r.bytes()
		rec.Delta = int64(r.u64())
		rec.UndoNext = LSN(r.u64())
		return rec, r.err()
	case KindCommit:
		rec := &Commit{TxnID: ident.TxnID(r.u64()), PrevLSN: LSN(r.u64())}
		return rec, r.err()
	case KindAbort:
		rec := &Abort{TxnID: ident.TxnID(r.u64()), PrevLSN: LSN(r.u64())}
		return rec, r.err()
	case KindCheckpoint:
		rec := &Checkpoint{}
		n := r.u32()
		if n > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < n && r.e == nil; i++ {
			rec.Active = append(rec.Active, TxnInfo{
				ID:       ident.TxnID(r.u64()),
				FirstLSN: LSN(r.u64()),
				LastLSN:  LSN(r.u64()),
			})
		}
		m := r.u32()
		if m > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < m && r.e == nil; i++ {
			rec.DPT = append(rec.DPT, DPTEntry{Page: page.ID(r.u64()), RedoLSN: LSN(r.u64())})
		}
		return rec, r.err()
	case KindCallback:
		rec := &Callback{}
		rec.Object.Page = page.ID(r.u64())
		rec.Object.Slot = r.u16()
		rec.Responder = ident.ClientID(r.u32())
		rec.PSN = page.PSN(r.u64())
		return rec, r.err()
	case KindReplacement:
		rec := &Replacement{Page: page.ID(r.u64()), PagePSN: page.PSN(r.u64())}
		n := r.u32()
		if n > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < n && r.e == nil; i++ {
			rec.Entries = append(rec.Entries, ReplEntry{
				Client: ident.ClientID(r.u32()),
				PSN:    page.PSN(r.u64()),
			})
		}
		return rec, r.err()
	case KindServerCheckpoint:
		rec := &ServerCheckpoint{}
		n := r.u32()
		if n > uint32(len(data)) {
			return nil, ErrCorrupt
		}
		for i := uint32(0); i < n && r.e == nil; i++ {
			rec.DCT = append(rec.DCT, DCTEntry{
				Page:    page.ID(r.u64()),
				Client:  ident.ClientID(r.u32()),
				PSN:     page.PSN(r.u64()),
				RedoLSN: LSN(r.u64()),
			})
		}
		return rec, r.err()
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

// peekPage returns the page an encoded record describes — the page an
// update, logical or compensation record changes, or the page of a
// callback record's object — and ok false for every other kind.  It
// reads the fixed-position header only: no image is copied and nothing
// is allocated.
func peekPage(payload []byte) (pid page.ID, ok bool, err error) {
	if len(payload) == 0 {
		return 0, false, ErrCorrupt
	}
	var off int
	switch kind := Kind(payload[0]); kind {
	case KindUpdate, KindLogical, KindCLR:
		off = 1 + 8 + 8 // kind, TxnID, PrevLSN
	case KindCallback:
		off = 1
	case KindCommit, KindAbort, KindCheckpoint, KindReplacement, KindServerCheckpoint:
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	if len(payload) < off+8 {
		return 0, false, ErrCorrupt
	}
	return page.ID(binary.LittleEndian.Uint64(payload[off:])), true, nil
}

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

type reader struct {
	buf []byte
	off int
	e   error
}

func (r *reader) fail() {
	if r.e == nil {
		r.e = ErrCorrupt
	}
}

func (r *reader) u8() uint8 {
	if r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.e != nil || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

func (r *reader) err() error { return r.e }
