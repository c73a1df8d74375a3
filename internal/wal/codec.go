package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// ErrCorrupt reports a record payload that cannot be decoded.
var ErrCorrupt = errors.New("wal: corrupt record")

// Encode serializes a record to the byte payload stored in the log.
// The first byte is the Kind; every integer field after it is a
// minimal uvarint (a signed Delta zigzag-encoded first), a byte string
// is its uvarint length and its bytes, and an update or compensation
// record carries its OpKind in an op byte with flags that drop a zero
// Offset and fold equal image lengths into one.  Nothing in a record
// depends on where it is stored: PrevLSN and UndoNext are absolute, so
// an encoded record can be re-appended at another LSN (Log.AppendEncoded).
// DESIGN.md §13.1 lays out every kind.
func Encode(r Record) []byte {
	return AppendRecord(make([]byte, 0, EncodedSize(r)), r)
}

// The op byte of an update or compensation record: the OpKind in the
// low bits, and flags above it.
const (
	opMask     = 0x0f
	opHasOff   = 0x10 // an Offset follows (it is not zero)
	opSameLen  = 0x20 // update only: one length for equal Before and After
	opFlagMask = opHasOff | opSameLen
)

// EncodedSize returns len(Encode(r)) without encoding r.
func EncodedSize(r Record) int {
	switch rec := r.(type) {
	case *Update:
		n := 1 + txnHeadSize(rec.TxnID, rec.PrevLSN, rec.Page, rec.Slot, rec.PSN) + opSize(rec.Op, rec.Offset) +
			uvarintSize(uint64(len(rec.Before))) + len(rec.Before) + len(rec.After)
		if len(rec.Before) != len(rec.After) {
			n += uvarintSize(uint64(len(rec.After)))
		}
		return n
	case *Logical:
		return 1 + txnHeadSize(rec.TxnID, rec.PrevLSN, rec.Page, rec.Slot, rec.PSN) + uvarintSize(zigzag(rec.Delta))
	case *CLR:
		return 1 + txnHeadSize(rec.TxnID, rec.PrevLSN, rec.Page, rec.Slot, rec.PSN) + opSize(rec.Op, rec.Offset) +
			uvarintSize(uint64(len(rec.After))) + len(rec.After) +
			uvarintSize(zigzag(rec.Delta)) + uvarintSize(uint64(rec.UndoNext))
	case *Commit:
		return 1 + uvarintSize(uint64(rec.TxnID)) + uvarintSize(uint64(rec.PrevLSN))
	case *Abort:
		return 1 + uvarintSize(uint64(rec.TxnID)) + uvarintSize(uint64(rec.PrevLSN))
	case *Checkpoint:
		n := 1 + uvarintSize(uint64(len(rec.Active))) + uvarintSize(uint64(len(rec.DPT)))
		for _, t := range rec.Active {
			n += uvarintSize(uint64(t.ID)) + uvarintSize(uint64(t.FirstLSN)) + uvarintSize(uint64(t.LastLSN))
		}
		for _, d := range rec.DPT {
			n += uvarintSize(uint64(d.Page)) + uvarintSize(uint64(d.RedoLSN))
		}
		return n
	case *Callback:
		return 1 + uvarintSize(uint64(rec.Object.Page)) + uvarintSize(uint64(rec.Object.Slot)) +
			uvarintSize(uint64(rec.Responder)) + uvarintSize(uint64(rec.PSN))
	case *Replacement:
		n := 1 + uvarintSize(uint64(rec.Page)) + uvarintSize(uint64(rec.PagePSN)) + uvarintSize(uint64(len(rec.Entries)))
		for _, e := range rec.Entries {
			n += uvarintSize(uint64(e.Client)) + uvarintSize(uint64(e.PSN))
		}
		return n
	case *ServerCheckpoint:
		n := 1 + uvarintSize(uint64(len(rec.DCT)))
		for _, e := range rec.DCT {
			n += uvarintSize(uint64(e.Page)) + uvarintSize(uint64(e.Client)) +
				uvarintSize(uint64(e.PSN)) + uvarintSize(uint64(e.RedoLSN))
		}
		return n
	default:
		panic("wal.EncodedSize: unknown record type") // naming it would make r escape
	}
}

// txnHeadSize is the encoded size of the header an update, logical and
// compensation record share after the kind byte.
func txnHeadSize(txn ident.TxnID, prev LSN, pid page.ID, slot uint16, psn page.PSN) int {
	return uvarintSize(uint64(txn)) + uvarintSize(uint64(prev)) + uvarintSize(uint64(pid)) +
		uvarintSize(uint64(slot)) + uvarintSize(uint64(psn))
}

// opSize is the encoded size of an op byte and the Offset it may carry.
func opSize(op OpKind, off uint32) int {
	if op > opMask {
		panic("wal: OpKind does not fit the op byte")
	}
	if off == 0 {
		return 1
	}
	return 1 + uvarintSize(uint64(off))
}

// AppendRecord appends Encode(r) to buf and returns the extended buffer.
// With room for EncodedSize(r) bytes in buf it allocates nothing, and r
// does not escape: a record built on the caller's stack stays there.
func AppendRecord(buf []byte, r Record) []byte {
	b := buf
	switch rec := r.(type) {
	case *Update:
		b = appendTxnHead(append(b, uint8(KindUpdate)), rec.TxnID, rec.PrevLSN, rec.Page, rec.Slot, rec.PSN)
		same := len(rec.Before) == len(rec.After)
		var flags uint8
		if same {
			flags = opSameLen
		}
		b = binary.AppendUvarint(appendOp(b, rec.Op, rec.Offset, flags), uint64(len(rec.Before)))
		if !same {
			b = binary.AppendUvarint(b, uint64(len(rec.After)))
		}
		b = append(append(b, rec.Before...), rec.After...)
	case *Logical:
		b = appendTxnHead(append(b, uint8(KindLogical)), rec.TxnID, rec.PrevLSN, rec.Page, rec.Slot, rec.PSN)
		b = binary.AppendUvarint(b, zigzag(rec.Delta))
	case *CLR:
		b = appendTxnHead(append(b, uint8(KindCLR)), rec.TxnID, rec.PrevLSN, rec.Page, rec.Slot, rec.PSN)
		b = binary.AppendUvarint(appendOp(b, rec.Op, rec.Offset, 0), uint64(len(rec.After)))
		b = binary.AppendUvarint(append(b, rec.After...), zigzag(rec.Delta))
		b = binary.AppendUvarint(b, uint64(rec.UndoNext))
	case *Commit:
		b = binary.AppendUvarint(append(b, uint8(KindCommit)), uint64(rec.TxnID))
		b = binary.AppendUvarint(b, uint64(rec.PrevLSN))
	case *Abort:
		b = binary.AppendUvarint(append(b, uint8(KindAbort)), uint64(rec.TxnID))
		b = binary.AppendUvarint(b, uint64(rec.PrevLSN))
	case *Checkpoint:
		b = binary.AppendUvarint(append(b, uint8(KindCheckpoint)), uint64(len(rec.Active)))
		for _, t := range rec.Active {
			b = binary.AppendUvarint(b, uint64(t.ID))
			b = binary.AppendUvarint(b, uint64(t.FirstLSN))
			b = binary.AppendUvarint(b, uint64(t.LastLSN))
		}
		b = binary.AppendUvarint(b, uint64(len(rec.DPT)))
		for _, d := range rec.DPT {
			b = binary.AppendUvarint(b, uint64(d.Page))
			b = binary.AppendUvarint(b, uint64(d.RedoLSN))
		}
	case *Callback:
		b = binary.AppendUvarint(append(b, uint8(KindCallback)), uint64(rec.Object.Page))
		b = binary.AppendUvarint(b, uint64(rec.Object.Slot))
		b = binary.AppendUvarint(b, uint64(rec.Responder))
		b = binary.AppendUvarint(b, uint64(rec.PSN))
	case *Replacement:
		b = binary.AppendUvarint(append(b, uint8(KindReplacement)), uint64(rec.Page))
		b = binary.AppendUvarint(b, uint64(rec.PagePSN))
		b = binary.AppendUvarint(b, uint64(len(rec.Entries)))
		for _, e := range rec.Entries {
			b = binary.AppendUvarint(b, uint64(e.Client))
			b = binary.AppendUvarint(b, uint64(e.PSN))
		}
	case *ServerCheckpoint:
		b = binary.AppendUvarint(append(b, uint8(KindServerCheckpoint)), uint64(len(rec.DCT)))
		for _, e := range rec.DCT {
			b = binary.AppendUvarint(b, uint64(e.Page))
			b = binary.AppendUvarint(b, uint64(e.Client))
			b = binary.AppendUvarint(b, uint64(e.PSN))
			b = binary.AppendUvarint(b, uint64(e.RedoLSN))
		}
	default:
		panic("wal.AppendRecord: unknown record type")
	}
	return b
}

// appendTxnHead appends the header an update, logical and compensation
// record share after the kind byte.
func appendTxnHead(b []byte, txn ident.TxnID, prev LSN, pid page.ID, slot uint16, psn page.PSN) []byte {
	b = binary.AppendUvarint(b, uint64(txn))
	b = binary.AppendUvarint(b, uint64(prev))
	b = binary.AppendUvarint(b, uint64(pid))
	b = binary.AppendUvarint(b, uint64(slot))
	return binary.AppendUvarint(b, uint64(psn))
}

// appendOp appends the op byte, with flags and opHasOff when off is not
// zero, and then off.
func appendOp(b []byte, op OpKind, off uint32, flags uint8) []byte {
	if op > opMask {
		panic("wal: OpKind does not fit the op byte")
	}
	if off == 0 {
		return append(b, uint8(op)|flags)
	}
	return binary.AppendUvarint(append(b, uint8(op)|flags|opHasOff), uint64(off))
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

// Decode parses a payload produced by Encode into d's storage.  It
// accepts only what Encode produces: an overlong varint, a value too
// large for its field, an unknown flag or a byte after the record is
// ErrCorrupt, so a record that decodes re-encodes to the same bytes.
func (d *Decoder) Decode(data []byte) (Record, error) {
	r := reader{buf: data}
	kind := Kind(r.u8())
	var rec Record
	switch kind {
	case KindUpdate:
		u := &d.upd
		*u = Update{}
		u.TxnID, u.PrevLSN, u.Page, u.Slot, u.PSN = r.txnHead()
		flags := r.op(&u.Op, &u.Offset)
		nb := r.length()
		na := nb
		if flags&opSameLen == 0 {
			if na = r.length(); na == nb {
				r.fail() // equal lengths are written once
			}
		}
		u.Before = r.image(nb)
		u.After = r.image(na)
		rec = u
	case KindLogical:
		l := &d.lg
		*l = Logical{}
		l.TxnID, l.PrevLSN, l.Page, l.Slot, l.PSN = r.txnHead()
		l.Delta = r.varint()
		rec = l
	case KindCLR:
		c := &d.clr
		*c = CLR{}
		c.TxnID, c.PrevLSN, c.Page, c.Slot, c.PSN = r.txnHead()
		if r.op(&c.Op, &c.Offset)&opSameLen != 0 {
			r.fail()
		}
		c.After = r.image(r.length())
		c.Delta = r.varint()
		c.UndoNext = LSN(r.uvarint())
		rec = c
	case KindCommit:
		rec = &Commit{TxnID: ident.TxnID(r.uvarint()), PrevLSN: LSN(r.uvarint())}
	case KindAbort:
		rec = &Abort{TxnID: ident.TxnID(r.uvarint()), PrevLSN: LSN(r.uvarint())}
	case KindCheckpoint:
		cp := &Checkpoint{}
		for i, n := 0, r.length(); i < n && r.e == nil; i++ {
			cp.Active = append(cp.Active, TxnInfo{
				ID:       ident.TxnID(r.uvarint()),
				FirstLSN: LSN(r.uvarint()),
				LastLSN:  LSN(r.uvarint()),
			})
		}
		for i, n := 0, r.length(); i < n && r.e == nil; i++ {
			cp.DPT = append(cp.DPT, DPTEntry{Page: page.ID(r.uvarint()), RedoLSN: LSN(r.uvarint())})
		}
		rec = cp
	case KindCallback:
		cb := &Callback{}
		cb.Object.Page = page.ID(r.uvarint())
		cb.Object.Slot = r.u16()
		cb.Responder = ident.ClientID(r.u32())
		cb.PSN = page.PSN(r.uvarint())
		rec = cb
	case KindReplacement:
		rep := &Replacement{Page: page.ID(r.uvarint()), PagePSN: page.PSN(r.uvarint())}
		for i, n := 0, r.length(); i < n && r.e == nil; i++ {
			rep.Entries = append(rep.Entries, ReplEntry{
				Client: ident.ClientID(r.u32()),
				PSN:    page.PSN(r.uvarint()),
			})
		}
		rec = rep
	case KindServerCheckpoint:
		sc := &ServerCheckpoint{}
		for i, n := 0, r.length(); i < n && r.e == nil; i++ {
			sc.DCT = append(sc.DCT, DCTEntry{
				Page:    page.ID(r.uvarint()),
				Client:  ident.ClientID(r.u32()),
				PSN:     page.PSN(r.uvarint()),
				RedoLSN: LSN(r.uvarint()),
			})
		}
		rec = sc
	default:
		if r.e != nil {
			return nil, r.e
		}
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	if r.off != len(data) {
		r.fail()
	}
	if r.e != nil {
		return nil, r.e
	}
	return rec, nil
}

// peekPage returns the page an encoded record describes — the page an
// update, logical or compensation record changes, or the page of a
// callback record's object — and ok false for every other kind.  It
// reads the header only: no image is copied and nothing is allocated.
func peekPage(payload []byte) (pid page.ID, ok bool, err error) {
	r := reader{buf: payload}
	switch kind := Kind(r.u8()); kind {
	case KindUpdate, KindLogical, KindCLR:
		r.uvarint() // TxnID
		r.uvarint() // PrevLSN
	case KindCallback:
	case KindCommit, KindAbort, KindCheckpoint, KindReplacement, KindServerCheckpoint:
		return 0, false, nil
	default:
		if r.e != nil {
			return 0, false, r.e
		}
		return 0, false, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	pid = page.ID(r.uvarint())
	if r.e != nil {
		return 0, false, r.e
	}
	return pid, true, nil
}

// uvarintSize is the length of v as a uvarint: its significant bits
// in groups of seven, ceil(bits/7) computed as (bits*9+64)/64.
func uvarintSize(v uint64) int { return (bits.Len64(v|1)*9 + 64) >> 6 }

// zigzag maps a signed value to an unsigned one that is small when the
// value's magnitude is (encoding/binary's varint mapping).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

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

// uvarint reads a minimal uvarint: a longer encoding than
// binary.AppendUvarint's, or a value past 64 bits, is ErrCorrupt.
func (r *reader) uvarint() uint64 {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if r.off >= len(r.buf) {
			break
		}
		b := r.buf[r.off]
		r.off++
		if b < 0x80 {
			if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				break // overlong, or overflows 64 bits
			}
			return v | uint64(b)<<(7*i)
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	r.fail()
	return 0
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) u16() uint16 {
	v := r.uvarint()
	if v > 0xffff {
		r.fail()
		return 0
	}
	return uint16(v)
}

func (r *reader) u32() uint32 {
	v := r.uvarint()
	if v > 0xffffffff {
		r.fail()
		return 0
	}
	return uint32(v)
}

func (r *reader) txnHead() (ident.TxnID, LSN, page.ID, uint16, page.PSN) {
	return ident.TxnID(r.uvarint()), LSN(r.uvarint()), page.ID(r.uvarint()), r.u16(), page.PSN(r.uvarint())
}

// op reads an op byte and the Offset it may carry into op and off, and
// returns the byte's flags.
func (r *reader) op(op *OpKind, off *uint32) uint8 {
	b := r.u8()
	*op = OpKind(b & opMask)
	if b&^(opMask|opFlagMask) != 0 {
		r.fail()
	}
	if b&opHasOff != 0 {
		if *off = r.u32(); *off == 0 {
			r.fail() // a zero Offset is not written
		}
	}
	return b & opFlagMask
}

// length reads a byte-string length or an entry count, no more than
// the bytes left: an entry takes at least one byte per field, so a
// count past them is ErrCorrupt before any entry is allocated.
func (r *reader) length() int {
	n := r.uvarint()
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}

// image returns the next n bytes, aliased, or nil when n is zero.
func (r *reader) image(n int) []byte {
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
