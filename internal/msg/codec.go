// Binary wire codec for the hot protocol messages (netrpc
// ProtocolVersion 3).  The lock/fetch/ship/force/commit family and the
// callback-locking messages the server sends back (object callback,
// de-escalation, flush note) cross the wire on every transaction of a
// shared database, so these types get hand-rolled little-endian
// encoders in the style of the page and wal packages instead of gob:
// AppendWire appends the encoding to a caller-owned buffer, DecodeWire
// fills a caller-owned struct reusing any slice capacity it already
// has, and WireSize prices the encoding up front so the transport can
// reject oversized frames before allocating.
//
// Layout conventions (all little-endian):
//   - byte slices and strings: u32 length + raw bytes
//   - slices of structs: u32 count + elements
//   - bools: one byte, 0 or 1
//   - lock.Name: page u64 | slot u16 | isPage u8
//   - lock.ObjLock: slot u16 | mode u8
//   - page.ObjectID: page u64 | slot u16
//   - span.Context: its fixed 17-byte encoding (span.AppendWire)
//
// A decoded zero-length slice comes back nil (the encoding does not
// distinguish nil from empty; nothing in the protocol does either).
// Decoders are fail-sticky: after the first framing violation every
// further read returns zero values and Err() reports ErrWireCorrupt,
// so callers validate once at the end.  Every count is checked against
// the bytes actually remaining before any allocation, so hostile
// lengths cannot balloon memory.
package msg

import (
	"encoding/binary"
	"errors"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
)

// ErrWireCorrupt reports a binary payload that violates its own
// framing (truncated field, impossible count, trailing garbage).
var ErrWireCorrupt = errors.New("msg: corrupt binary payload")

// WireDec decodes one binary payload.  The zero value is ready after
// Reset; it holds no resources and lives happily on the stack.
type WireDec struct {
	b   []byte
	err error
}

// Reset points the decoder at a new payload and clears any error.
func (d *WireDec) Reset(b []byte) { d.b, d.err = b, nil }

// Err returns the sticky decode error, nil when the payload was clean
// so far.  Callers must also check Remaining() == 0 when the payload is
// supposed to be fully consumed.
func (d *WireDec) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *WireDec) Remaining() int { return len(d.b) }

func (d *WireDec) fail() {
	if d.err == nil {
		d.err = ErrWireCorrupt
	}
	d.b = nil
}

// U8 decodes one byte.
func (d *WireDec) U8() uint8 {
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool decodes one byte as a boolean.
func (d *WireDec) Bool() bool { return d.U8() != 0 }

// U16 decodes a little-endian uint16.
func (d *WireDec) U16() uint16 {
	if len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

// U32 decodes a little-endian uint32.
func (d *WireDec) U32() uint32 {
	if len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// U64 decodes a little-endian uint64.
func (d *WireDec) U64() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// Count decodes a u32 element count and validates it against the bytes
// remaining (each element encodes to at least one byte), so a corrupt
// count can never drive a large allocation.
func (d *WireDec) Count() int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int(n) > len(d.b) {
		d.fail()
		return 0
	}
	return int(n)
}

// Bytes decodes a u32-length-prefixed byte slice, reusing dst's
// capacity when it suffices.  Zero length decodes as nil.
func (d *WireDec) Bytes(dst []byte) []byte {
	n := d.Count()
	if d.err != nil || n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	copy(dst, d.b[:n])
	d.b = d.b[n:]
	return dst
}

// Str decodes a u32-length-prefixed string.  Zero length decodes as ""
// without allocating.
func (d *WireDec) Str() string {
	n := d.Count()
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Trace decodes a span.Context.
func (d *WireDec) Trace() span.Context {
	c, rest, ok := span.DecodeWire(d.b)
	if !ok {
		d.fail()
		return span.Context{}
	}
	d.b = rest
	return c
}

// Name decodes a lock.Name.
func (d *WireDec) Name() lock.Name {
	return lock.Name{Page: page.ID(d.U64()), Slot: d.U16(), IsPage: d.Bool()}
}

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendName(b []byte, n lock.Name) []byte {
	b = appendU64(b, uint64(n.Page))
	b = appendU16(b, n.Slot)
	return appendBool(b, n.IsPage)
}

const nameWireSize = 11

// ObjLocks decodes a counted list of object locks (slot u16 | mode u8
// each), reusing dst's capacity when it suffices.  Zero count decodes
// as nil.
func (d *WireDec) ObjLocks(dst []lock.ObjLock) []lock.ObjLock {
	n := d.Count()
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]lock.ObjLock, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i].Slot = d.U16()
		dst[i].Mode = lock.Mode(d.U8())
	}
	return dst
}

// Names decodes a count-prefixed lock.Name list, reusing dst.
func (d *WireDec) Names(dst []lock.Name) []lock.Name {
	n := d.Count()
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]lock.Name, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.Name()
	}
	return dst
}

// U64s decodes a count-prefixed uint64 list, reusing dst.  Zero count
// decodes as nil.
func (d *WireDec) U64s(dst []uint64) []uint64 {
	n := d.Count()
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.U64()
	}
	return dst
}

func appendU64s(b []byte, vs []uint64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU64(b, v)
	}
	return b
}

func appendNames(b []byte, names []lock.Name) []byte {
	b = appendU32(b, uint32(len(names)))
	for _, n := range names {
		b = appendName(b, n)
	}
	return b
}

func appendObjLocks(b []byte, objs []lock.ObjLock) []byte {
	b = appendU32(b, uint32(len(objs)))
	for _, o := range objs {
		b = appendU16(b, o.Slot)
		b = append(b, uint8(o.Mode))
	}
	return b
}

const objLockWireSize = 3

// Notes decodes a count-prefixed flush-note list, reusing dst.
func (d *WireDec) Notes(dst []FlushedNote) []FlushedNote {
	n := d.Count()
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]FlushedNote, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i].DecodeWire(d)
	}
	return dst
}

func appendNotes(b []byte, notes []FlushedNote) []byte {
	b = appendU32(b, uint32(len(notes)))
	for i := range notes {
		b = notes[i].AppendWire(b)
	}
	return b
}

const noteWireSize = 8 + 8

// notesWireSize returns the encoded size of a count-prefixed note list.
func notesWireSize(notes []FlushedNote) int { return 4 + len(notes)*noteWireSize }

// --- Carry ---

// carryWireSize returns the exact encoded size of an optional carrier:
// a presence byte, then seq u64 | counted (page u64, seq u64) marks |
// counted (page u64, image) pairs | counted names.
func carryWireSize(c *Carry) int {
	if c == nil {
		return 1
	}
	n := 1 + 8 + 4 + len(c.After)*16 + 4 + 4 + len(c.Releases)*nameWireSize
	for i := range c.Pages {
		n += 8 + 4 + len(c.Pages[i].Image)
	}
	return n
}

func appendCarry(b []byte, c *Carry) []byte {
	if c == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU64(b, c.Seq)
	b = appendU32(b, uint32(len(c.After)))
	for _, m := range c.After {
		b = appendU64(b, uint64(m.Page))
		b = appendU64(b, m.Seq)
	}
	b = appendU32(b, uint32(len(c.Pages)))
	for i := range c.Pages {
		b = appendU64(b, uint64(c.Pages[i].Page))
		b = appendBytes(b, c.Pages[i].Image)
	}
	return appendNames(b, c.Releases)
}

// Carry decodes an optional carrier (nil when absent), reusing dst and
// the capacity of its lists and images, so decoding into the previous
// request's carrier allocates nothing once it has grown.
func (d *WireDec) Carry(dst *Carry) *Carry {
	if !d.Bool() {
		return nil
	}
	if dst == nil {
		dst = new(Carry)
	}
	dst.Seq = d.U64()
	n := d.Count()
	if n == 0 {
		dst.After = nil
	} else {
		if cap(dst.After) < n {
			dst.After = make([]Mark, n)
		}
		dst.After = dst.After[:n]
		for i := range dst.After {
			dst.After[i] = Mark{Page: page.ID(d.U64()), Seq: d.U64()}
		}
	}
	n = d.Count()
	if n == 0 {
		dst.Pages = nil
	} else {
		if cap(dst.Pages) < n {
			grown := make([]PageImage, n)
			copy(grown, dst.Pages[:cap(dst.Pages)]) // keep the images' buffers
			dst.Pages = grown
		}
		dst.Pages = dst.Pages[:n]
		for i := range dst.Pages {
			pi := &dst.Pages[i]
			pi.Page = page.ID(d.U64())
			pi.Image = d.Bytes(pi.Image)
		}
	}
	dst.Releases = d.Names(dst.Releases)
	return dst
}

// --- LockReq ---

// WireSize returns the exact encoded size of the request.
func (r *LockReq) WireSize() int {
	return 4 + nameWireSize + 5 + 8 + span.WireSize + carryWireSize(r.Carry) + 8
}

// AppendWire appends the binary encoding of the request to b.
func (r *LockReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = appendName(b, r.Name)
	b = append(b, uint8(r.Mode))
	b = appendBool(b, r.PreferPage)
	b = appendBool(b, r.Upgrade)
	b = appendBool(b, r.HasCached)
	b = appendU64(b, uint64(r.CachedPSN))
	b = appendBool(b, r.Fetch)
	b = r.Trace.AppendWire(b)
	b = appendCarry(b, r.Carry)
	return appendU64(b, r.Carried)
}

// DecodeWire fills the request from d, reusing its slice capacity and
// its carrier.
func (r *LockReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Name = d.Name()
	r.Mode = lock.Mode(d.U8())
	r.PreferPage = d.Bool()
	r.Upgrade = d.Bool()
	r.HasCached = d.Bool()
	r.CachedPSN = page.PSN(d.U64())
	r.Fetch = d.Bool()
	r.Trace = d.Trace()
	r.Carry = d.Carry(r.Carry)
	r.Carried = d.U64()
}

// --- LockReply ---

const originWireSize = 10 + 4 + 8

// WireSize returns the exact encoded size of the reply.
func (r *LockReply) WireSize() int {
	return nameWireSize + 1 + 4 + len(r.Origins)*originWireSize + 4 + len(r.Image) + notesWireSize(r.Flushed)
}

// AppendWire appends the binary encoding of the reply to b.
func (r *LockReply) AppendWire(b []byte) []byte {
	b = appendName(b, r.Name)
	b = append(b, uint8(r.Mode))
	b = appendU32(b, uint32(len(r.Origins)))
	for i := range r.Origins {
		o := &r.Origins[i]
		b = appendU64(b, uint64(o.Object.Page))
		b = appendU16(b, o.Object.Slot)
		b = appendU32(b, uint32(o.Responder))
		b = appendU64(b, uint64(o.PSN))
	}
	b = appendBytes(b, r.Image)
	return appendNotes(b, r.Flushed)
}

// DecodeWire fills the reply from d, reusing its slice capacity.
func (r *LockReply) DecodeWire(d *WireDec) {
	r.Name = d.Name()
	r.Mode = lock.Mode(d.U8())
	n := d.Count()
	if n == 0 {
		r.Origins = nil
	} else {
		if cap(r.Origins) < n {
			r.Origins = make([]CallbackOrigin, n)
		}
		r.Origins = r.Origins[:n]
		for i := range r.Origins {
			o := &r.Origins[i]
			o.Object.Page = page.ID(d.U64())
			o.Object.Slot = d.U16()
			o.Responder = ident.ClientID(d.U32())
			o.PSN = page.PSN(d.U64())
		}
	}
	r.Image = d.Bytes(r.Image)
	r.Flushed = d.Notes(r.Flushed)
}

// --- LockBatchReq ---

const lockItemWireSize = nameWireSize + 5 + 8 + 8

// WireSize returns the exact encoded size of the request.
func (r *LockBatchReq) WireSize() int {
	return 4 + span.WireSize + 4 + len(r.Items)*lockItemWireSize + carryWireSize(r.Carry)
}

// AppendWire appends the binary encoding of the request to b.
func (r *LockBatchReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = r.Trace.AppendWire(b)
	b = appendU32(b, uint32(len(r.Items)))
	for i := range r.Items {
		it := &r.Items[i]
		b = appendName(b, it.Name)
		b = append(b, uint8(it.Mode))
		b = appendBool(b, it.PreferPage)
		b = appendBool(b, it.Upgrade)
		b = appendBool(b, it.HasCached)
		b = appendU64(b, uint64(it.CachedPSN))
		b = appendBool(b, it.Fetch)
		b = appendU64(b, it.Carried)
	}
	return appendCarry(b, r.Carry)
}

// DecodeWire fills the request from d, reusing its slice capacity.
func (r *LockBatchReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Trace = d.Trace()
	n := d.Count()
	if n == 0 {
		r.Items = nil
	} else {
		if cap(r.Items) < n {
			r.Items = make([]LockItem, n)
		}
		r.Items = r.Items[:n]
		for i := range r.Items {
			it := &r.Items[i]
			it.Name = d.Name()
			it.Mode = lock.Mode(d.U8())
			it.PreferPage = d.Bool()
			it.Upgrade = d.Bool()
			it.HasCached = d.Bool()
			it.CachedPSN = page.PSN(d.U64())
			it.Fetch = d.Bool()
			it.Carried = d.U64()
		}
	}
	r.Carry = d.Carry(r.Carry)
}

// --- LockBatchReply ---

// WireSize returns the exact encoded size of the reply.
func (r *LockBatchReply) WireSize() int {
	n := 4 + 4 + notesWireSize(r.Flushed)
	for i := range r.Grants {
		n += r.Grants[i].WireSize()
	}
	for _, e := range r.Errs {
		n += 4 + len(e)
	}
	return n
}

// AppendWire appends the binary encoding of the reply to b.
func (r *LockBatchReply) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(len(r.Grants)))
	for i := range r.Grants {
		b = r.Grants[i].AppendWire(b)
	}
	b = appendU32(b, uint32(len(r.Errs)))
	for _, e := range r.Errs {
		b = appendStr(b, e)
	}
	return appendNotes(b, r.Flushed)
}

// DecodeWire fills the reply from d, reusing its slice capacity.
func (r *LockBatchReply) DecodeWire(d *WireDec) {
	n := d.Count()
	if n == 0 {
		r.Grants = nil
	} else {
		if cap(r.Grants) < n {
			r.Grants = make([]LockReply, n)
		}
		r.Grants = r.Grants[:n]
		for i := range r.Grants {
			r.Grants[i].DecodeWire(d)
		}
	}
	n = d.Count()
	if n == 0 {
		r.Errs = nil
	} else {
		if cap(r.Errs) < n {
			r.Errs = make([]string, n)
		}
		r.Errs = r.Errs[:n]
		for i := range r.Errs {
			r.Errs[i] = d.Str()
		}
	}
	r.Flushed = d.Notes(r.Flushed)
}

// --- FetchReq ---

// WireSize returns the exact encoded size of the request.
func (r *FetchReq) WireSize() int { return 4 + 8 + 1 + 8 + span.WireSize }

// AppendWire appends the binary encoding of the request to b.
func (r *FetchReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = appendU64(b, uint64(r.Page))
	b = appendBool(b, r.Recovery)
	b = appendU64(b, r.Carried)
	return r.Trace.AppendWire(b)
}

// DecodeWire fills the request from d.
func (r *FetchReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Page = page.ID(d.U64())
	r.Recovery = d.Bool()
	r.Carried = d.U64()
	r.Trace = d.Trace()
}

// --- FetchReply ---

// WireSize returns the exact encoded size of the reply.
func (r *FetchReply) WireSize() int { return 4 + len(r.Image) + 8 }

// AppendWire appends the binary encoding of the reply to b.
func (r *FetchReply) AppendWire(b []byte) []byte {
	b = appendBytes(b, r.Image)
	return appendU64(b, uint64(r.DCTPSN))
}

// DecodeWire fills the reply from d, reusing its image capacity.
func (r *FetchReply) DecodeWire(d *WireDec) {
	r.Image = d.Bytes(r.Image)
	r.DCTPSN = page.PSN(d.U64())
}

// --- FetchBatchReq ---

// WireSize returns the exact encoded size of the request.
func (r *FetchBatchReq) WireSize() int {
	return 4 + span.WireSize + 4 + len(r.Pages)*8 + 4 + len(r.Carried)*8
}

// AppendWire appends the binary encoding of the request to b.
func (r *FetchBatchReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = r.Trace.AppendWire(b)
	b = appendU32(b, uint32(len(r.Pages)))
	for _, p := range r.Pages {
		b = appendU64(b, uint64(p))
	}
	return appendU64s(b, r.Carried)
}

// DecodeWire fills the request from d, reusing its slice capacity.
func (r *FetchBatchReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Trace = d.Trace()
	n := d.Count()
	if n == 0 {
		r.Pages = nil
	} else {
		if cap(r.Pages) < n {
			r.Pages = make([]page.ID, n)
		}
		r.Pages = r.Pages[:n]
		for i := range r.Pages {
			r.Pages[i] = page.ID(d.U64())
		}
	}
	r.Carried = d.U64s(r.Carried)
}

// --- FetchBatchReply ---

// WireSize returns the exact encoded size of the reply.
func (r *FetchBatchReply) WireSize() int {
	n := 4 + 4 + len(r.DCTPSNs)*8 + 4
	for _, img := range r.Images {
		n += 4 + len(img)
	}
	for _, e := range r.Errs {
		n += 4 + len(e)
	}
	return n
}

// AppendWire appends the binary encoding of the reply to b.
func (r *FetchBatchReply) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(len(r.Images)))
	for _, img := range r.Images {
		b = appendBytes(b, img)
	}
	b = appendU32(b, uint32(len(r.DCTPSNs)))
	for _, p := range r.DCTPSNs {
		b = appendU64(b, uint64(p))
	}
	b = appendU32(b, uint32(len(r.Errs)))
	for _, e := range r.Errs {
		b = appendStr(b, e)
	}
	return b
}

// DecodeWire fills the reply from d, reusing its slice capacity (both
// the outer image list and each image buffer).
func (r *FetchBatchReply) DecodeWire(d *WireDec) {
	n := d.Count()
	if n == 0 {
		r.Images = nil
	} else {
		if cap(r.Images) < n {
			r.Images = make([][]byte, n)
		}
		r.Images = r.Images[:n]
		for i := range r.Images {
			r.Images[i] = d.Bytes(r.Images[i])
		}
	}
	n = d.Count()
	if n == 0 {
		r.DCTPSNs = nil
	} else {
		if cap(r.DCTPSNs) < n {
			r.DCTPSNs = make([]page.PSN, n)
		}
		r.DCTPSNs = r.DCTPSNs[:n]
		for i := range r.DCTPSNs {
			r.DCTPSNs[i] = page.PSN(d.U64())
		}
	}
	n = d.Count()
	if n == 0 {
		r.Errs = nil
		return
	}
	if cap(r.Errs) < n {
		r.Errs = make([]string, n)
	}
	r.Errs = r.Errs[:n]
	for i := range r.Errs {
		r.Errs[i] = d.Str()
	}
}

// --- UnlockReq ---

// WireSize returns the exact encoded size of the request.
func (r *UnlockReq) WireSize() int {
	return 4 + 1 + nameWireSize + 4 + len(r.Objs)*objLockWireSize
}

// AppendWire appends the binary encoding of the request to b.
func (r *UnlockReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = append(b, uint8(r.Action))
	b = appendName(b, r.Name)
	return appendObjLocks(b, r.Objs)
}

// DecodeWire fills the request from d, reusing its slice capacity.
func (r *UnlockReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Action = UnlockAction(d.U8())
	r.Name = d.Name()
	r.Objs = d.ObjLocks(r.Objs)
}

// --- ShipReq ---

// WireSize returns the exact encoded size of the request.
func (r *ShipReq) WireSize() int {
	return 4 + 1 + span.WireSize + carryWireSize(&r.Carry)
}

// AppendWire appends the binary encoding of the request to b.
func (r *ShipReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = append(b, uint8(r.Reason))
	b = r.Trace.AppendWire(b)
	return appendCarry(b, &r.Carry)
}

// DecodeWire fills the request from d, reusing its slice capacity.
func (r *ShipReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Reason = ShipReason(d.U8())
	r.Trace = d.Trace()
	if d.Carry(&r.Carry) == nil {
		r.Carry = Carry{}
	}
}

// --- ForceReq ---

// WireSize returns the exact encoded size of the request.
func (r *ForceReq) WireSize() int { return 4 + 8 + 8 + 8 + span.WireSize }

// AppendWire appends the binary encoding of the request to b.
func (r *ForceReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = appendU64(b, uint64(r.Page))
	b = appendU64(b, uint64(r.PSN))
	b = appendU64(b, r.Carried)
	return r.Trace.AppendWire(b)
}

// DecodeWire fills the request from d.
func (r *ForceReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Page = page.ID(d.U64())
	r.PSN = page.PSN(d.U64())
	r.Carried = d.U64()
	r.Trace = d.Trace()
}

// --- ForceReply ---

// WireSize returns the exact encoded size of the reply.
func (r *ForceReply) WireSize() int { return 8 }

// AppendWire appends the binary encoding of the reply to b.
func (r *ForceReply) AppendWire(b []byte) []byte { return appendU64(b, uint64(r.PSN)) }

// DecodeWire fills the reply from d.
func (r *ForceReply) DecodeWire(d *WireDec) { r.PSN = page.PSN(d.U64()) }

// --- CommitShipReq ---

// WireSize returns the exact encoded size of the request.
func (r *CommitShipReq) WireSize() int {
	n := 4 + 8 + span.WireSize + 4 + 4
	for _, rec := range r.Records {
		n += 4 + len(rec)
	}
	for _, p := range r.Pages {
		n += 4 + len(p)
	}
	return n
}

// AppendWire appends the binary encoding of the request to b.
func (r *CommitShipReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Client))
	b = appendU64(b, uint64(r.Txn))
	b = r.Trace.AppendWire(b)
	b = appendU32(b, uint32(len(r.Records)))
	for _, rec := range r.Records {
		b = appendBytes(b, rec)
	}
	b = appendU32(b, uint32(len(r.Pages)))
	for _, p := range r.Pages {
		b = appendBytes(b, p)
	}
	return b
}

// DecodeWire fills the request from d, reusing its slice capacity.
func (r *CommitShipReq) DecodeWire(d *WireDec) {
	r.Client = ident.ClientID(d.U32())
	r.Txn = ident.TxnID(d.U64())
	r.Trace = d.Trace()
	n := d.Count()
	if n == 0 {
		r.Records = nil
	} else {
		if cap(r.Records) < n {
			r.Records = make([][]byte, n)
		}
		r.Records = r.Records[:n]
		for i := range r.Records {
			r.Records[i] = d.Bytes(r.Records[i])
		}
	}
	n = d.Count()
	if n == 0 {
		r.Pages = nil
		return
	}
	if cap(r.Pages) < n {
		r.Pages = make([][]byte, n)
	}
	r.Pages = r.Pages[:n]
	for i := range r.Pages {
		r.Pages[i] = d.Bytes(r.Pages[i])
	}
}

// --- CallbackReq ---

// WireSize returns the exact encoded size of the request.
func (r *CallbackReq) WireSize() int { return 4 + nameWireSize + 2 }

// AppendWire appends the binary encoding of the request to b.
func (r *CallbackReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Requester))
	b = appendName(b, r.Object)
	b = append(b, uint8(r.Wanted))
	return appendBool(b, r.Wait)
}

// DecodeWire fills the request from d.
func (r *CallbackReq) DecodeWire(d *WireDec) {
	r.Requester = ident.ClientID(d.U32())
	r.Object = d.Name()
	r.Wanted = lock.Mode(d.U8())
	r.Wait = d.Bool()
}

// --- CallbackReply ---

// WireSize returns the exact encoded size of the reply.
func (r *CallbackReply) WireSize() int { return 4 + 4 + len(r.Image) + 8 }

// AppendWire appends the binary encoding of the reply to b.
func (r *CallbackReply) AppendWire(b []byte) []byte {
	b = appendBool(b, r.Released)
	b = appendBool(b, r.Downgraded)
	b = appendBool(b, r.HadPage)
	b = appendBool(b, r.Busy)
	b = appendBytes(b, r.Image)
	return appendU64(b, r.Carried)
}

// DecodeWire fills the reply from d, reusing its image capacity.
func (r *CallbackReply) DecodeWire(d *WireDec) {
	r.Released = d.Bool()
	r.Downgraded = d.Bool()
	r.HadPage = d.Bool()
	r.Busy = d.Bool()
	r.Image = d.Bytes(r.Image)
	r.Carried = d.U64()
}

// --- DeescReq ---

// WireSize returns the exact encoded size of the request.
func (r *DeescReq) WireSize() int { return 4 + 8 + 2 }

// AppendWire appends the binary encoding of the request to b.
func (r *DeescReq) AppendWire(b []byte) []byte {
	b = appendU32(b, uint32(r.Requester))
	b = appendU64(b, uint64(r.Page))
	b = append(b, uint8(r.Wanted))
	return appendBool(b, r.Wait)
}

// DecodeWire fills the request from d.
func (r *DeescReq) DecodeWire(d *WireDec) {
	r.Requester = ident.ClientID(d.U32())
	r.Page = page.ID(d.U64())
	r.Wanted = lock.Mode(d.U8())
	r.Wait = d.Bool()
}

// --- DeescReply ---

// WireSize returns the exact encoded size of the reply.
func (r *DeescReply) WireSize() int {
	return 2 + 4 + len(r.Objs)*objLockWireSize + 4 + len(r.Image) + 8
}

// AppendWire appends the binary encoding of the reply to b.
func (r *DeescReply) AppendWire(b []byte) []byte {
	b = appendBool(b, r.HadPage)
	b = appendBool(b, r.Busy)
	b = appendObjLocks(b, r.Objs)
	b = appendBytes(b, r.Image)
	return appendU64(b, r.Carried)
}

// DecodeWire fills the reply from d, reusing its slice capacity.
func (r *DeescReply) DecodeWire(d *WireDec) {
	r.HadPage = d.Bool()
	r.Busy = d.Bool()
	r.Objs = d.ObjLocks(r.Objs)
	r.Image = d.Bytes(r.Image)
	r.Carried = d.U64()
}

// --- FlushedNote ---

// WireSize returns the exact encoded size of the note.
func (r *FlushedNote) WireSize() int { return noteWireSize }

// AppendWire appends the binary encoding of the note to b.
func (r *FlushedNote) AppendWire(b []byte) []byte {
	b = appendU64(b, uint64(r.Page))
	return appendU64(b, uint64(r.PSN))
}

// DecodeWire fills the note from d.
func (r *FlushedNote) DecodeWire(d *WireDec) {
	r.Page = page.ID(d.U64())
	r.PSN = page.PSN(d.U64())
}
