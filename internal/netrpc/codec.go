package netrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"clientlog/internal/msg"
)

// The v3 frame layout, unchanged since ProtocolVersion 3 (after the
// 4-byte big-endian frame length):
//
//	[0:4)   crc32 (IEEE, little-endian) over payload[4:]
//	[4]     type tag (tagGob = whole envelope gob-encoded as a gobFrame)
//	[5]     flags: bit0 reply, bit1 error-string present
//	[6:14)  envelope ID (little-endian)
//	[14:22) session sequence number (little-endian)
//	...     error string (u32 length + bytes, only when bit1 set)
//	...     body (tag-specific binary encoding from internal/msg)
//
// The hot request tags double as the method (a tagLockReq frame IS a
// msg.MLock call, a tagCbObjectReq frame a msg.MCallbackObject
// callback), so hot requests never spell their method on the wire.
// Every message without a tag — registration, allocation, recovery, the
// baseline schemes' token traffic — rides the tagGob escape: the whole
// envelope gob-encoded inside a v3 header, so the CRC and the
// recoverable envelope ID still cover cold traffic.
const (
	v3HeaderSize = 22

	v3FlagReply  = 1 << 0
	v3FlagHasErr = 1 << 1
)

// v3 body type tags.  tagEmpty is valid only on replies: as a request
// body emptyBody would erase the method name (requests derive their
// method from the tag), so empty-bodied requests take the gob escape.
// Tag values are wire format: new tags go at the end, before tagCount.
const (
	tagGob = iota
	tagLockReq
	tagLockReply
	tagLockBatchReq
	tagLockBatchReply
	tagFetchReq
	tagFetchReply
	tagFetchBatchReq
	tagFetchBatchReply
	tagUnlockReq
	tagShipReq
	tagForceReq
	tagForceReply
	tagCommitShipReq
	tagEmpty
	tagCbObjectReq
	tagCbObjectReply
	tagCbDeescReq
	tagCbDeescReply
	tagCbFlushed // one-way note; body is a msg.FlushedNote
	tagCount
)

// tagMethod is the call each binary tag belongs to and tagReply whether
// it travels as a reply.  A request frame takes its method from its tag,
// so hot requests never spell it; reply tags fold into their request's
// method, so the wire stats count both directions of one call.
var (
	tagMethod = [tagCount]msg.Method{
		tagLockReq: msg.MLock, tagLockReply: msg.MLock,
		tagLockBatchReq: msg.MLockBatch, tagLockBatchReply: msg.MLockBatch,
		tagFetchReq: msg.MFetch, tagFetchReply: msg.MFetch,
		tagFetchBatchReq: msg.MFetchBatch, tagFetchBatchReply: msg.MFetchBatch,
		tagUnlockReq: msg.MUnlock, tagShipReq: msg.MShip,
		tagForceReq: msg.MForce, tagForceReply: msg.MForce,
		tagCommitShipReq: msg.MCommitShip,
		tagCbObjectReq:   msg.MCallbackObject, tagCbObjectReply: msg.MCallbackObject,
		tagCbDeescReq: msg.MDeescalatePage, tagCbDeescReply: msg.MDeescalatePage,
		tagCbFlushed: msg.MNotifyFlushed,
	}
	tagReply = [tagCount]bool{
		tagLockReply: true, tagLockBatchReply: true, tagFetchReply: true, tagFetchBatchReply: true,
		tagForceReply: true, tagEmpty: true, tagCbObjectReply: true, tagCbDeescReply: true,
	}
)

var (
	errBadCRC    = errors.New("netrpc: frame checksum mismatch")
	errBadHeader = errors.New("netrpc: truncated v3 header")
	errBadBody   = errors.New("netrpc: malformed v3 body")
)

// --- pooled frame buffers ---

// wbuf is one encoded frame travelling from the encoder to the write
// loop.  Pooling the wrapper struct (not the raw slice) keeps Put from
// boxing a fresh interface allocation on every cycle.
type wbuf struct{ b []byte }

// Size classes for pooled frame buffers: most frames are tiny lock and
// ack traffic, page images land in the middle class, batch traffic in
// the large one.  Buffers that outgrow the largest class are dropped on
// put so one pathological frame cannot pin 16 MiB forever.
const (
	bufSmall = 512
	bufMed   = 8 << 10
	bufLarge = 128 << 10
)

var wbufPools = [3]sync.Pool{
	{New: func() interface{} { return &wbuf{b: make([]byte, 0, bufSmall)} }},
	{New: func() interface{} { return &wbuf{b: make([]byte, 0, bufMed)} }},
	{New: func() interface{} { return &wbuf{b: make([]byte, 0, bufLarge)} }},
}

// getBuf returns a pooled buffer whose capacity covers hint where
// possible; oversized requests get a fresh unpooled allocation.
func getBuf(hint int) *wbuf {
	switch {
	case hint <= bufSmall:
		return wbufPools[0].Get().(*wbuf)
	case hint <= bufMed:
		return wbufPools[1].Get().(*wbuf)
	case hint <= bufLarge:
		return wbufPools[2].Get().(*wbuf)
	default:
		return &wbuf{b: make([]byte, 0, hint)}
	}
}

// putBuf recycles a buffer into the class its final capacity fits.
func putBuf(w *wbuf) {
	c := cap(w.b)
	w.b = w.b[:0]
	switch {
	case c <= bufSmall:
		wbufPools[0].Put(w)
	case c <= bufMed:
		wbufPools[1].Put(w)
	case c <= bufLarge:
		wbufPools[2].Put(w)
	}
}

// limitWriter bounds how much an encoder may append to a frame buffer,
// so a pathological payload fails fast instead of materializing a
// 16MiB+ frame that would only be rejected afterwards.
type limitWriter struct {
	w     *wbuf
	limit int
}

func (l *limitWriter) Write(p []byte) (int, error) {
	if len(l.w.b)+len(p) > l.limit {
		return 0, ErrFrameTooLarge
	}
	l.w.b = append(l.w.b, p...)
	return len(p), nil
}

// --- encoding ---

// v3Tag classifies env for the binary fast path: the type tag and exact
// body size, or ok=false when the envelope must take the gob escape.  A
// body type has one tag, and the tag must fit the envelope: a reply tag
// on a reply, a request tag on a request for the tag's own method.
func v3Tag(env *envelope) (tag byte, size int, ok bool) {
	switch b := env.Body.(type) {
	case msg.LockReq:
		tag, size = tagLockReq, b.WireSize()
	case msg.LockReply:
		tag, size = tagLockReply, b.WireSize()
	case msg.LockBatchReq:
		tag, size = tagLockBatchReq, b.WireSize()
	case msg.LockBatchReply:
		tag, size = tagLockBatchReply, b.WireSize()
	case msg.FetchReq:
		tag, size = tagFetchReq, b.WireSize()
	case msg.FetchReply:
		tag, size = tagFetchReply, b.WireSize()
	case msg.FetchBatchReq:
		tag, size = tagFetchBatchReq, b.WireSize()
	case msg.FetchBatchReply:
		tag, size = tagFetchBatchReply, b.WireSize()
	case msg.UnlockReq:
		tag, size = tagUnlockReq, b.WireSize()
	case msg.ShipReq:
		tag, size = tagShipReq, b.WireSize()
	case msg.ForceReq:
		tag, size = tagForceReq, b.WireSize()
	case msg.ForceReply:
		tag, size = tagForceReply, b.WireSize()
	case msg.CommitShipReq:
		tag, size = tagCommitShipReq, b.WireSize()
	case msg.CallbackReq:
		tag, size = tagCbObjectReq, b.WireSize()
	case msg.CallbackReply:
		tag, size = tagCbObjectReply, b.WireSize()
	case msg.DeescReq:
		tag, size = tagCbDeescReq, b.WireSize()
	case msg.DeescReply:
		tag, size = tagCbDeescReply, b.WireSize()
	case msg.FlushedNote:
		// cb.ship-up-to shares the body type but is a recovery call.
		tag, size = tagCbFlushed, b.WireSize()
	case emptyBody:
		tag = tagEmpty
	default:
		return 0, 0, false
	}
	if env.Reply {
		return tag, size, tagReply[tag]
	}
	return tag, size, !tagReply[tag] && tagMethod[tag] == env.Method
}

func appendV3Body(b []byte, body interface{}) []byte {
	switch v := body.(type) {
	case msg.LockReq:
		return v.AppendWire(b)
	case msg.LockReply:
		return v.AppendWire(b)
	case msg.LockBatchReq:
		return v.AppendWire(b)
	case msg.LockBatchReply:
		return v.AppendWire(b)
	case msg.FetchReq:
		return v.AppendWire(b)
	case msg.FetchReply:
		return v.AppendWire(b)
	case msg.FetchBatchReq:
		return v.AppendWire(b)
	case msg.FetchBatchReply:
		return v.AppendWire(b)
	case msg.UnlockReq:
		return v.AppendWire(b)
	case msg.ShipReq:
		return v.AppendWire(b)
	case msg.ForceReq:
		return v.AppendWire(b)
	case msg.ForceReply:
		return v.AppendWire(b)
	case msg.CommitShipReq:
		return v.AppendWire(b)
	case msg.CallbackReq:
		return v.AppendWire(b)
	case msg.CallbackReply:
		return v.AppendWire(b)
	case msg.DeescReq:
		return v.AppendWire(b)
	case msg.DeescReply:
		return v.AppendWire(b)
	case msg.FlushedNote:
		return v.AppendWire(b)
	}
	return b
}

// encodeEnvelopeV3 appends a complete v3 frame to w.  The binary path
// prices the payload exactly before touching the buffer, so oversized
// frames fail fast with nothing allocated.
func encodeEnvelopeV3(w *wbuf, env *envelope) error {
	tag, bodySize, ok := v3Tag(env)
	if !ok {
		return encodeEnvelopeV3Gob(w, env)
	}
	payload := v3HeaderSize + bodySize
	if env.Err != "" {
		payload += 4 + len(env.Err)
	}
	if payload > MaxFrame {
		return ErrFrameTooLarge
	}
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(payload))
	start := len(w.b)
	w.b = append(w.b, 0, 0, 0, 0) // crc placeholder
	var flags byte
	if env.Reply {
		flags |= v3FlagReply
	}
	if env.Err != "" {
		flags |= v3FlagHasErr
	}
	w.b = append(w.b, tag, flags)
	w.b = binary.LittleEndian.AppendUint64(w.b, env.ID)
	w.b = binary.LittleEndian.AppendUint64(w.b, env.Seq)
	if env.Err != "" {
		w.b = binary.LittleEndian.AppendUint32(w.b, uint32(len(env.Err)))
		w.b = append(w.b, env.Err...)
	}
	w.b = appendV3Body(w.b, env.Body)
	binary.LittleEndian.PutUint32(w.b[start:], crc32.ChecksumIEEE(w.b[start+4:]))
	return nil
}

// encodeEnvelopeV3Gob wraps a gob-encoded envelope in a v3 header (the
// cold-message escape hatch).  The header keeps the real ID and reply
// flag so even a corrupt cold reply can fail its pending call fast.
func encodeEnvelopeV3Gob(w *wbuf, env *envelope) error {
	w.b = append(w.b, 0, 0, 0, 0) // frame length placeholder
	start := len(w.b)
	var flags byte
	if env.Reply {
		flags |= v3FlagReply
	}
	w.b = append(w.b, 0, 0, 0, 0, tagGob, flags)
	w.b = binary.LittleEndian.AppendUint64(w.b, env.ID)
	w.b = binary.LittleEndian.AppendUint64(w.b, env.Seq)
	lw := &limitWriter{w: w, limit: start + MaxFrame}
	g := gobFrame{ID: env.ID, Seq: env.Seq, Method: env.Method.String(), Reply: env.Reply, Err: env.Err, Body: env.Body}
	if err := gob.NewEncoder(lw).Encode(&g); err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			return ErrFrameTooLarge
		}
		return fmt.Errorf("netrpc: encode %v: %w", env.Method, err)
	}
	binary.BigEndian.PutUint32(w.b[start-4:], uint32(len(w.b)-start))
	binary.LittleEndian.PutUint32(w.b[start:], crc32.ChecksumIEEE(w.b[start+4:]))
	return nil
}

// decodeEnvelopeV3 decodes one v3 payload.  Corruption (checksum or
// body framing) comes back as a corruptFrameError carrying the
// best-effort envelope ID so the reader can fail the matching pending
// call instead of letting it hang.
func decodeEnvelopeV3(payload []byte) (envelope, error) {
	var env envelope
	if len(payload) < v3HeaderSize {
		return env, corruptFrameError{err: errBadHeader}
	}
	id := binary.LittleEndian.Uint64(payload[6:14])
	reply := payload[5]&v3FlagReply != 0
	if crc32.ChecksumIEEE(payload[4:]) != binary.LittleEndian.Uint32(payload[:4]) {
		return env, corruptFrameError{err: errBadCRC, id: id, reply: reply}
	}
	tag := payload[4]
	flags := payload[5]
	env.ID = id
	env.Reply = reply
	env.Seq = binary.LittleEndian.Uint64(payload[14:22])
	rest := payload[v3HeaderSize:]
	if flags&v3FlagHasErr != 0 {
		if len(rest) < 4 {
			return env, corruptFrameError{err: errBadBody, id: id, reply: reply}
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if int(n) > len(rest) {
			return env, corruptFrameError{err: errBadBody, id: id, reply: reply}
		}
		env.Err = string(rest[:n])
		rest = rest[n:]
	}
	if tag == tagGob {
		var g gobFrame
		if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&g); err != nil {
			return env, corruptFrameError{err: err, id: id, reply: reply}
		}
		return envelope{ID: g.ID, Seq: g.Seq, Method: msg.MethodNamed(g.Method), Reply: g.Reply, Err: g.Err, Body: g.Body}, nil
	}
	var d msg.WireDec
	d.Reset(rest)
	switch tag {
	case tagLockReq:
		var b msg.LockReq
		b.DecodeWire(&d)
		env.Body = b
	case tagLockReply:
		var b msg.LockReply
		b.DecodeWire(&d)
		env.Body = b
	case tagLockBatchReq:
		var b msg.LockBatchReq
		b.DecodeWire(&d)
		env.Body = b
	case tagLockBatchReply:
		var b msg.LockBatchReply
		b.DecodeWire(&d)
		env.Body = b
	case tagFetchReq:
		var b msg.FetchReq
		b.DecodeWire(&d)
		env.Body = b
	case tagFetchReply:
		var b msg.FetchReply
		b.DecodeWire(&d)
		env.Body = b
	case tagFetchBatchReq:
		var b msg.FetchBatchReq
		b.DecodeWire(&d)
		env.Body = b
	case tagFetchBatchReply:
		var b msg.FetchBatchReply
		b.DecodeWire(&d)
		env.Body = b
	case tagUnlockReq:
		var b msg.UnlockReq
		b.DecodeWire(&d)
		env.Body = b
	case tagShipReq:
		var b msg.ShipReq
		b.DecodeWire(&d)
		env.Body = b
	case tagForceReq:
		var b msg.ForceReq
		b.DecodeWire(&d)
		env.Body = b
	case tagForceReply:
		var b msg.ForceReply
		b.DecodeWire(&d)
		env.Body = b
	case tagCommitShipReq:
		var b msg.CommitShipReq
		b.DecodeWire(&d)
		env.Body = b
	case tagEmpty:
		env.Body = emptyBody{}
	case tagCbObjectReq:
		var b msg.CallbackReq
		b.DecodeWire(&d)
		env.Body = b
	case tagCbObjectReply:
		var b msg.CallbackReply
		b.DecodeWire(&d)
		env.Body = b
	case tagCbDeescReq:
		var b msg.DeescReq
		b.DecodeWire(&d)
		env.Body = b
	case tagCbDeescReply:
		var b msg.DeescReply
		b.DecodeWire(&d)
		env.Body = b
	case tagCbFlushed:
		var b msg.FlushedNote
		b.DecodeWire(&d)
		env.Body = b
	default:
		return env, corruptFrameError{err: errBadBody, id: id, reply: reply}
	}
	if d.Err() != nil || d.Remaining() != 0 || tagReply[tag] != env.Reply {
		return env, corruptFrameError{err: errBadBody, id: id, reply: reply}
	}
	if !env.Reply {
		env.Method = tagMethod[tag]
	}
	return env, nil
}
