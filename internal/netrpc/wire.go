// Package netrpc carries the client-server protocol of internal/msg
// over real TCP connections, so the cmd tools can run the system as an
// actual distributed deployment.
//
// One TCP connection per client carries traffic in both directions:
// client requests (lock, fetch, ship, ...) and server-initiated
// callbacks (callback locking, flush notifications, restart recovery).
//
// Each frame on the wire, from the first byte of the connection, is a
// 4-byte big-endian length followed by the CRC-framed payload of
// codec.go: the per-transaction message types in both directions
// hand-rolled, the hello, registration and recovery traffic gob inside
// the same header.  A corrupt payload poisons only its own frame: the
// length prefix still delimits the next one and the connection keeps
// working.  Oversized lengths are rejected before any allocation and
// tear the connection down (the prefix itself cannot be trusted),
// failing pending calls fast instead of wedging them.
//
// Sessions survive connection loss: the first exchange on every
// connection is a hello carrying the sender's ProtocolVersion and a
// session token (zero for a new session).  The server closes a
// connection whose first frame is anything but a hello naming its own
// version — there is one wire format and no fallback — and a client
// that reconnects within the server's grace window resumes its session
// — same identity, same reply cache — so retried requests are never
// re-executed.  Request sequence numbers
// (envelope.Seq) are session-scoped and assigned by the caller, which
// is what makes retransmissions idempotent.
package netrpc

import (
	"encoding/gob"
	"errors"
	"fmt"

	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/obs"
	"clientlog/internal/page"
)

// ProtocolVersion is the one wire protocol revision this package
// speaks, announced in the hello exchange: the CRC-framed codec of
// codec.go, hand-rolled for the hot message types, callbacks included,
// with gob as the escape hatch for cold traffic.  A peer announcing any
// other version is refused with an error naming both; nothing is
// negotiated.  Version 4 keeps version 3's frames byte for byte on
// every binary tag and changed only the gob bodies of cold calls (the
// msg request structs replaced netrpc's wrapper bodies); the hello
// itself decodes the same in both, so a version 3 peer is refused at
// once.
const ProtocolVersion = 4

// Metrics counts wire traffic and session lifecycle events across every
// connection in the process.
var Metrics struct {
	FramesSent    obs.Counter
	FramesRecv    obs.Counter
	BytesSent     obs.Counter
	BytesRecv     obs.Counter
	Resumes       obs.Counter // sessions resumed within the grace window
	CorruptFrames obs.Counter // frames that failed checksum or decode
}

// RegisterObs binds the package's wire counters into reg as the
// netrpc_* families.
func RegisterObs(reg *obs.Registry, tags ...obs.Tag) {
	if reg == nil {
		return
	}
	reg.BindCounter(&Metrics.FramesSent, "netrpc_frames_sent_total", tags...)
	reg.BindCounter(&Metrics.FramesRecv, "netrpc_frames_recv_total", tags...)
	reg.BindCounter(&Metrics.BytesSent, "netrpc_bytes_sent_total", tags...)
	reg.BindCounter(&Metrics.BytesRecv, "netrpc_bytes_recv_total", tags...)
	reg.BindCounter(&Metrics.Resumes, "netrpc_session_resumes_total", tags...)
	reg.BindCounter(&Metrics.CorruptFrames, "netrpc_corrupt_frames_total", tags...)
}

// MaxFrame bounds a single message on the wire.  A frame length above
// the bound means the stream is garbage (or hostile); the connection is
// torn down rather than resynchronized, because the prefix itself is
// the only framing information.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a frame that exceeds MaxFrame, in either
// direction.
var ErrFrameTooLarge = errors.New("netrpc: frame exceeds size limit")

// corruptFrameError marks a frame whose payload failed its checksum or
// decode.  Framing is intact (the length prefix was honored), so the
// reader may skip the frame and continue.  id and reply carry the
// best-effort envelope identity recovered from the frame header, so a
// corrupt reply can fail its pending call immediately instead of
// leaving it to hang until its deadline.
type corruptFrameError struct {
	err   error
	id    uint64
	reply bool
}

func (e corruptFrameError) Error() string { return fmt.Sprintf("netrpc: corrupt frame: %v", e.err) }
func (e corruptFrameError) Unwrap() error { return e.err }

// envelope is one wire message: a request (Method set), a reply
// (Reply=true, Err optionally set), or a one-way notification
// (Method set, ID zero).  ID correlates request and reply within one
// connection; Seq is the session-scoped request number used for
// duplicate suppression and survives reconnects (zero = not
// idempotent-tracked).
type envelope struct {
	ID     uint64
	Seq    uint64
	Method msg.Method
	Reply  bool
	Err    string
	Body   any

	// corrupt marks a synthetic envelope the reader delivers to a
	// pending call whose real reply frame failed its integrity check.
	// It never travels the wire.
	corrupt bool
}

// gobFrame is an envelope as the gob escape carries it.  The method
// travels by name, so the hello decodes alike under every protocol
// version and a peer speaking another one is refused, not dropped.
type gobFrame struct {
	ID     uint64
	Seq    uint64
	Method string
	Reply  bool
	Err    string
	Body   any
}

// Bodies of the transport's own frames; every call body is the msg
// request or reply itself.
type (
	emptyBody struct{}

	// helloBody opens every connection: Token zero asks for a new
	// session, nonzero resumes one within the grace window.  Version
	// announces the sender's ProtocolVersion.
	helloBody struct {
		Token   uint64
		Version uint32
	}
	helloReply struct {
		Token   uint64
		Version uint32
	}
)

func init() {
	for _, v := range []any{
		msg.RegisterReq{}, msg.RegisterReply{},
		msg.LockReq{}, msg.LockReply{}, msg.LockBatchReq{}, msg.LockBatchReply{},
		msg.UnlockReq{}, msg.FetchReq{}, msg.FetchReply{}, msg.FetchBatchReq{}, msg.FetchBatchReply{},
		msg.ShipReq{}, msg.ForceReq{}, msg.ForceReply{}, msg.AllocReq{}, msg.FreeReq{},
		msg.CommitShipReq{}, msg.TokenReq{}, msg.TokenReply{}, msg.RecoveryFetchReq{},
		msg.ReinstallReq{}, msg.RecoverQueryReq{}, []msg.DCTRow{}, msg.LogReq{}, msg.LogReply{},
		ident.ClientID(0), page.ID(0), []page.ID{}, [][]byte{}, msg.FlushedNote{},
		msg.CallbackReq{}, msg.CallbackReply{}, msg.DeescReq{}, msg.DeescReply{},
		msg.RecoveryInfoReply{}, msg.CallbackListReq{}, msg.CallbackListReply{}, msg.RecoverPageReq{},
		emptyBody{}, helloBody{}, helloReply{},
	} {
		gob.Register(v)
	}
}
