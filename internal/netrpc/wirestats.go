package netrpc

import (
	"sync/atomic"
	"time"

	"clientlog/internal/obs"
)

// WireStats accounts wire frames per {method, version} so the cost of
// the two codec paths — the v3 binary hot path and the tagGob escape
// hatch — is individually measurable: the v3gob share of frames is the
// gob surface that remains, as a number rather than a guess.
//
// Accounting is off until RegisterObs attaches a registry, so the
// zero-allocation guarantee of the v3 hot path is unchanged when
// nobody is looking.  When enabled, the hot-path bookkeeping is a
// fixed-index array access plus two time.Now() calls — no allocation,
// no map, no lock.
//
// Every connection points at a *WireStats: the process-wide Wire by
// default, or a per-instance one injected with Server.SetWireStats /
// Transport.SetWireStats so multi-partition fleets hosted in one
// process still get per-partition wire accounting.
type WireStats struct {
	enabled atomic.Bool
	// v3 binary frames indexed by type tag; the tag IS the method.
	v3 [tagCount]wireEntry
	// gob-escape frames (v3 header, gob body) indexed by method class.
	v3gob [wireMethodCount]wireEntry
}

// wireEntry is one {method, version} cell.
type wireEntry struct {
	frames obs.Counter
	bytes  obs.Counter
	encode obs.Histogram // nanos per frame encode
	decode obs.Histogram // nanos per frame decode
}

// Wire is the process-wide default accounting sink.
var Wire = &WireStats{}

// Version labels on the exported series.
const (
	wireVerV3    = "v3"
	wireVerV3Gob = "v3gob"
)

// Method classes for gob-encoded traffic (the v3 gob escape), where
// the method is a string rather than a tag.  The list
// is the complete method surface of the protocol; unknown strings land
// in wireMethodOther so cardinality stays bounded no matter what a
// peer sends.
const (
	wireMethodHello = iota
	wireMethodRegister
	wireMethodLock
	wireMethodLockBatch
	wireMethodUnlock
	wireMethodFetch
	wireMethodFetchBatch
	wireMethodShip
	wireMethodForce
	wireMethodAlloc
	wireMethodFree
	wireMethodCommitShip
	wireMethodToken
	wireMethodRecoveryFetch
	wireMethodReinstall
	wireMethodRecoverQuery
	wireMethodLogOp
	wireMethodRecoverEnd
	wireMethodDisconnect
	wireMethodCbObject
	wireMethodCbDeescalate
	wireMethodCbRecallToken
	wireMethodCbShipUpTo
	wireMethodCbFlushed
	wireMethodCbRecoveryInfo
	wireMethodCbFetchCached
	wireMethodCbCallbackList
	wireMethodCbRecoverPage
	wireMethodReply // a reply frame with no recoverable method name
	wireMethodOther
	wireMethodCount
)

var wireMethodNames = [wireMethodCount]string{
	wireMethodHello:          "hello",
	wireMethodRegister:       "register",
	wireMethodLock:           "lock",
	wireMethodLockBatch:      "lock-batch",
	wireMethodUnlock:         "unlock",
	wireMethodFetch:          "fetch",
	wireMethodFetchBatch:     "fetch-batch",
	wireMethodShip:           "ship",
	wireMethodForce:          "force",
	wireMethodAlloc:          "alloc",
	wireMethodFree:           "free",
	wireMethodCommitShip:     "commit-ship",
	wireMethodToken:          "token",
	wireMethodRecoveryFetch:  "recovery-fetch",
	wireMethodReinstall:      "reinstall",
	wireMethodRecoverQuery:   "recover-query",
	wireMethodLogOp:          "log-op",
	wireMethodRecoverEnd:     "recover-end",
	wireMethodDisconnect:     "disconnect",
	wireMethodCbObject:       "cb.object",
	wireMethodCbDeescalate:   "cb.deescalate",
	wireMethodCbRecallToken:  "cb.recall-token",
	wireMethodCbShipUpTo:     "cb.ship-up-to",
	wireMethodCbFlushed:      "cb.flushed",
	wireMethodCbRecoveryInfo: "cb.recovery-info",
	wireMethodCbFetchCached:  "cb.fetch-cached",
	wireMethodCbCallbackList: "cb.callback-list",
	wireMethodCbRecoverPage:  "cb.recover-page",
	wireMethodReply:          "reply",
	wireMethodOther:          "other",
}

func wireMethodIndex(method string, reply bool) int {
	switch method {
	case "hello":
		return wireMethodHello
	case "register":
		return wireMethodRegister
	case "lock":
		return wireMethodLock
	case "lock-batch":
		return wireMethodLockBatch
	case "unlock":
		return wireMethodUnlock
	case "fetch":
		return wireMethodFetch
	case "fetch-batch":
		return wireMethodFetchBatch
	case "ship":
		return wireMethodShip
	case "force":
		return wireMethodForce
	case "alloc":
		return wireMethodAlloc
	case "free":
		return wireMethodFree
	case "commit-ship":
		return wireMethodCommitShip
	case "token":
		return wireMethodToken
	case "recovery-fetch":
		return wireMethodRecoveryFetch
	case "reinstall":
		return wireMethodReinstall
	case "recover-query":
		return wireMethodRecoverQuery
	case "log-op":
		return wireMethodLogOp
	case "recover-end":
		return wireMethodRecoverEnd
	case "disconnect":
		return wireMethodDisconnect
	case "cb.object":
		return wireMethodCbObject
	case "cb.deescalate":
		return wireMethodCbDeescalate
	case "cb.recall-token":
		return wireMethodCbRecallToken
	case "cb.ship-up-to":
		return wireMethodCbShipUpTo
	case "cb.flushed":
		return wireMethodCbFlushed
	case "cb.recovery-info":
		return wireMethodCbRecoveryInfo
	case "cb.fetch-cached":
		return wireMethodCbFetchCached
	case "cb.callback-list":
		return wireMethodCbCallbackList
	case "cb.recover-page":
		return wireMethodCbRecoverPage
	case "":
		if reply {
			return wireMethodReply
		}
		return wireMethodOther
	default:
		return wireMethodOther
	}
}

// wireTagMethod labels a v3 binary frame with the method whose traffic
// it carries: reply tags fold into their request's method so the
// per-method series counts both directions of one RPC.
var wireTagMethod = [tagCount]string{
	tagGob:             "gob", // never rendered: tagGob frames go through v3gob
	tagLockReq:         "lock",
	tagLockReply:       "lock",
	tagLockBatchReq:    "lock-batch",
	tagLockBatchReply:  "lock-batch",
	tagFetchReq:        "fetch",
	tagFetchReply:      "fetch",
	tagFetchBatchReq:   "fetch-batch",
	tagFetchBatchReply: "fetch-batch",
	tagUnlockReq:       "unlock",
	tagShipReq:         "ship",
	tagForceReq:        "force",
	tagForceReply:      "force",
	tagCommitShipReq:   "commit-ship",
	tagEmpty:           "reply",
	tagCbObjectReq:     "cb.object",
	tagCbObjectReply:   "cb.object",
	tagCbDeescReq:      "cb.deescalate",
	tagCbDeescReply:    "cb.deescalate",
	tagCbFlushed:       "cb.flushed",
}

// Enabled reports whether accounting is live (a registry is attached).
func (ws *WireStats) Enabled() bool { return ws != nil && ws.enabled.Load() }

// now is time.Now gated on the enabled flag, so the disabled hot path
// pays one atomic load and nothing else.
func (ws *WireStats) now() time.Time {
	if !ws.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// record accounts one frame into the cell.  encode selects the encode
// or decode histogram; t0 is the timestamp ws.now() returned before the
// codec ran.
func (e *wireEntry) record(bytes int, t0 time.Time, encode bool) {
	e.frames.Inc()
	e.bytes.Add(uint64(bytes))
	if encode {
		e.encode.Observe(uint64(time.Since(t0)))
	} else {
		e.decode.Observe(uint64(time.Since(t0)))
	}
}

// recordV3 accounts one v3 binary frame (t0 is zero when accounting was
// off before the codec ran).
func (ws *WireStats) recordV3(tag byte, bytes int, t0 time.Time, encode bool) {
	if ws.Enabled() && !t0.IsZero() && int(tag) < len(ws.v3) {
		ws.v3[tag].record(bytes, t0, encode)
	}
}

// recordGob accounts one gob-escape frame.
func (ws *WireStats) recordGob(method string, reply bool, bytes int, t0 time.Time, encode bool) {
	if ws.Enabled() && !t0.IsZero() {
		ws.v3gob[wireMethodIndex(method, reply)].record(bytes, t0, encode)
	}
}

// RegisterObs binds every {method, version} cell into reg as the
// netrpc_frames_total / netrpc_bytes_total / netrpc_encode_nanos /
// netrpc_decode_nanos families and switches accounting on.  Cells are
// bound eagerly (not lazily on first use) so "partition tags sum to
// fleet totals" holds even for series that stay at zero.
func (ws *WireStats) RegisterObs(reg *obs.Registry, tags ...obs.Tag) {
	if ws == nil || reg == nil {
		return
	}
	bind := func(e *wireEntry, method, version string) {
		t := append(append([]obs.Tag{}, tags...),
			obs.T("method", method), obs.T("version", version))
		reg.BindCounter(&e.frames, "netrpc_frames_total", t...)
		reg.BindCounter(&e.bytes, "netrpc_bytes_total", t...)
		reg.BindHistogram(&e.encode, "netrpc_encode_nanos", t...)
		reg.BindHistogram(&e.decode, "netrpc_decode_nanos", t...)
	}
	for tag := tagGob + 1; tag < tagCount; tag++ {
		bind(&ws.v3[tag], wireTagMethod[tag], wireVerV3)
	}
	for m := 0; m < wireMethodCount; m++ {
		bind(&ws.v3gob[m], wireMethodNames[m], wireVerV3Gob)
	}
	ws.enabled.Store(true)
}

// RegisterWireObs binds the process-wide Wire stats into reg.
func RegisterWireObs(reg *obs.Registry, tags ...obs.Tag) {
	Wire.RegisterObs(reg, tags...)
}
