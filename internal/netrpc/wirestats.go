package netrpc

import (
	"sync/atomic"
	"time"

	"clientlog/internal/msg"
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
	// gob-escape frames (v3 header, gob body) indexed by gobCell.
	v3gob [gobCells]wireEntry
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

// Cells of the gob-escape accounting: one per msg.Method (the method
// travels by name, so it is known), plus one for replies, which name no
// method, and one for names no method answers to, so cardinality stays
// bounded no matter what a peer sends.
const (
	gobReply = int(msg.NumMethods) + iota
	gobOther
	gobCells
)

func gobCell(m msg.Method, reply bool) int {
	switch {
	case m != msg.MNone && m < msg.NumMethods:
		return int(m)
	case reply:
		return gobReply
	default:
		return gobOther
	}
}

func gobCellName(i int) string {
	switch i {
	case gobReply:
		return "reply"
	case gobOther:
		return "other"
	}
	return msg.Method(i).String()
}

// tagLabel labels a v3 binary frame with the method whose traffic it
// carries; tagEmpty, a reply of any method, is "reply".
func tagLabel(tag int) string {
	if m := tagMethod[tag]; m != msg.MNone {
		return m.String()
	}
	return "reply"
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
func (ws *WireStats) recordGob(m msg.Method, reply bool, bytes int, t0 time.Time, encode bool) {
	if ws.Enabled() && !t0.IsZero() {
		ws.v3gob[gobCell(m, reply)].record(bytes, t0, encode)
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
		bind(&ws.v3[tag], tagLabel(tag), wireVerV3)
	}
	for i := int(msg.MNone) + 1; i < gobCells; i++ {
		bind(&ws.v3gob[i], gobCellName(i), wireVerV3Gob)
	}
	ws.enabled.Store(true)
}

// RegisterWireObs binds the process-wide Wire stats into reg.
func RegisterWireObs(reg *obs.Registry, tags ...obs.Tag) {
	Wire.RegisterObs(reg, tags...)
}
