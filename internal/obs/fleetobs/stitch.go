package fleetobs

import (
	"sort"

	"clientlog/internal/obs/span"
)

// srvBase is the span-ID floor for server-side spans (span.Store
// starts its server IDs at 1<<32, out of the per-transaction client ID
// range).  Spans below it in a member's trace are either client spans
// or the synthetic root of a partial trace; the stitcher takes only
// the server spans from members and renumbers them fleet-uniquely,
// because every member's store starts its counter at the same base.
const srvBase = uint64(1) << 32

// PartTrace is one member's contribution to a stitched trace.
type PartTrace struct {
	Origin string // the member's name ("p0", "p1", ...)
	Trace  *span.Trace
}

// Stitch reassembles one transaction's causal tree from its pieces:
// the client-published base trace (nil when the client's store is
// unreachable or never sampled it) plus each partition's staged server
// spans.  Server spans keep their parent links into the client tree —
// the wire context already carries the client span ID — while links to
// other server spans from the same member are renumbered consistently.
// The @pN provenance is the Span.Origin each server stamped at record
// time (span.ServerSpan.WithOrigin).
func Stitch(base *span.Trace, parts []PartTrace) *span.Trace {
	var out span.Trace
	if base != nil {
		out.Txn = base.Txn
		out.Commit = base.Commit
		out.Partial = base.Partial
		out.Spans = append([]span.Span{}, base.Spans...)
	}
	sorted := append([]PartTrace{}, parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Origin < sorted[j].Origin })
	next := srvBase
	for _, pt := range sorted {
		if pt.Trace == nil {
			continue
		}
		if out.Txn == 0 {
			out.Txn = pt.Trace.Txn
		}
		idmap := make(map[uint64]uint64)
		for _, sp := range pt.Trace.Spans {
			if sp.ID < srvBase {
				continue
			}
			next++
			idmap[sp.ID] = next
		}
		for _, sp := range pt.Trace.Spans {
			if sp.ID < srvBase {
				continue
			}
			ns := sp
			ns.ID = idmap[sp.ID]
			if sp.Parent >= srvBase {
				if m, ok := idmap[sp.Parent]; ok {
					ns.Parent = m
				}
			}
			out.Spans = append(out.Spans, ns)
		}
	}
	if len(out.Spans) == 0 {
		return nil
	}
	if base == nil {
		// No client base: synthesize a root enveloping the adopted
		// spans, like span.Store.Get does for purely-staged traces.
		root := span.Span{ID: 1, Cat: span.CatTxn, Start: out.Spans[0].Start, End: out.Spans[0].End}
		for _, sp := range out.Spans {
			if sp.Start.Before(root.Start) {
				root.Start = sp.Start
			}
			if sp.End.After(root.End) {
				root.End = sp.End
			}
		}
		out.Partial = true
		out.Spans = append([]span.Span{root}, out.Spans...)
	}
	return &out
}
