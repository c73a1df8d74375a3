package fleetobs

import (
	"encoding/json"
	"net/http"
	"strings"

	"clientlog/internal/fleet"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
)

// Plane is the fleet-level aggregation endpoint: one handler that
// merges every source's metrics under partition tags, stitches span
// trees across partitions and merges the waits-for graph.
type Plane struct {
	sources []Source
}

// NewPlane builds a plane over sources.
func NewPlane(sources []Source) *Plane {
	return &Plane{sources: sources}
}

// MergedWaitsFor scrapes and concatenates every source's waits-for
// graph — the networked counterpart of core.Cluster.WaitsFor.
// Unreachable sources contribute nothing (a dead partition has no
// waiters worth blocking the post-mortem on).
func (p *Plane) MergedWaitsFor() lock.WaitsForSnapshot {
	snaps := make([]lock.WaitsForSnapshot, 0, len(p.sources))
	for _, src := range p.sources {
		snap, err := src.WaitsFor()
		if err != nil {
			continue
		}
		snaps = append(snaps, snap)
	}
	return fleet.MergeSnapshots(snaps)
}

// CollectTrace gathers every source's piece of one transaction's trace
// and stitches them: the client-published tree is the base, partition
// sources contribute their staged server spans tagged with @origin.
func (p *Plane) CollectTrace(txn ident.TxnID) (*span.Trace, bool) {
	var base *span.Trace
	var parts []PartTrace
	for _, src := range p.sources {
		tr, ok, err := src.Trace(txn)
		if err != nil || !ok || tr == nil || len(tr.Spans) == 0 {
			continue
		}
		if src.IsClient() && !tr.Partial && base == nil {
			base = tr
			continue
		}
		parts = append(parts, PartTrace{Origin: src.Name(), Trace: tr})
	}
	st := Stitch(base, parts)
	return st, st != nil
}

// merged builds the partition-tagged union of every source's snapshot
// plus the partition="fleet" rollup series.
func (p *Plane) merged() obs.Snapshot {
	merged := obs.Snapshot{
		Counters: map[string]uint64{},
		Hists:    map[string]obs.HistView{},
	}
	fleetTotals := map[string]uint64{}
	for _, src := range p.sources {
		snap, err := src.Snapshot()
		if err != nil {
			continue
		}
		for k, v := range snap.Counters {
			fam, _ := obs.ParseKey(k)
			fleetTotals[fam] += v
		}
		merged = merged.Merge(snap.WithTags(obs.T("partition", src.Name())))
	}
	for fam, v := range fleetTotals {
		merged.Counters[obs.AddTags(fam, obs.T("partition", "fleet"))] = v
	}
	return merged
}

// Handler serves the fleet admin surface:
//
//	/metrics        merged Prometheus text, every series tagged with its
//	                partition of origin plus partition="fleet" rollups
//	/trace/<txnid>  the stitched cross-partition span tree
//	/waitsfor       the merged waits-for graph (JSON or ?format=dot)
//	/healthz        per-source scrape health
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		merged := p.merged()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = merged.WritePrometheus(w)
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/trace/")
		w.Header().Set("Content-Type", "application/json")
		txn, err := span.ParseTxnID(rest)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		tr, ok := p.CollectTrace(txn)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"error": "trace not found on any source (not sampled, evicted, or unknown txn)",
			})
			return
		}
		_ = json.NewEncoder(w).Encode(span.RenderTrace(tr))
	})
	mux.Handle("/waitsfor", span.WaitsForHandler(p.MergedWaitsFor))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		type h struct {
			Source string `json:"source"`
			OK     bool   `json:"ok"`
			Err    string `json:"err,omitempty"`
		}
		out := []h{}
		healthy := true
		for _, src := range p.sources {
			_, err := src.Snapshot()
			e := h{Source: src.Name(), OK: err == nil}
			if err != nil {
				healthy = false
				e.Err = err.Error()
			}
			out = append(out, e)
		}
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"ok": healthy, "sources": out})
	})
	return mux
}
