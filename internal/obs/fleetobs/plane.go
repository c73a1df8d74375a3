package fleetobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"clientlog/internal/fleet"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
)

// Plane is the fleet-level aggregation endpoint: one handler that
// merges every source's metrics under partition tags, stitches span
// trees across partitions, merges the waits-for graph, and serves the
// rolling rates and anomaly pass of its Monitor.
type Plane struct {
	sources []Source
	mon     *Monitor
	alerts  AlertConfig
}

// NewPlane builds a plane (and its monitor) over sources.
func NewPlane(sources []Source, alerts AlertConfig) *Plane {
	return &Plane{
		sources: sources,
		mon:     NewMonitor(sources, 0),
		alerts:  alerts,
	}
}

// Sources returns the scrape targets.
func (p *Plane) Sources() []Source { return p.sources }

// Monitor returns the rolling-rates layer (drive it with Start or
// Tick).
func (p *Plane) Monitor() *Monitor { return p.mon }

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

// slowestHeads merges the slowest-trace listings of the client-side
// sources (they hold the published traces; partitions hold only
// partials, which Slowest excludes by design).
func (p *Plane) slowestHeads(n int) []TraceHead {
	heads := []TraceHead{}
	for _, src := range p.sources {
		if !src.IsClient() {
			continue
		}
		hs, err := src.Slowest(n)
		if err != nil {
			continue
		}
		heads = append(heads, hs...)
	}
	sort.Slice(heads, func(i, j int) bool {
		if heads[i].TotalNS != heads[j].TotalNS {
			return heads[i].TotalNS > heads[j].TotalNS
		}
		return heads[i].TxnID < heads[j].TxnID
	})
	if len(heads) > n {
		heads = heads[:n]
	}
	return heads
}

// merged builds the partition-tagged union of every source's snapshot
// plus the partition="fleet" rollup series.
func (p *Plane) merged() (obs.Snapshot, map[string]map[string]uint64, map[string]uint64) {
	merged := obs.Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]obs.HistView{},
	}
	perSource := make(map[string]map[string]uint64, len(p.sources))
	fleetTotals := map[string]uint64{}
	for _, src := range p.sources {
		snap, err := src.Snapshot()
		if err != nil {
			continue
		}
		name := src.Name()
		fams := map[string]uint64{}
		for k, v := range snap.Counters {
			fam, _ := obs.ParseKey(k)
			fams[fam] += v
			fleetTotals[fam] += v
		}
		perSource[name] = fams
		merged = merged.Merge(snap.WithTags(obs.T("partition", name)))
	}
	for fam, v := range fleetTotals {
		merged.Counters[obs.AddTags(fam, obs.T("partition", "fleet"))] = v
	}
	return merged, perSource, fleetTotals
}

// Handler serves the fleet admin surface:
//
//	/metrics        merged Prometheus text, every series tagged with its
//	                partition of origin plus partition="fleet" rollups
//	/metrics.json   per-source and fleet counter-family totals
//	/trace/<txnid>  the stitched cross-partition span tree
//	/trace/slowest  fleet-wide slowest published traces
//	/waitsfor       the merged waits-for graph (JSON or ?format=dot)
//	/rates          the rolling-window rates
//	/alerts         the anomaly pass over the current rates
//	/healthz        per-source scrape health
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		merged, _, _ := p.merged()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = merged.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		_, perSource, fleetTotals := p.merged()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"sources": perSource,
			"fleet":   fleetTotals,
		})
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/trace/")
		w.Header().Set("Content-Type", "application/json")
		if rest == "slowest" || rest == "" {
			n := 10
			if v := r.URL.Query().Get("n"); v != "" {
				if q, err := strconv.Atoi(v); err == nil && q > 0 {
					n = q
				}
			}
			heads := p.slowestHeads(n)
			_ = json.NewEncoder(w).Encode(map[string]any{"n": len(heads), "traces": heads})
			return
		}
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
	mux.HandleFunc("/rates", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rates, ok := p.mon.Rates()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "need at least two samples"})
			return
		}
		_ = json.NewEncoder(w).Encode(rates)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rates, ok := p.mon.Rates()
		if !ok {
			_ = json.NewEncoder(w).Encode(map[string]any{"n": 0, "alerts": []Alert{},
				"note": "need at least two monitor samples"})
			return
		}
		alerts := EvaluateAlerts(rates, p.alerts)
		_ = json.NewEncoder(w).Encode(map[string]any{"n": len(alerts), "alerts": alerts})
	})
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
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "fleet observability plane\n"+
			"  /metrics /metrics.json /trace/<txnid> /trace/slowest\n"+
			"  /waitsfor /rates /alerts /healthz\n")
	})
	return mux
}
