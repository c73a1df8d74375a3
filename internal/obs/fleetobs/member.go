package fleetobs

import (
	"encoding/json"
	"net/http"
	"strings"

	"clientlog/internal/lock"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
)

// MemberOptions configures a member's machine-readable export surface.
// Any field may be nil; the corresponding endpoint serves empty data.
type MemberOptions struct {
	Registry *obs.Registry
	Spans    *span.Store
	WaitsFor func() lock.WaitsForSnapshot
}

// MemberHandler serves a partition member's raw observability state
// under the /fleet/ prefix for the aggregation plane to scrape:
//
//	/fleet/snapshot      the metric registry as an obs.Snapshot
//	/fleet/trace/<txnid> this member's view of one trace (partial for
//	                     transactions whose client publishes elsewhere)
//	/fleet/waitsfor      the local waits-for graph (raw lock types)
//
// Everything is plain JSON of already-exported types, so HTTPSource on
// the plane side decodes without translation.  Mount it on the member's
// admin server next to the human-facing /metrics and /trace endpoints.
func MemberHandler(opt MemberOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snap obs.Snapshot
		if opt.Registry != nil {
			snap = opt.Registry.Snapshot()
		}
		_ = json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/fleet/trace/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rest := strings.TrimPrefix(r.URL.Path, "/fleet/trace/")
		txn, err := span.ParseTxnID(rest)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		var (
			tr *span.Trace
			ok bool
		)
		if opt.Spans != nil {
			tr, ok = opt.Spans.Get(txn)
		}
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "trace not found"})
			return
		}
		_ = json.NewEncoder(w).Encode(tr)
	})
	mux.HandleFunc("/fleet/waitsfor", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snap lock.WaitsForSnapshot
		if opt.WaitsFor != nil {
			snap = opt.WaitsFor()
		}
		_ = json.NewEncoder(w).Encode(snap)
	})
	return mux
}
