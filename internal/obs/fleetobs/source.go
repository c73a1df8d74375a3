// Package fleetobs is the fleet aggregation plane: it scrapes every
// partition's observability surface — metric registry, span store,
// waits-for graph — over the admin HTTP layer (or in process), merges
// the results under per-partition tags, stitches cross-partition span
// trees back into the single causal tree the client's span context
// implies.
//
// The shape mirrors the paper's architecture: clients own their
// commit path (client-based logging), so client-side stores hold the
// published commit traces while each partition holds only the staged
// server-side spans of the transactions that touched it.  One fleet
// endpoint reassembles the pieces.
package fleetobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
)

// Source is one scrape target of the plane: a partition member or a
// client-side trace publisher.  Implementations must be safe for
// concurrent use.
type Source interface {
	// Name labels the source's series on the merged view ("p0", "p1",
	// "client", ...).
	Name() string
	// IsClient reports whether this source publishes client-side
	// (complete) traces; the stitcher uses such traces as the base tree
	// and partition sources only contribute server spans.
	IsClient() bool
	// Snapshot captures the source's metric registry.
	Snapshot() (obs.Snapshot, error)
	// Trace fetches the source's view of one transaction (published or
	// partial); ok=false when the source holds nothing for it.
	Trace(txn ident.TxnID) (tr *span.Trace, ok bool, err error)
	// WaitsFor captures the source's waits-for graph.
	WaitsFor() (lock.WaitsForSnapshot, error)
}

// LocalSource adapts in-process components (a registry, a span store,
// a waits-for snapshot function) into a Source.  Any field may be nil.
type LocalSource struct {
	SourceName string
	Client     bool
	Registry   *obs.Registry
	Spans      *span.Store
	WF         func() lock.WaitsForSnapshot
}

func (s *LocalSource) Name() string   { return s.SourceName }
func (s *LocalSource) IsClient() bool { return s.Client }

func (s *LocalSource) Snapshot() (obs.Snapshot, error) {
	if s.Registry == nil {
		return obs.Snapshot{}, nil
	}
	return s.Registry.Snapshot(), nil
}

func (s *LocalSource) Trace(txn ident.TxnID) (*span.Trace, bool, error) {
	if s.Spans == nil {
		return nil, false, nil
	}
	tr, ok := s.Spans.Get(txn)
	return tr, ok, nil
}

func (s *LocalSource) WaitsFor() (lock.WaitsForSnapshot, error) {
	if s.WF == nil {
		return lock.WaitsForSnapshot{}, nil
	}
	return s.WF(), nil
}

// HTTPSource scrapes a member's admin endpoint (the /fleet/* surface
// MemberHandler mounts) over HTTP — the networked counterpart of
// LocalSource for real TCP fleets.
type HTTPSource struct {
	SourceName string
	Client     bool
	// Base is the member's admin base URL, e.g. "http://127.0.0.1:7070".
	Base string
	// HTTP is the client used for scrapes (http.DefaultClient if nil).
	HTTP *http.Client
}

func (s *HTTPSource) Name() string   { return s.SourceName }
func (s *HTTPSource) IsClient() bool { return s.Client }

func (s *HTTPSource) get(path string, out any) error {
	cl := s.HTTP
	if cl == nil {
		cl = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := cl.Get(s.Base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return errNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleetobs: %s%s: %s", s.Base, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

var errNotFound = fmt.Errorf("fleetobs: not found")

func (s *HTTPSource) Snapshot() (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := s.get("/fleet/snapshot", &snap)
	return snap, err
}

func (s *HTTPSource) Trace(txn ident.TxnID) (*span.Trace, bool, error) {
	var tr span.Trace
	err := s.get("/fleet/trace/"+strconv.FormatUint(uint64(txn), 10), &tr)
	if err == errNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return &tr, true, nil
}

func (s *HTTPSource) WaitsFor() (lock.WaitsForSnapshot, error) {
	var snap lock.WaitsForSnapshot
	err := s.get("/fleet/waitsfor", &snap)
	return snap, err
}
