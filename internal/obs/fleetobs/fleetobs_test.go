package fleetobs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
)

// buildTxn records one sampled transaction on a client store plus
// server spans staged on two partition stores, the way a roaming
// commit does over the wire, each stamped with its partition's name as
// a fleet server stamps it, and returns the txn id.
func buildTxn(t *testing.T, client, p0, p1 *span.Store) ident.TxnID {
	t.Helper()
	txn := ident.TxnID(77)
	tt := client.Begin(txn)
	if !tt.Sampled() {
		t.Fatal("client trace not sampled with SampleEvery=1")
	}
	lockID := tt.Start(span.CatLockWait, "lock pages")
	ctx := tt.Context(lockID)
	s0 := p0.ServerStart(ctx, span.CatLockWait, "queue-wait").WithOrigin("p0")
	time.Sleep(time.Millisecond)
	s0.End()
	s1 := p1.ServerStart(ctx, span.CatLockWait, "queue-wait").WithOrigin("p1")
	time.Sleep(time.Millisecond)
	s1.End()
	tt.End(lockID)
	tt.Finish(true)
	return txn
}

func testStores(t *testing.T) (client, p0, p1 *span.Store) {
	t.Helper()
	opt := span.Options{SampleEvery: 1}
	return span.NewStore(opt), span.NewStore(opt), span.NewStore(opt)
}

func TestStitchCrossPartition(t *testing.T) {
	client, p0, p1 := testStores(t)
	txn := buildTxn(t, client, p0, p1)

	plane := NewPlane([]Source{
		&LocalSource{SourceName: "client", Client: true, Spans: client},
		&LocalSource{SourceName: "p0", Spans: p0},
		&LocalSource{SourceName: "p1", Spans: p1},
	})

	tr, ok := plane.CollectTrace(txn)
	if !ok {
		t.Fatal("CollectTrace found nothing")
	}
	if tr.Partial {
		t.Fatal("stitched trace with a client base must not be partial")
	}
	r := span.RenderTrace(tr)
	if len(r.Origins) != 2 || r.Origins[0] != "p0" || r.Origins[1] != "p1" {
		t.Fatalf("origins = %v, want [p0 p1]", r.Origins)
	}
	// The two server spans must be fleet-unique and keep their parent
	// links into the client tree.
	ids := map[uint64]bool{}
	var srv int
	for _, sp := range tr.Spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %d after stitch", sp.ID)
		}
		ids[sp.ID] = true
		if sp.Origin != "" {
			srv++
			if sp.Parent == 0 || sp.Parent >= srvBase {
				t.Fatalf("server span parent %d does not point into the client tree", sp.Parent)
			}
			if !ids[sp.Parent] {
				// Parents precede children only per part; check membership
				// at the end instead.
				defer func(p uint64) {
					if !ids[p] {
						t.Errorf("server span parent %d missing from stitched trace", p)
					}
				}(sp.Parent)
			}
		}
	}
	if srv != 2 {
		t.Fatalf("stitched trace has %d server spans, want 2", srv)
	}
	// The tree renderer must attribute the provenance.
	tree := span.TreeString(tr)
	if !strings.Contains(tree, "@p0") || !strings.Contains(tree, "@p1") {
		t.Fatalf("TreeString lacks @partition provenance:\n%s", tree)
	}
}

func TestStitchWithoutClientBase(t *testing.T) {
	client, p0, p1 := testStores(t)
	txn := buildTxn(t, client, p0, p1)

	// Plane that cannot reach the client store: only partial partition
	// views remain.
	plane := NewPlane([]Source{
		&LocalSource{SourceName: "p0", Spans: p0},
		&LocalSource{SourceName: "p1", Spans: p1},
	})
	tr, ok := plane.CollectTrace(txn)
	if !ok {
		t.Fatal("CollectTrace found nothing")
	}
	if !tr.Partial {
		t.Fatal("stitch without a client base must be partial")
	}
	r := span.RenderTrace(tr)
	if len(r.Origins) != 2 {
		t.Fatalf("origins = %v, want two partitions", r.Origins)
	}
	if r.Root == nil || r.Root.ID != 1 {
		t.Fatal("partial stitch must synthesize a root")
	}
}

// TestMemberHTTPRoundTrip drives HTTPSource against MemberHandler the
// way the plane scrapes a real partition's admin server.
func TestMemberHTTPRoundTrip(t *testing.T) {
	client, p0, p1 := testStores(t)
	txn := buildTxn(t, client, p0, p1)

	reg := obs.NewRegistry()
	var c obs.Counter
	reg.BindCounter(&c, "lock_grants_total")
	c.Add(42)
	wf := func() lock.WaitsForSnapshot {
		return lock.WaitsForSnapshot{Edges: []lock.WaitEdge{
			{Waiter: 1, Blocker: 2, Partition: 1},
		}}
	}
	srv := httptest.NewServer(MemberHandler(MemberOptions{Registry: reg, Spans: p0, WaitsFor: wf}))
	defer srv.Close()

	src := &HTTPSource{SourceName: "p0", Base: srv.URL}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Total("lock_grants_total") != 42 {
		t.Fatalf("scraped lock_grants_total = %d, want 42", snap.Total("lock_grants_total"))
	}
	tr, ok, err := src.Trace(txn)
	if err != nil || !ok {
		t.Fatalf("Trace: ok=%v err=%v", ok, err)
	}
	if !tr.Partial {
		t.Fatal("partition view of a client-published trace must be partial")
	}
	if _, ok, err := src.Trace(ident.TxnID(424242)); err != nil || ok {
		t.Fatalf("unknown txn: ok=%v err=%v (want false, nil)", ok, err)
	}
	wfSnap, err := src.WaitsFor()
	if err != nil {
		t.Fatal(err)
	}
	if len(wfSnap.Edges) != 1 || wfSnap.Edges[0].Partition != 1 {
		t.Fatalf("waits-for round trip lost the edge: %+v", wfSnap)
	}
}

// TestPlaneHandler exercises the fleet endpoints end to end over
// local sources, including the partition-tag sum invariant the CI job
// asserts.
func TestPlaneHandler(t *testing.T) {
	client, p0, p1 := testStores(t)
	txn := buildTxn(t, client, p0, p1)

	reg0, reg1 := obs.NewRegistry(), obs.NewRegistry()
	var g0, g1 obs.Counter
	reg0.BindCounter(&g0, "lock_grants_total")
	reg1.BindCounter(&g1, "lock_grants_total")
	g0.Add(30)
	g1.Add(12)
	wf0 := func() lock.WaitsForSnapshot {
		return lock.WaitsForSnapshot{Edges: []lock.WaitEdge{{Waiter: 1, Blocker: 2}}}
	}
	wf1 := func() lock.WaitsForSnapshot {
		return lock.WaitsForSnapshot{Edges: []lock.WaitEdge{{Waiter: 2, Blocker: 1, Partition: 1}}}
	}

	plane := NewPlane([]Source{
		&LocalSource{SourceName: "client", Client: true, Spans: client},
		&LocalSource{SourceName: "p0", Registry: reg0, Spans: p0, WF: wf0},
		&LocalSource{SourceName: "p1", Registry: reg1, Spans: p1, WF: wf1},
	})
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// /metrics: partition-tagged series plus the fleet rollup.
	_, body := get("/metrics")
	text := string(body)
	for _, want := range []string{
		`lock_grants_total{partition="p0"} 30`,
		`lock_grants_total{partition="p1"} 12`,
		`lock_grants_total{partition="fleet"} 42`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	// /trace/<txnid>: the stitched tree with both partitions.
	resp, body := get("/trace/" + txnIDString(txn))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/<id> status %d: %s", resp.StatusCode, body)
	}
	var tj span.TraceJSON
	if err := json.Unmarshal(body, &tj); err != nil {
		t.Fatal(err)
	}
	if len(tj.Origins) != 2 {
		t.Fatalf("stitched trace origins = %v, want 2 partitions", tj.Origins)
	}
	if tj.Shares == nil || tj.Root == nil {
		t.Fatal("stitched trace lacks shares or root")
	}

	// /waitsfor merges both partitions' graphs with @pN provenance.
	_, body = get("/waitsfor")
	var wfj struct {
		Edges []struct {
			Waiter    string `json:"waiter"`
			Blocker   string `json:"blocker"`
			Partition int    `json:"partition"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(body, &wfj); err != nil {
		t.Fatal(err)
	}
	if len(wfj.Edges) != 2 {
		t.Fatalf("/waitsfor edges = %+v, want both partitions' edges", wfj.Edges)
	}
	parts := map[int]bool{}
	for _, e := range wfj.Edges {
		parts[e.Partition] = true
	}
	if !parts[0] || !parts[1] {
		t.Fatalf("/waitsfor edges lost partition provenance: %+v", wfj.Edges)
	}

	// /healthz reports every source.
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", resp.StatusCode, body)
	}
	var hj struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(body, &hj); err != nil || !hj.OK {
		t.Fatalf("/healthz not ok: %s", body)
	}
}

// txnIDString renders a txn id the way the admin URLs expect.
func txnIDString(txn ident.TxnID) string {
	return strconv.FormatUint(uint64(txn), 10)
}
