package sim

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"clientlog/internal/core"
	"clientlog/internal/fleet"
	"clientlog/internal/msg"
	"clientlog/internal/netrpc"
	"clientlog/internal/obs"
	"clientlog/internal/obs/fleetobs"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// TestTortureFleet runs the torture schedule against a 3-partition
// fleet: cross-partition transactions, whole-tier crashes and
// partition-scoped crashes must all preserve exactly the committed
// state.
func TestTortureFleet(t *testing.T) {
	partCrashes := 0
	for base := int64(61); base <= 63; base++ {
		opt := DefaultTortureOptions(seed(base))
		opt.Rounds = 100
		opt.Pages = 6
		opt.Partitions = 3
		stats, err := Torture(core.DefaultConfig(), opt)
		if err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
		if stats.Commits == 0 || stats.Verifications == 0 {
			t.Fatalf("seed %d: degenerate run %+v", opt.Seed, stats)
		}
		partCrashes += stats.PartitionCrashes
	}
	if partCrashes == 0 {
		t.Fatal("no partition-scoped crashes across the sweep")
	}
}

// TestTortureFleetChurn layers membership storms and bounded logs on a
// fleet run.
func TestTortureFleetChurn(t *testing.T) {
	opt := DefaultTortureOptions(seed(64))
	opt.Rounds = 120
	opt.Clients = 4
	opt.Pages = 6
	opt.Churn = true
	opt.LogSlots = 64
	opt.Partitions = 3
	stats, err := Torture(core.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("seed %d: %v", opt.Seed, err)
	}
	if stats.Commits == 0 {
		t.Fatalf("seed %d: nothing committed: %+v", opt.Seed, stats)
	}
}

// TestChaosFleet drives the fault-injected schedule over a 3-partition
// fleet: every client<->partition stream gets its own deterministic
// fault sequence (drop/delay/dup/replay), and the run must stay
// exactly-once and lose nothing.
func TestChaosFleet(t *testing.T) {
	for base := int64(71); base <= 72; base++ {
		opt := DefaultChaosOptions(seed(base))
		opt.Rounds = 80
		opt.Pages = 6
		opt.Partitions = 3
		stats, err := Chaos(core.DefaultConfig(), opt)
		if err != nil {
			t.Fatalf("seed %d: %v", opt.Seed, err)
		}
		if stats.Commits == 0 || stats.Faults == 0 {
			t.Fatalf("seed %d: degenerate chaos run %+v", opt.Seed, stats)
		}
	}
}

// TestFleetTraceStitchesAcrossPartitions wires a 3-partition fleet the
// way clsrv members are wired — each partition with its own span store
// and registry, served over TCP — and runs one transaction that writes
// a page on every partition.  The fleet plane over in-process sources
// must stitch the client's published trace with the server spans of at
// least two partitions, and every partition-tagged counter family on
// its merged /metrics must sum to the family's partition="fleet"
// rollup.
func TestFleetTraceStitchesAcrossPartitions(t *testing.T) {
	const parts = 3
	var (
		sources []fleetobs.Source
		addrs   []string
		pids    []page.ID
	)
	for i := 0; i < parts; i++ {
		cfg := core.DefaultConfig()
		cfg.Partitions = parts
		cfg.PartitionIndex = i
		spans := span.NewStore(span.Options{SampleEvery: 1})
		cfg.Spans = spans
		store := storage.NewMemStore(cfg.PageSize)
		store.SetAllocStride(parts, i)
		pg, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pg.Insert(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if err := store.Write(pg); err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pg.ID())
		engine := core.NewServer(cfg, store, wal.NewMemStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := netrpc.Serve(engine, ln)
		defer srv.Close()
		reg := obs.NewRegistry()
		engine.RegisterObs(reg)
		ws := &netrpc.WireStats{}
		ws.RegisterObs(reg)
		srv.SetWireStats(ws)
		sources = append(sources, &fleetobs.LocalSource{
			SourceName: fmt.Sprintf("p%d", i), Registry: reg, Spans: spans,
		})
		addrs = append(addrs, srv.Addr().String())
	}

	var conns []msg.Server
	var trs []*netrpc.Transport
	for _, a := range addrs {
		tr, err := netrpc.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs = append(trs, tr)
		conns = append(conns, tr)
	}
	cfg := core.DefaultConfig()
	spans := span.NewStore(span.Options{SampleEvery: 1})
	cfg.Spans = spans
	c, err := core.NewClient(cfg, fleet.NewRouter(conns), wal.NewMemStore(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		tr.SetLocal(c)
	}
	reg := obs.NewRegistry()
	c.RegisterObs(reg)
	sources = append(sources, &fleetobs.LocalSource{
		SourceName: "client", Client: true, Registry: reg, Spans: spans,
	})

	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if err := txn.Overwrite(page.ObjectID{Page: pid}, bytes.Repeat([]byte{byte('A' + i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	id := txn.ID()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	plane := fleetobs.NewPlane(sources)
	tr, ok := plane.CollectTrace(id)
	if !ok {
		t.Fatalf("trace %s not collectable from any source", id)
	}
	r := span.RenderTrace(tr)
	if tr.Partial {
		t.Fatalf("stitched trace is partial although the client published it:\n%s", span.TreeString(tr))
	}
	if len(r.Origins) < 2 {
		t.Fatalf("stitched trace has server spans from %v, want >= 2 partitions:\n%s",
			r.Origins, span.TreeString(tr))
	}

	rec := httptest.NewRecorder()
	plane.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fleetTotal := map[string]uint64{}
	partSum := map[string]uint64{}
	granted := map[string]bool{} // partitions with lock grants
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			continue // not an unsigned count
		}
		fam, _ := obs.ParseKey(line[:i])
		switch p := obs.TagValue(line[:i], "partition"); p {
		case "fleet":
			fleetTotal[fam] = v
		case "":
			t.Fatalf("merged series without a partition tag: %s", line)
		default:
			partSum[fam] += v
			if fam == "lock_grants_total" && v > 0 {
				granted[p] = true
			}
		}
	}
	if len(fleetTotal) == 0 {
		t.Fatal("merged /metrics carries no partition=\"fleet\" rollup")
	}
	for fam, total := range fleetTotal {
		if partSum[fam] != total {
			t.Errorf("%s: partition-tagged series sum to %d, fleet rollup is %d", fam, partSum[fam], total)
		}
	}
	if len(granted) < 2 {
		t.Errorf("lock_grants_total counted on %v, want >= 2 partitions", granted)
	}
	t.Logf("%d spans stitched from %v; %d counter families roll up", len(tr.Spans), r.Origins, len(fleetTotal))
}
