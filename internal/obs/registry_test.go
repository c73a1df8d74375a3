package obs

import (
	"strings"
	"testing"
)

func TestRegistryCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", T("scope", "server"))
	b := r.Counter("reqs_total", T("scope", "server"))
	if a != b {
		t.Fatal("same (name, tags) should return the same counter")
	}
	if c := r.Counter("reqs_total", T("scope", "client:c1")); c == a {
		t.Fatal("different tags should return a different counter")
	}
}

func TestRegistryTagOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", T("a", "1"), T("b", "2"))
	b := r.Counter("x_total", T("b", "2"), T("a", "1"))
	if a != b {
		t.Fatal("tag order must not distinguish series")
	}
}

// TestBindCounterSumsAcrossRestarts is the restart-continuity contract:
// a fresh engine binding a zero counter to an existing series must not
// reset the series.
func TestBindCounterSumsAcrossRestarts(t *testing.T) {
	r := NewRegistry()
	var gen1 Counter
	r.BindCounter(&gen1, "commits_total")
	gen1.Add(10)

	var gen2 Counter // the restarted engine's fresh counter
	r.BindCounter(&gen2, "commits_total")
	gen2.Add(5)

	snap := r.Snapshot()
	if got := snap.Counters["commits_total"]; got != 15 {
		t.Fatalf("series = %d, want 15 (sum across generations)", got)
	}

	// Rebinding the same pointer must not double-count.
	r.BindCounter(&gen2, "commits_total")
	if got := r.Snapshot().Counters["commits_total"]; got != 15 {
		t.Fatalf("rebind double-counted: %d, want 15", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	h := r.Histogram("lat_nanos")

	c.Add(3)
	h.Observe(100)
	before := r.Snapshot()

	c.Add(4)
	h.Observe(200)
	h.Observe(300)
	delta := r.Snapshot().Delta(before)

	if got := delta.Counters["ops_total"]; got != 4 {
		t.Fatalf("counter delta = %d, want 4", got)
	}
	if hv := delta.Hists["lat_nanos"]; hv.Count != 2 || hv.Sum != 500 {
		t.Fatalf("hist delta = count %d sum %d, want 2/500", hv.Count, hv.Sum)
	}
}

func TestSnapshotTotalAndHist(t *testing.T) {
	r := NewRegistry()
	r.Counter("msg_messages_total", T("msg", "lock")).Add(3)
	r.Counter("msg_messages_total", T("msg", "fetch")).Add(2)
	r.Counter("other_total").Add(99)
	snap := r.Snapshot()
	if got := snap.Total("msg_messages_total"); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	r.Histogram("lat", T("scope", "client:c1")).Observe(8)
	r.Histogram("lat", T("scope", "client:c2")).Observe(16)
	if hv := r.Snapshot().Hist("lat"); hv.Count != 2 || hv.Sum != 24 {
		t.Fatalf("Hist = count %d sum %d, want 2/24", hv.Count, hv.Sum)
	}
}

// TestWritePrometheusGolden pins the exposition format.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", T("scope", "server")).Add(7)
	r.Counter("a_total").Add(3)
	h := r.Histogram("lat_nanos")
	h.Observe(0)
	h.Observe(3) // bucket 2, upper bound 3
	h.Observe(5) // bucket 3, upper bound 7

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE a_total counter
a_total 3
# TYPE b_total counter
b_total{scope="server"} 7
# TYPE lat_nanos histogram
lat_nanos_bucket{le="0"} 1
lat_nanos_bucket{le="3"} 2
lat_nanos_bucket{le="7"} 3
lat_nanos_bucket{le="+Inf"} 3
lat_nanos_sum 8
lat_nanos_count 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSanitizeName(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird.name-1", T("k.x", "v")).Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `weird_name_1{k_x="v"} 1`) {
		t.Fatalf("names not sanitized: %q", sb.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.Counter("hot_total", T("i", string(rune('a'+i%8)))).Inc()
			r.Snapshot()
		}
	}()
	for i := 0; i < 200; i++ {
		r.Counter("hot_total", T("i", string(rune('a'+i%8)))).Inc()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if got := r.Snapshot().Total("hot_total"); got != 400 {
		t.Fatalf("Total = %d, want 400", got)
	}
}
