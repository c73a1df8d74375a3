package main

import (
	"math"
	"regexp"
	"testing"
)

var smokeOptions = options{smoke: true}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that the definition file and the program agree and that the
// workloads really do separate the layers.
func TestSmoke(t *testing.T) {
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	layer := map[string]map[string]float64{}
	for _, wd := range def.Workloads {
		if workloadByName(wd.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", wd.Name)
		}
	}
	// Every workload runs, the undeclared one too.
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, 1, 0.3, traced, smokeOptions)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.AckedLost != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d acked_lost=%d: %s",
					w.name, traced, r.Correct, r.Attempted, r.Failed, r.AckedLost, r.FirstFail)
			}
			var want []string
			if traced {
				for _, m := range def.PerLayer {
					want = append(want, m.Name)
				}
				layer[w.name] = r.Metrics
			} else {
				for _, m := range def.EndToEnd {
					want = append(want, m.Name)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics measured, BENCHMARK.json declares %d", w.name, traced, len(r.Metrics), len(want))
			}
			for _, n := range want {
				v, ok := r.Metrics[n]
				switch {
				case !nameOK.MatchString(n):
					t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", n)
				case !ok:
					t.Errorf("%s traced=%v: metric %s declared in BENCHMARK.json was not measured", w.name, traced, n)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, n, v)
				case !traced && v <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, n, v)
				}
			}
		}
	}
	if t.Failed() {
		return
	}
	// The workloads separate the layers.
	if v := layer["private-local"]["msg.msgs_per_commit"]; v >= 0.5 {
		t.Errorf("private-local sends %.3f messages per commit, want < 0.5", v)
	}
	if v := layer["shared-tcp"]["msg.msgs_per_commit"]; v <= 5 {
		t.Errorf("shared-tcp sends %.3f messages per commit, want > 5", v)
	}
	for _, w := range workloads {
		v := layer[w.name]["netrpc.frames_per_commit"]
		if !w.tcp && v != 0 {
			t.Errorf("%s runs on loopback yet netrpc sent %.3f frames per commit", w.name, v)
		}
		if w.tcp && v <= 2 {
			t.Errorf("%s runs over TCP yet netrpc sent only %.3f frames per commit", w.name, v)
		}
	}
	if v := layer["hot-readmostly"]["lock.callbacks_per_commit"]; v <= 0 {
		t.Error("hot-readmostly saw no callbacks")
	}
	if hot, tcp := layer["hot-readmostly"]["buffer.client_miss_per_commit"], layer["shared-tcp"]["buffer.client_miss_per_commit"]; hot >= tcp/2 {
		t.Errorf("hot-readmostly fetches %.3f pages per commit, shared-tcp %.3f: want well below", hot, tcp)
	}
	if v := layer["crash-recover"]["core.recover_server_ms_p50"]; v <= 0 {
		t.Error("crash-recover timed no server restart")
	}
	for name, m := range layer {
		if v := m["bench.spans_dropped"]; v != 0 {
			t.Errorf("%s: %v spans dropped", name, v)
		}
	}
}

// TestDefinitionMatchesCode compares BENCHMARK.json with the tables the
// program prints from.
func TestDefinitionMatchesCode(t *testing.T) {
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", def.RunSeconds, defaultSeconds)
	}
	var declared []*workload
	for _, w := range workloads {
		if !w.undeclared {
			declared = append(declared, w)
		}
	}
	if len(def.Workloads) != len(declared) {
		t.Fatalf("%d workloads declared, %d in the program", len(def.Workloads), len(declared))
	}
	for i, w := range declared {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, def.Workloads[i].Name, def.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.name, len(w.why))
		}
	}
	if len(def.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d in the program", len(def.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		m := def.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(def.PerLayer) != len(perLayerDefs) || len(def.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the program (at most 128)", len(def.PerLayer), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for i, d := range perLayerDefs {
		m := def.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmallPoolRestartLosesUpdates pins a defect of the seed commit that
// decided crash-recover's ClientPool.  With a client cache smaller than
// the restarting client's dirty page table, RestartClient loses
// acknowledged updates on every run: recoveryFetch evicts (and ships) pages
// the redo pass is not yet done with, and the redo loop silently skips the
// remaining log records of a page it no longer finds in the pool
// (internal/core/client_recovery.go).  When this test fails the defect is
// fixed: set crash-recover's clientPool back to the 32 the issue asked for,
// re-measure the baseline, and delete this test.
func TestSmallPoolRestartLosesUpdates(t *testing.T) {
	w := *workloadByName("crash-recover")
	w.clientPool = 32
	in, err := build(&w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	chk := &checkResult{}
	if err := in.cycle(newMeasured(newReference(smokeOptions.refSlice())), chk, 1); err != nil {
		t.Fatal(err)
	}
	if chk.lost == 0 {
		t.Fatal("no acknowledged update was lost with ClientPool 32: the restart defect is gone, see this test's comment")
	}
	t.Logf("ClientPool 32: %d of %d objects lost an acknowledged update; first: %s", chk.lost, chk.checked, chk.first)
}
