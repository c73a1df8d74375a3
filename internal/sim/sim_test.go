package sim

import (
	"bytes"
	"strings"
	"testing"

	"clientlog/internal/core"
	"clientlog/internal/page"
)

func testParams() Params { return Params{Txns: 15, MaxClients: 4, Seed: seed(7)} }

func TestGenDeterministic(t *testing.T) {
	ids := []page.ID{1, 2, 3, 4}
	w := DefaultWorkload(HotCold)
	w.Pages = len(ids)
	g1 := NewGen(w, 0, 2, ids, 42)
	g2 := NewGen(w, 0, 2, ids, 42)
	for i := 0; i < 100; i++ {
		o1, w1 := g1.Next()
		o2, w2 := g2.Next()
		if o1 != o2 || w1 != w2 {
			t.Fatalf("generator not deterministic at step %d", i)
		}
	}
}

func TestGenKindsStayInBounds(t *testing.T) {
	ids := make([]page.ID, 16)
	for i := range ids {
		ids[i] = page.ID(i + 1)
	}
	for _, kind := range []Kind{Uniform, HotCold, Private, HiCon, Feed} {
		w := DefaultWorkload(kind)
		w.Pages = len(ids)
		for client := 0; client < 3; client++ {
			g := NewGen(w, client, 3, ids, 1)
			for i := 0; i < 200; i++ {
				obj, _ := g.Next()
				found := false
				for _, id := range ids {
					if obj.Page == id {
						found = true
					}
				}
				if !found {
					t.Fatalf("%v: page %d out of range", kind, obj.Page)
				}
				if int(obj.Slot) >= w.ObjsPerPage {
					t.Fatalf("%v: slot %d out of range", kind, obj.Slot)
				}
			}
		}
	}
}

func TestGenPrivateIsDisjoint(t *testing.T) {
	ids := make([]page.ID, 16)
	for i := range ids {
		ids[i] = page.ID(i + 1)
	}
	w := DefaultWorkload(Private)
	w.Pages = len(ids)
	seen := make([]map[page.ID]bool, 4)
	for c := 0; c < 4; c++ {
		seen[c] = make(map[page.ID]bool)
		g := NewGen(w, c, 4, ids, 3)
		for i := 0; i < 300; i++ {
			obj, _ := g.Next()
			seen[c][obj.Page] = true
		}
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			for pid := range seen[a] {
				if seen[b][pid] {
					t.Fatalf("clients %d and %d share page %d under PRIVATE", a, b, pid)
				}
			}
		}
	}
}

func TestFeedRoles(t *testing.T) {
	ids := []page.ID{1, 2, 3, 4}
	w := DefaultWorkload(Feed)
	w.Pages = len(ids)
	producer := NewGen(w, 0, 3, ids, 5)
	consumer := NewGen(w, 1, 3, ids, 5)
	for i := 0; i < 100; i++ {
		if _, wr := producer.Next(); !wr {
			t.Fatal("producer generated a read")
		}
		if _, wr := consumer.Next(); wr {
			t.Fatal("consumer generated a write")
		}
	}
}

func TestRunAllSchemesAllWorkloads(t *testing.T) {
	schemes := Schemes(core.DefaultConfig())
	for name, cfg := range schemes {
		for _, kind := range []Kind{Uniform, HiCon} {
			w := DefaultWorkload(kind)
			res, err := Run(cfg, w, 2, 10, 1)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			if res.Commits != 20 {
				t.Fatalf("%s/%v: commits=%d want 20", name, kind, res.Commits)
			}
			if res.Throughput() <= 0 || res.MsgsPerCommit() < 0 {
				t.Fatalf("%s/%v: bogus metrics %+v", name, kind, res)
			}
		}
	}
}

// TestRunRegimes runs the skewed and long-reader regimes to an exact
// commit target: every client finishes its transactions and the
// engines' commit-latency histograms are collected.
func TestRunRegimes(t *testing.T) {
	for _, kind := range []Kind{Uniform, Zipf, LongRead, HiCon} {
		t.Run(kind.String(), func(t *testing.T) {
			w := DefaultWorkload(kind)
			w.Pages = 32
			const nClients, txns = 8, 5
			res, err := Run(core.DefaultConfig(), w, nClients, txns, seed(11))
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits != nClients*txns {
				t.Fatalf("commits %d, want %d", res.Commits, nClients*txns)
			}
			if res.LatP99 == 0 {
				t.Fatalf("no commit-latency histogram collected: %+v", res)
			}
		})
	}
}

// TestRunZipfSkew runs ZIPF at YCSB's heaviest skew, where a few hot
// pages absorb most of the traffic: contention on them must slow the
// run, never wedge it, so every client still reaches its commit target.
func TestRunZipfSkew(t *testing.T) {
	w := DefaultWorkload(Zipf)
	w.Pages = 64
	w.Theta = 0.99
	res, err := Run(core.DefaultConfig(), w, 8, 10, seed(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 80 {
		t.Fatalf("commits %d, want 80", res.Commits)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("zero throughput: %+v", res)
	}
}

func TestRunPaperCommitIsMessageFreeOnPrivate(t *testing.T) {
	// Sanity link back to the paper's claim: on a no-sharing workload
	// the paper scheme's steady-state message count per commit is far
	// below the ship-at-commit baselines.
	schemes := Schemes(core.DefaultConfig())
	w := DefaultWorkload(Private)
	paper, err := Run(schemes["paper"], w, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	ship, err := Run(schemes["ship-log"], w, 2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if paper.MsgsPerCommit() >= ship.MsgsPerCommit() {
		t.Fatalf("paper %.1f msgs/commit >= ship-log %.1f", paper.MsgsPerCommit(), ship.MsgsPerCommit())
	}
}

func TestRecoveryDrivers(t *testing.T) {
	cfg := core.DefaultConfig()
	if r, err := RunClientCrashRecovery(cfg, 8, 20, 0, 1); err != nil || r.RecoveryTime <= 0 {
		t.Fatalf("client recovery: %+v err=%v", r, err)
	}
	if r, err := RunServerCrashRecovery(cfg, 2, 4, 1); err != nil || r.RecoveryTime <= 0 {
		t.Fatalf("server recovery: %+v err=%v", r, err)
	}
	if r, err := RunComplexCrash(cfg, 3, 1, 2, 1); err != nil || r.RecoveryTime <= 0 {
		t.Fatalf("complex crash: %+v err=%v", r, err)
	}
	if r, err := RunCheckpointDuringLoad(cfg, 3, 10, 5, 1); err != nil || r.Commits == 0 {
		t.Fatalf("checkpoint load: %+v err=%v", r, err)
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	p := testParams()
	for _, e := range All() {
		tab, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", e.ID)
		}
		var buf bytes.Buffer
		tab.Fprint(&buf)
		if !strings.Contains(buf.String(), e.ID) {
			t.Fatalf("%s: bad rendering", e.ID)
		}
		var md bytes.Buffer
		tab.Markdown(&md)
		if !strings.HasPrefix(md.String(), "### "+e.ID) {
			t.Fatalf("%s: bad markdown", e.ID)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, name := range []string{"UNIFORM", "hotcold", "PRIVATE", "hicon", "FEED"} {
		if _, err := ParseKind(name); err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}, Notes: "n"}
	tab.Add("x", 1)
	tab.Add("longer", 2.5)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"T — demo", "a", "bb", "longer", "2.5", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
