// Command bench regenerates every experiment table in EXPERIMENTS.md.
//
//	bench -list                 list the experiments
//	bench                       run the full suite (text tables)
//	bench -run E1,E3            run a subset
//	bench -markdown             emit EXPERIMENTS.md-ready markdown
//	bench -quick                reduced sizes (CI-friendly)
//	bench -json                 also write BENCH_<ID>.json per experiment
//
// Every experiment runs on the in-process loopback transport.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clientlog/internal/sim"
)

// writeTableJSON writes the experiment's raw records to path.
func writeTableJSON(path string, t *sim.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	quick := flag.Bool("quick", false, "reduced experiment sizes")
	jsonOut := flag.Bool("json", false, "write BENCH_<ID>.json with machine-readable results")
	outDir := flag.String("out", ".", "directory for -json artifacts")
	txns := flag.Int("txns", 0, "override per-client transaction count")
	clients := flag.Int("clients", 0, "override the maximum client count")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	experiments := sim.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	params := sim.DefaultParams()
	if *quick {
		params = sim.QuickParams()
	}
	if *txns > 0 {
		params.Txns = *txns
	}
	if *clients > 0 {
		params.MaxClients = *clients
	}
	params.Seed = *seed

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		table, err := e.Run(params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed = true
			continue
		}
		if *markdown {
			table.Markdown(os.Stdout)
		} else {
			table.Fprint(os.Stdout)
		}
		if *jsonOut {
			path := filepath.Join(*outDir, "BENCH_"+e.ID+".json")
			if err := writeTableJSON(path, table); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "[%s results -> %s]\n", e.ID, path)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
