// Command benchmark is the repository's benchmark: four named workloads,
// end-to-end metrics measured with nothing installed, and per-layer metrics
// from a traced run with the benchmark's own decorators around the layer
// boundaries.  BENCHMARK.json at the repository root is its definition;
// README.md in this directory explains every metric and workload.
//
// One run of one workload (the form the driver uses; the last line of
// standard output is the result as one JSON object):
//
//	benchmark -workload private-local -seed 1 -seconds 20 -trace 0
//
// The whole suite, every workload untraced then traced:
//
//	benchmark -seed 1 -out results.json
//
// Comparing two suite results:
//
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, decorators absent; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "suite mode: also write every result to this JSON file")
		repeat  = flag.Int("repeat", 1, "suite mode: run the suite this many times, on seeds seed, seed+1, ...")
		spans   = flag.String("spans", "", "traced run: write every recorded span to this file, one JSON object per line")
		compare = flag.Bool("compare", false, "compare two suite result files given as arguments")
		list    = flag.Bool("list", false, "print every metric's definition and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *list:
		listMetrics()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, options{spans: *spans})
	default:
		err = runSuite(*seed, *seconds, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// stamp identifies the machine and code a result came from.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Clients    int    `json:"clients"`
	Devices    string `json:"devices"`
	Time       string `json:"time"`
}

func newStamp() stamp {
	// The toolchain stamps the commit into the binary when it builds
	// inside a git checkout; the driver's checkout is not one.
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 7 {
				commit = kv.Value[:7]
			}
		}
	}
	return stamp{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    numClients,
		Devices:    "storage.MemStore + wal.MemStore, zero simulated latency: times are this machine's CPU and protocol path, not a device's",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func (s stamp) print() {
	fmt.Printf("# commit %s, %s, GOMAXPROCS %d, nproc %d, closed loop of %d clients\n", s.Commit, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.Clients)
	fmt.Printf("# devices: %s\n", s.Devices)
}

// printResult prints a run's metrics by name with their units.
func printResult(r *runResult) {
	defs := defsByName(endToEndDefs)
	kind := "end-to-end (decorators absent)"
	if r.Traced {
		defs = defsByName(perLayerDefs)
		kind = "per-layer (traced run)"
	}
	fmt.Printf("## %s, %s, seed %d, %.4g s measured, %.1f s wall\n", r.Workload, kind, r.Seed, r.Seconds, r.WallS)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.4f %s\n", n, r.Metrics[n], defs[n].unit)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("samples:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, r.Samples[k])
	}
	if len(r.Raw) > 0 {
		fmt.Printf("\nas the clock read them, before anything was put at reference speed: commits_per_s=%.4f setup_s=%.4f (mean machine speed %.3f, during set-up %.3f)",
			r.Raw["commits_per_s"], r.Raw["setup_s"], r.Raw["machine_speed"], r.Raw["setup_speed"])
		fmt.Printf("\nwindow rates at reference speed (1/s): %.0f", r.Rates)
		if len(r.RestartMs) > 0 {
			fmt.Printf("\nrestart times as the clock read them (ms), client then server per cycle: %.1f", r.RestartMs)
		}
	}
	fmt.Printf("\ncorrect=%v attempted=%d failed=%d acked_lost=%d\n", r.Correct, r.Attempted, r.Failed, r.AckedLost)
	if r.FirstFail != "" {
		fmt.Printf("first failure: %s\n", r.FirstFail)
	}
}

// runOne is the driver's form: one workload, one run, the result as the
// last line of standard output.
func runOne(name string, seed int64, seconds float64, traced bool, opt options) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	newStamp().print()
	r, err := runWorkload(w, seed, seconds, traced, opt)
	if err != nil {
		return err
	}
	printResult(r)
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// suiteResult is what the suite writes to -out.
type suiteResult struct {
	Stamp   stamp        `json:"stamp"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Claim   *string      `json:"claim"` // this benchmark claims no gain
	Runs    []*runResult `json:"runs"`
}

// runSuite runs every workload untraced, then traced, `repeat` times over
// consecutive seeds.
func runSuite(seed int64, seconds float64, repeat int, out string) error {
	s := suiteResult{Stamp: newStamp(), Seed: seed, Seconds: seconds}
	s.Stamp.print()
	var wrong []string
	for pass := 0; pass < repeat; pass++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				r, err := runWorkload(w, seed+int64(pass), seconds, traced, options{})
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				printResult(r)
				if !r.Correct {
					wrong = append(wrong, fmt.Sprintf("%s (seed %d)", w.name, r.Seed))
				}
				s.Runs = append(s.Runs, r)
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(wrong) > 0 {
		return fmt.Errorf("failed operations or lost updates in %v", wrong)
	}
	return nil
}

func listMetrics() {
	fmt.Println("End-to-end metrics (every workload, decorators absent):")
	for _, d := range endToEndDefs {
		fmt.Printf("  %-34s %-6s %-6s %s\n", d.name, d.unit, d.better, d.what)
	}
	fmt.Println("Per-layer metrics (traced run; * = microbenchmark):")
	for _, d := range perLayerDefs {
		star := " "
		if d.micro {
			star = "*"
		}
		fmt.Printf(" %s%-34s %-6s %-6s %s -> %s\n", star, d.name, d.unit, d.better, d.what, d.moves)
	}
	fmt.Println("Program symbols the benchmark depends on (surface.go):")
	for _, e := range surface {
		fmt.Printf("  %-26s %s\n", e.symbol, e.uses)
	}
}
