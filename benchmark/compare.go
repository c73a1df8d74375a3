package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// definition mirrors BENCHMARK.json.
type definition struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadDefinition reads BENCHMARK.json from the working directory (the
// repository root, where the driver runs) or its parent (go run -C).
func loadDefinition() (*definition, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		d := &definition{}
		if err := json.Unmarshal(b, d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return d, nil
	}
	return nil, firstErr
}

func loadSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suiteResult{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// values collects one metric of one workload over a file's untraced runs.
func (s *suiteResult) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			if x, ok := r.Metrics[metric]; ok {
				v = append(v, x)
			}
		}
	}
	return v
}

// verdict judges side b against side a for one end-to-end metric: "worse"
// when b's median is worse than a's by more than the bound, "unresolved"
// when either side's own run-to-run spread is wider than the bound (the
// medians then cannot be told apart), "same" otherwise.
func compareVerdict(a, b []float64, better string, bound float64) string {
	if spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+bound)
	if better == "higher" {
		worse = mb < ma*(1-bound)
	}
	if worse {
		return "worse"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric.
func compareFiles(pathA, pathB string) error {
	def, err := loadDefinition()
	if err != nil {
		return err
	}
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a = %s (commit %s, seed %d)\nb = %s (commit %s, seed %d)\n", pathA, a.Stamp.Commit, a.Seed, pathB, b.Stamp.Commit, b.Seed)
	fmt.Printf("%-15s %-24s %4s %14s %8s %14s %8s %14s %6s %s\n",
		"workload", "metric", "runs", "median a", "spread a", "median b", "spread b", "b/a (base a)", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range def.EndToEnd {
			va, vb := a.values(w.name, m.Name), b.values(w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-15s %-24s missing from a result file\n", w.name, m.Name)
				bad++
				continue
			}
			v := compareVerdict(va, vb, m.Better, m.Bound)
			if w.undeclared {
				v += " (workload not in BENCHMARK.json: reported, not judged)"
			} else if v == "worse" {
				bad++
			}
			fmt.Printf("%-15s %-24s %2d/%-2d %14.4f %8.4f %14.4f %8.4f %14.4f %6.2f %s\n",
				w.name, m.Name, len(va), len(vb), median(va), spread(va), median(vb), spread(vb),
				ratio(median(vb), median(va)), m.Bound, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse or missing", bad)
	}
	return nil
}
