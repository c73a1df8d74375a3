package main

import (
	"math"
	"testing"
)

// Python's statistics.quantiles(values, n=4) is the rule the benchmark's
// acceptance is written in; these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2, 5, 4}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, []float64{103, 104, 102, 103, 105}, "lower", 0.10, "same"},
		{"slower is worse", steady, []float64{120, 121, 119, 120, 122}, "lower", 0.10, "worse"},
		{"faster is not", steady, []float64{80, 81, 79, 80, 82}, "lower", 0.10, "same"},
		{"lower rate is worse", steady, []float64{80, 81, 79, 80, 82}, "higher", 0.10, "worse"},
		{"noisy", steady, []float64{60, 140, 100, 80, 120}, "lower", 0.10, "unresolved"},
	}
	for _, c := range cases {
		if got := compareVerdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
