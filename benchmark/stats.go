package main

import (
	"slices"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted values by the nearest
// rank; 0 for an empty sample.  Every sample is kept and sorted, so
// percentiles are exact, not bucket bounds.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInts(v []int64) []int64 {
	slices.Sort(v)
	return v
}

// median returns the median of values (the mean of the middle two for an
// even count); 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance rule for this benchmark is written in.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0]
		}
		return 0, 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
