package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestZipfianMatchesTheta draws a large sample per (theta, seed) cell
// and checks the observed frequencies of the hottest ranks against the
// generator's own exact distribution (Prob), so the ZIPF workload's
// skew rests on a verified generator.
func TestZipfianMatchesTheta(t *testing.T) {
	const n = 64
	const draws = 200_000
	for _, theta := range []float64{0.5, 0.9, 0.99} {
		for base := int64(1); base <= 3; base++ {
			s := seed(base)
			r := rand.New(rand.NewSource(s*7919 + int64(theta*1000)))
			z := NewZipfian(r, n, theta)
			counts := make([]int, n)
			for i := 0; i < draws; i++ {
				k := z.Next()
				if k < 0 || k >= n {
					t.Fatalf("theta=%.2f seed=%d: rank %d out of [0,%d)", theta, s, k, n)
				}
				counts[k]++
			}
			// Hot ranks: enough mass that sampling noise is ~1%; the
			// tolerance absorbs the Gray transform's continuous-
			// approximation bias for middling ranks.
			for i := 0; i < 5; i++ {
				want := z.Prob(i)
				got := float64(counts[i]) / draws
				if rel := math.Abs(got-want) / want; rel > 0.15 {
					t.Errorf("theta=%.2f seed=%d: rank %d freq %.4f, want %.4f (rel err %.2f)",
						theta, s, i, got, want, rel)
				}
			}
			// Aggregate tail mass: P(rank >= 8), a single number with
			// tiny variance.
			var wantTail, gotTail float64
			for i := 8; i < n; i++ {
				wantTail += z.Prob(i)
				gotTail += float64(counts[i]) / draws
			}
			if rel := math.Abs(gotTail-wantTail) / wantTail; rel > 0.10 {
				t.Errorf("theta=%.2f seed=%d: tail mass %.4f, want %.4f", theta, s, gotTail, wantTail)
			}
			// Rank frequencies decay: compare exponentially widening
			// bins (per-rank counts are too noisy to compare adjacent
			// ranks directly).
			binTotal := func(lo, hi int) int {
				tot := 0
				for i := lo; i < hi && i < n; i++ {
					tot += counts[i]
				}
				return tot
			}
			if b0, b1 := binTotal(0, 4), binTotal(4, 16); b0 <= b1*4/12 {
				t.Errorf("theta=%.2f seed=%d: hottest bin not dominant: [0,4)=%d [4,16)=%d", theta, s, b0, b1)
			}
		}
	}
	// More skew -> more top-rank mass: the three thetas must order.
	shares := make([]float64, 0, 3)
	for _, theta := range []float64{0.5, 0.9, 0.99} {
		r := rand.New(rand.NewSource(seed(99)))
		z := NewZipfian(r, n, theta)
		top := 0
		for i := 0; i < draws; i++ {
			if z.Next() < 4 {
				top++
			}
		}
		shares = append(shares, float64(top)/draws)
	}
	if !(shares[0] < shares[1] && shares[1] < shares[2]) {
		t.Fatalf("top-4 share should grow with theta: %.3f %.3f %.3f", shares[0], shares[1], shares[2])
	}
}

// TestZipfianDegenerateParams pins the clamping behavior.
func TestZipfianDegenerateParams(t *testing.T) {
	r := rand.New(rand.NewSource(seed(5)))
	z := NewZipfian(r, 0, -1) // clamps to n=1, theta=0.99
	for i := 0; i < 100; i++ {
		if k := z.Next(); k != 0 {
			t.Fatalf("n=1 generator returned rank %d", k)
		}
	}
	if p := z.Prob(0); math.Abs(p-1) > 1e-9 {
		t.Fatalf("n=1 Prob(0)=%v, want 1", p)
	}
}
