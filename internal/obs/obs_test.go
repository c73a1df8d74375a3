package obs

import (
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// checks that no increment is lost (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("Load() = %d, want %d", got, workers*per)
	}
}

// TestCounterAllocFree proves the fast path allocates nothing.
func TestCounterAllocFree(t *testing.T) {
	var c Counter
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Counter.Add allocates %.1f objects per call, want 0", allocs)
	}
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(42) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f objects per call, want 0", allocs)
	}
}

// TestHistogramBuckets checks the log₂ bucketing and the summary
// fields.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	v := h.View()
	if v.Count != 6 {
		t.Fatalf("Count = %d, want 6", v.Count)
	}
	if v.Sum != 1010 {
		t.Fatalf("Sum = %d, want 1010", v.Sum)
	}
	// 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3;
	// 1000 -> bucket 10 ([512,1024)).
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1}
	for i, n := range v.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	v := h.View()
	if v.Count != workers*per {
		t.Fatalf("Count = %d, want %d", v.Count, workers*per)
	}
	var bucketSum uint64
	for _, n := range v.Buckets {
		bucketSum += n
	}
	if bucketSum != v.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, v.Count)
	}
}

// TestHistogramQuantile checks quantiles stay within their bucket's
// factor-of-two error bound.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	v := h.View()
	p50 := v.Quantile(0.50)
	if p50 < 256 || p50 > 1024 {
		t.Fatalf("p50 = %d, want within [256,1024] (true median 500)", p50)
	}
	p99 := v.Quantile(0.99)
	if p99 < 512 || p99 > 1024 {
		t.Fatalf("p99 = %d, want within [512,1024] (true p99 990)", p99)
	}
	if q := v.Quantile(0); q > v.Quantile(1) {
		t.Fatalf("q0 %d > q1 %d", q, v.Quantile(1))
	}
	var empty HistView
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistViewMergeSub(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(20)
	b.Observe(30)
	m := a.View().Merge(b.View())
	if m.Count != 3 || m.Sum != 60 {
		t.Fatalf("merge = count %d sum %d, want 3/60", m.Count, m.Sum)
	}
	d := m.Sub(a.View())
	if d.Count != 1 || d.Sum != 30 {
		t.Fatalf("sub = count %d sum %d, want 1/30", d.Count, d.Sum)
	}
}

func TestObserveDurationClampsNegative(t *testing.T) {
	var h Histogram
	h.ObserveDuration(-time.Second)
	v := h.View()
	if v.Count != 1 || v.Sum != 0 || v.Buckets[0] != 1 {
		t.Fatalf("negative duration not clamped to zero: %+v", v)
	}
}

// BenchmarkObsCounter measures the hot-path cost under parallel load
// and proves it allocation-free.
func BenchmarkObsCounter(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkObsHistogram(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}
