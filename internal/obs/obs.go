// Package obs is the observability subsystem: lock-free sharded
// counters and log₂-bucketed histograms, collected in a tagged
// Registry with cheap snapshot/delta semantics, plus an HTTP admin
// endpoint (admin.go) serving Prometheus text, a health check and
// pprof.
//
// The same registry backs every consumer: the engines in internal/core,
// internal/lock, internal/wal and internal/buffer update counters on
// their hot paths; the sim harness and cmd/bench read experiment
// numbers from snapshots of that registry; cmd/clsrv and cmd/chaos
// expose it live over -admin.  Metric structs embed Counter values
// directly (a zero Counter is ready to use), so engines work unchanged
// whether or not a registry is attached; Registry.BindCounter wires an
// existing counter into a named, tagged series after the fact.
//
// Everything here is stdlib-only and allocation-free on the update
// paths (see BenchmarkObsCounter).
package obs

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// counterShards is the number of independent overflow cells a Counter
// spreads contended updates over; a power of two so the shard pick is a
// mask.  The CAS fast path on the base cell absorbs uncontended
// writers, so two overflow lines suffice, keeping the footprint of the
// counters embedded in every engine's metrics struct small (benchmarks
// build thousands of short-lived clusters, so counter bytes are
// allocation pressure there).
const counterShards = 2

// shard is one cache-line-padded counter cell: 8 bytes of value, 56
// bytes of padding, so adjacent shards never share a 64-byte line and
// concurrent writers do not false-share.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing counter safe for concurrent
// use.  Updates are lock-free and allocation-free, and adapt to the
// write pattern the way LongAdder does: Add first tries one CAS on a
// base cell, so a single-writer counter (most counters in this repo —
// per-client metrics, counters guarded by their subsystem's own mutex)
// stays on one hot cache line; only when the CAS loses a race does the
// update spill to a randomly picked padded shard, spreading contended
// writers over independent lines.  The zero value is ready to use.
type Counter struct {
	base   shard
	shards [counterShards]shard
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	v := c.base.v.Load()
	if c.base.v.CompareAndSwap(v, v+n) {
		return
	}
	c.shards[rand.Uint32()&(counterShards-1)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current total.  Concurrent Adds may or may not be
// included; the sum is exact once writers quiesce.
func (c *Counter) Load() uint64 {
	t := c.base.v.Load()
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// histBuckets is one bucket per possible bit length of a uint64 (0..64).
const histBuckets = 65

// Histogram accumulates a distribution in log₂ buckets: value v lands
// in bucket bits.Len64(v), i.e. bucket i covers [2^(i-1), 2^i) with
// bucket 0 reserved for zero.  Updates are three uncontended atomic
// adds; the zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration sample in nanoseconds (negative
// durations clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// View returns a copy of the histogram's current state.
func (h *Histogram) View() HistView {
	var v HistView
	// Read count last: a concurrent Observe between the bucket reads
	// and the count read then under-reports count rather than leaving
	// count > sum-of-buckets, keeping quantile walks in range.
	for i := range h.buckets {
		v.Buckets[i] = h.buckets[i].Load()
	}
	v.Sum = h.sum.Load()
	v.Count = h.count.Load()
	return v
}

// HistView is an immutable histogram snapshot.
type HistView struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Merge returns the bucket-wise sum of two views (e.g. the cluster-wide
// commit latency distribution from per-client histograms).
func (v HistView) Merge(o HistView) HistView {
	out := v
	out.Count += o.Count
	out.Sum += o.Sum
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	return out
}

// Sub returns the delta view since prev (counts are monotone, so the
// difference is itself a valid distribution).
func (v HistView) Sub(prev HistView) HistView {
	out := v
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	for i := range out.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by walking the
// cumulative bucket counts and interpolating linearly inside the
// bucket the rank lands in.  Log₂ buckets bound the error to a factor
// of two, which is plenty for latency reporting.
func (v HistView) Quantile(q float64) uint64 {
	if v.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(v.Count))
	if rank >= v.Count {
		rank = v.Count - 1
	}
	var cum uint64
	for i, n := range v.Buckets {
		if n == 0 {
			continue
		}
		if rank < cum+n {
			lo, hi := bucketBounds(i)
			frac := float64(rank-cum) / float64(n)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum += n
	}
	return 0
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	lo = uint64(1) << (i - 1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1) << i
}

// bucketUpper returns the inclusive upper bound of bucket i, the le=""
// label value in Prometheus output.
func bucketUpper(i int) uint64 {
	_, hi := bucketBounds(i)
	if i == 64 {
		return hi
	}
	return hi - 1
}
