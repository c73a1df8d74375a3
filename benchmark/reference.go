package main

import (
	"sync"
	"time"
)

// This sandbox's speed changes while the program stays the same.  Over a
// few minutes the very same binary and seed ran private-local at 48k, 72k
// and 96k commits/s, and crash-recover's cycles drifted by a factor of two
// within one 200 s run, while a pure ALU spin loop stayed within 2%: what
// varies is the memory system the machine shares with its neighbours.  No
// regression bound survives that, so the benchmark keeps a clock of its
// own.  Before and after every window of load, while no client runs, it
// times a fixed piece of work of its own: allocation, map updates and
// page-sized copies, the things the program's commit path is made of, on as
// many goroutines as there are clients.  A window's speed is the mean of
// the two reference rates around it over the nominal rate, and the window's
// times count at that speed: rates are divided by it, durations multiplied.
//
// The pairing matters.  While both drifted 2x, a window's commit rate and
// the reference rates next to it moved together (correlation 0.96 on
// crash-recover).  Over ten seeds per workload, run alternately with an
// earlier version that took one speed index for the whole run (and the
// third best window instead of the median), the quartile spread of
// private-local's commits_per_s was 0.06 against 0.11, the other two
// workloads' 0.03-0.05 either way, where the clock's own readings spread by
// 0.15-0.19.
//
// What the reference is made of matters as much.  A variant that allocates
// nothing (scattered updates of a fixed array) lost two thirds of its rate
// in the machine's slow phases, when the program loses a third, and made
// shared-tcp's spread 0.28 where the clock's own was 0.14.  The program
// allocates 100-4000 objects per commit, and only reference work that lives
// off the allocator and the collector as well slows down as it does.  The
// price: the larger the heap the program keeps alive, the rarer the
// reference's collections.  Doubling a pointer-rich 20 MB heap made the
// reference 5% faster, so a change that does that reads 5% slower than it
// is (live_heap_mb has a bound of its own); the traced run's 200 MB of span
// buffers make it twice as fast, which is why no traced time is scaled.
//
// The reference shares no code with the program, so a slower program still
// reads slower; a slower machine slows both.

const (
	// refNominal is the reference rate, in units per second, that counts
	// as speed 1.0: this sandbox on a good day.
	refNominal = 17e6
	// refSliceLen is how long one reference measurement runs.
	refSliceLen = 50 * time.Millisecond
)

type refRec struct {
	key  uint64
	data [80]byte
}

// refRate runs the reference work on numClients goroutines for d and
// returns units per second.
func refRate(d time.Duration) float64 {
	var wg sync.WaitGroup
	var total [numClients]int
	for g := range total {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ring := make([]*refRec, 1<<14)
			m := make(map[uint64]*refRec, 4096)
			src := make([]byte, pageSize)
			dst := make([]byte, pageSize)
			r := rng{s: uint64(g) + 99}
			n := 0
			for t0 := time.Now(); time.Since(t0) < d; {
				for i := 0; i < 256; i++ {
					x := r.next()
					rec := &refRec{key: x & 4095}
					copy(rec.data[:], src[x&2047:])
					ring[n&(len(ring)-1)] = rec
					if old, ok := m[rec.key]; ok {
						rec.data[0] = old.data[1]
					}
					m[rec.key] = rec
					if i&63 == 0 {
						copy(dst, src)
					}
					n++
				}
			}
			total[g] = n
		}(g)
	}
	wg.Wait()
	var sum int
	for _, n := range total {
		sum += n
	}
	return float64(sum) / d.Seconds()
}

// reference is the benchmark's own clock: the most recent measurement of
// the reference work and when it ended.
type reference struct {
	slice   time.Duration // length of one measurement
	last    float64       // most recent rate, units/s
	lastEnd time.Time
	samples int
}

func newReference(slice time.Duration) *reference { return &reference{slice: slice} }

// sample measures the reference rate once.
func (ref *reference) sample() float64 {
	ref.last = refRate(ref.slice)
	ref.lastEnd = time.Now()
	ref.samples++
	return ref.last
}

// around runs f between two reference measurements and returns the
// machine's speed while it ran: 1.0 at the nominal rate, below it on a slow
// machine.  The measurement that closed the previous stretch opens this one
// when nothing but bookkeeping happened in between.
func (ref *reference) around(f func()) float64 {
	before := ref.last
	if time.Since(ref.lastEnd) > ref.slice {
		before = ref.sample()
	}
	f()
	return (before + ref.sample()) / 2 / refNominal
}
