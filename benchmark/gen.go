package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// The benchmark owns its load generator: the program under test sees only
// the calls the generator produces, never a seed or a workload name.

const (
	objsPerPage = 16
	objSize     = 32
	opsPerTxn   = 8
)

// dist selects how a client picks the page of each operation.
type dist int

const (
	distPrivate dist = iota // uniform over the client's own slice of the pages
	distUniform             // uniform over every page
	distZipf                // zipfian over every page, same hot pages for every client
)

// rng is splitmix64: one word of state, no allocation, and a stream that
// depends only on the seed it was started from.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// op is one generated operation: an object index (page index * objsPerPage
// + slot) into the workload's page list, and whether it overwrites.
type op struct {
	obj   int32
	write bool
}

// gen produces one client's operation stream.
type gen struct {
	r       rng
	d       dist
	lo, n   int       // page index range [lo, lo+n) the client draws from
	readPct int       // share of operations that are reads
	cdf     []float64 // zipfian cumulative probabilities by rank
	perm    []int32   // rank -> page index, shared by all clients of a run
}

// newGen builds client ci's generator.  Streams of different clients and
// different seeds are independent; the zipfian rank-to-page permutation
// depends on the seed only, so every client of a run has the same hot pages.
func newGen(seed int64, ci, clients, pages int, d dist, theta float64, readPct int) *gen {
	g := &gen{
		r:       rng{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(ci+1)*0xd1342543de82ef95},
		d:       d,
		n:       pages,
		readPct: readPct,
	}
	switch d {
	case distPrivate:
		g.n = pages / clients
		g.lo = ci * g.n
	case distZipf:
		g.cdf = zipfCDF(pages, theta)
		g.perm = make([]int32, pages)
		for i := range g.perm {
			g.perm[i] = int32(i)
		}
		pr := rng{s: uint64(seed) ^ 0x5851f42d4c957f2d}
		for i := pages - 1; i > 0; i-- {
			j := pr.intn(i + 1)
			g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		}
	}
	return g
}

// zipfCDF returns the cumulative distribution of p(rank) ∝ 1/(rank+1)^theta.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// pageIndex draws the page of the next operation.
func (g *gen) pageIndex() int {
	if g.d != distZipf {
		return g.lo + g.r.intn(g.n)
	}
	rank := sort.SearchFloat64s(g.cdf, g.r.float())
	if rank >= len(g.cdf) {
		rank = len(g.cdf) - 1
	}
	return int(g.perm[rank])
}

// next draws one operation.
func (g *gen) next() op {
	pg := g.pageIndex()
	slot := g.r.intn(objsPerPage)
	return op{obj: int32(pg*objsPerPage + slot), write: g.r.intn(100) >= g.readPct}
}

// fill draws the operations of one transaction.
func (g *gen) fill(ops []op) {
	for i := range ops {
		ops[i] = g.next()
	}
}

// Every value the benchmark writes names its writer: bytes 0..3 hold the
// client number (1-based; 0 is the seeded initial value), bytes 4..11 that
// client's commit sequence number, and the rest a filler derived from both
// so a torn value does not pass for a whole one.
func putValue(buf []byte, client uint32, seq uint64) {
	binary.LittleEndian.PutUint32(buf[0:4], client)
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	fill := byte(client)*31 + byte(seq)*7
	for i := 12; i < len(buf); i++ {
		buf[i] = fill + byte(i)
	}
}

// parseValue returns the writer and sequence number a value names, and
// whether the filler matches them.
func parseValue(buf []byte) (client uint32, seq uint64, whole bool) {
	if len(buf) != objSize {
		return 0, 0, false
	}
	client = binary.LittleEndian.Uint32(buf[0:4])
	seq = binary.LittleEndian.Uint64(buf[4:12])
	fill := byte(client)*31 + byte(seq)*7
	for i := 12; i < len(buf); i++ {
		if buf[i] != fill+byte(i) {
			return client, seq, false
		}
	}
	return client, seq, true
}
