package main

import (
	"hash/fnv"
	"math"
	"testing"
)

// streamHash hashes the first n operations of every client of a workload.
func streamHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	for ci := 0; ci < numClients; ci++ {
		g := newGen(seed, ci, numClients, w.pages, w.dist, w.theta, w.readPct)
		for i := 0; i < n; i++ {
			o := g.next()
			b := [5]byte{byte(o.obj), byte(o.obj >> 8), byte(o.obj >> 16), byte(o.obj >> 24), 0}
			if o.write {
				b[4] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w, 7, 5000), streamHash(w, 7, 5000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different operation streams", w.name)
		}
		if c := streamHash(w, 8, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", w.name)
		}
	}
}

func TestGeneratorDoesNotAllocate(t *testing.T) {
	for _, w := range workloads {
		g := newGen(1, 0, numClients, w.pages, w.dist, w.theta, w.readPct)
		var ops [opsPerTxn]op
		var val [objSize]byte
		seq := uint64(0)
		if a := testing.AllocsPerRun(1000, func() {
			g.fill(ops[:])
			seq++
			putValue(val[:], 1, seq)
		}); a != 0 {
			t.Errorf("%s: %.1f allocations per generated transaction, want 0", w.name, a)
		}
	}
}

func TestPrivateClientsStayApart(t *testing.T) {
	w := workloadByName("private-local")
	for ci := 0; ci < numClients; ci++ {
		g := newGen(3, ci, numClients, w.pages, w.dist, w.theta, w.readPct)
		lo, hi := ci*w.pages/numClients, (ci+1)*w.pages/numClients
		for i := 0; i < 10000; i++ {
			if pg := int(g.next().obj) / objsPerPage; pg < lo || pg >= hi {
				t.Fatalf("client %d drew page %d outside its own [%d, %d)", ci, pg, lo, hi)
			}
		}
	}
}

func TestZipfFrequencies(t *testing.T) {
	const pages, theta, draws = 64, 0.9, 400000
	g := newGen(5, 0, numClients, pages, distZipf, theta, 50)
	byPage := make([]int, pages)
	for i := 0; i < draws; i++ {
		byPage[g.pageIndex()]++
	}
	var zeta float64
	for i := 1; i <= pages; i++ {
		zeta += 1 / math.Pow(float64(i), theta)
	}
	for rank := 0; rank < pages; rank++ {
		want := 1 / (math.Pow(float64(rank+1), theta) * zeta)
		got := float64(byPage[g.perm[rank]]) / draws
		// Three standard deviations of a binomial share, plus 2% of the share.
		tol := 3*math.Sqrt(want*(1-want)/draws) + 0.02*want
		if math.Abs(got-want) > tol {
			t.Errorf("rank %d: drawn with frequency %.5f, want %.5f +- %.5f", rank, got, want, tol)
		}
	}
	// Both clients of a run share the hot pages; another seed moves them.
	other := newGen(5, 1, numClients, pages, distZipf, theta, 50)
	moved := newGen(6, 0, numClients, pages, distZipf, theta, 50)
	same := true
	for i := range g.perm {
		if g.perm[i] != other.perm[i] {
			t.Fatalf("clients 0 and 1 of one run disagree on the page of rank %d", i)
		}
		same = same && g.perm[i] == moved.perm[i]
	}
	if same {
		t.Error("seeds 5 and 6 put the same pages at every rank")
	}
}

func TestValueRoundTrip(t *testing.T) {
	var buf [objSize]byte
	putValue(buf[:], 2, 123456789)
	c, s, whole := parseValue(buf[:])
	if c != 2 || s != 123456789 || !whole {
		t.Fatalf("parseValue = (%d, %d, %v)", c, s, whole)
	}
	buf[20] ^= 1
	if _, _, whole := parseValue(buf[:]); whole {
		t.Error("a torn value passed for whole")
	}
}
