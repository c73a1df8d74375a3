// Package sim provides the experiment substrate: synthetic workload
// generators in the tradition of the client-server caching studies the
// paper builds on (Carey/Franklin et al.), a multi-client workload
// runner with full metric collection, and the crash/recovery experiment
// drivers behind every table in EXPERIMENTS.md.
package sim

import (
	"fmt"
	"math/rand"

	"clientlog/internal/page"
)

// Kind selects the access-pattern family.
type Kind int

const (
	// Uniform spreads accesses uniformly over the whole database.
	Uniform Kind = iota
	// HotCold sends 80% of each client's accesses to a private hot
	// region and 20% to the shared remainder.
	HotCold
	// Private confines each client to its own partition (no sharing).
	Private
	// HiCon sends every client to one small shared region: maximum
	// same-page contention, the headline case for concurrent same-page
	// updates vs page locking vs update tokens.
	HiCon
	// Feed has client 1 write a region that all other clients read
	// (producer/consumer, the classic FEED workload).
	Feed
	// Zipf draws pages from a YCSB-style zipfian distribution with
	// tunable skew (Theta): a few hot pages absorb most of the traffic,
	// the long tail the rest.  This is the hot-key regime the
	// distributed-locking literature sweeps and none of the original
	// workloads reach.
	Zipf
	// LongRead mixes long-running read-only transactions (every
	// LongEvery-th client scans LongOps objects of the shared hot region
	// under S locks) with ordinary update transactions against the same
	// region, so writers' callbacks queue behind reader transactions
	// that hold locks for a long time.
	LongRead
)

func (k Kind) String() string {
	switch k {
	case Uniform:
		return "UNIFORM"
	case HotCold:
		return "HOTCOLD"
	case Private:
		return "PRIVATE"
	case HiCon:
		return "HICON"
	case Feed:
		return "FEED"
	case Zipf:
		return "ZIPF"
	case LongRead:
		return "LONGREAD"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps a workload name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "UNIFORM", "uniform":
		return Uniform, nil
	case "HOTCOLD", "hotcold":
		return HotCold, nil
	case "PRIVATE", "private":
		return Private, nil
	case "HICON", "hicon":
		return HiCon, nil
	case "FEED", "feed":
		return Feed, nil
	case "ZIPF", "zipf":
		return Zipf, nil
	case "LONGREAD", "longread":
		return LongRead, nil
	default:
		return 0, fmt.Errorf("sim: unknown workload %q", s)
	}
}

// Workload parameterizes the synthetic access pattern.
type Workload struct {
	Kind        Kind
	Pages       int // database size in pages
	ObjsPerPage int
	ObjSize     int
	OpsPerTxn   int
	ReadFrac    float64 // fraction of operations that are reads
	// HotPages is the per-client hot region size (HotCold) or the
	// shared region size (HiCon/Feed).
	HotPages int
	// HotFrac is the probability of hitting the hot region (HotCold) or
	// the shared hot region (LongRead's writers).
	HotFrac float64
	// Theta is the zipfian skew for the Zipf kind (YCSB's zipfian
	// constant, in (0,1); larger is more skewed; 0 means the default).
	Theta float64
	// LongEvery makes every LongEvery-th client a long-running reader in
	// the LongRead kind (0 disables long readers).
	LongEvery int
	// LongOps is the number of reads a long-running reader performs per
	// transaction (LongRead kind).
	LongOps int
	// Diskless makes every client log to a server-hosted remote log
	// (Section 2's diskless option) instead of a local one.
	Diskless bool
}

// DefaultWorkload returns sane parameters for the given kind.
func DefaultWorkload(kind Kind) Workload {
	w := Workload{
		Kind:        kind,
		Pages:       64,
		ObjsPerPage: 16,
		ObjSize:     32,
		OpsPerTxn:   8,
		ReadFrac:    0.5,
		HotPages:    4,
		HotFrac:     0.8,
	}
	switch kind {
	case HiCon:
		w.HotPages = 2
		w.ReadFrac = 0.2
	case Feed:
		w.ReadFrac = 0.9
	case Private:
		w.ReadFrac = 0.3
	case Zipf:
		w.Theta = 0.9
	case LongRead:
		w.HotPages = 8
		w.HotFrac = 0.7
		w.ReadFrac = 0.3
		w.OpsPerTxn = 4
		w.LongEvery = 8
		w.LongOps = 32
	}
	return w
}

// Gen yields the object and operation stream for one client.
type Gen struct {
	w       Workload
	client  int // zero-based client index
	nclient int
	r       *rand.Rand
	ids     []page.ID
	zipf    *Zipfian
	long    bool // this client is a LongRead long-running reader
	val     []byte
}

// NewGen builds the per-client access generator.  ids are the seeded
// page ids (len == w.Pages).
func NewGen(w Workload, client, nClients int, ids []page.ID, seed int64) *Gen {
	g := &Gen{
		w:       w,
		client:  client,
		nclient: nClients,
		r:       rand.New(rand.NewSource(seed ^ int64(uint64(client+1)*0x9E3779B97F4A7C15))),
		ids:     ids,
	}
	if w.Kind == Zipf {
		g.zipf = NewZipfian(g.r, len(ids), w.Theta)
	}
	g.long = w.Kind == LongRead && w.LongEvery > 0 && client%w.LongEvery == 0
	return g
}

// Ops returns the number of operations the next transaction should
// perform: LongRead's long readers scan LongOps objects, everyone else
// uses OpsPerTxn.
func (g *Gen) Ops() int {
	n := g.w.OpsPerTxn
	if g.long && g.w.LongOps > 0 {
		n = g.w.LongOps
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Next returns the next object to access and whether the access is a
// write.
func (g *Gen) Next() (obj page.ObjectID, write bool) {
	w := g.w
	n := len(g.ids) // authoritative database size
	hot := w.HotPages
	if hot > n {
		hot = n
	}
	write = g.r.Float64() >= w.ReadFrac
	var pi int
	switch w.Kind {
	case Uniform:
		pi = g.r.Intn(n)
	case Private:
		span := n / g.nclient
		if span == 0 {
			span = 1
		}
		pi = (g.client*span + g.r.Intn(span)) % n
	case HotCold:
		span := hot
		if g.r.Float64() < w.HotFrac {
			pi = (g.client*span + g.r.Intn(span)) % n
		} else {
			pi = g.r.Intn(n)
		}
	case HiCon:
		pi = g.r.Intn(hot)
	case Feed:
		pi = g.r.Intn(hot)
		if g.client != 0 {
			write = false // consumers only read
		} else {
			write = true // the producer only writes
		}
	case Zipf:
		pi = g.zipf.Next()
	case LongRead:
		if g.long {
			// Long-running reader: scan the shared hot region under S
			// locks for the whole (long) transaction.
			pi = g.r.Intn(hot)
			write = false
		} else if g.r.Float64() < w.HotFrac {
			pi = g.r.Intn(hot) // collide with the long readers
		} else {
			pi = g.r.Intn(n)
		}
	}
	slot := uint16(g.r.Intn(w.ObjsPerPage))
	if w.Kind == HiCon {
		// Fine-grained sharing: every client hammers the same few pages
		// but each owns a disjoint residue class of slots.  This is the
		// paper's headline case — concurrent updates to different
		// objects of the same page — and the regime where page-level
		// locking and update tokens pay a page transfer per transaction.
		k := w.ObjsPerPage / g.nclient
		if k == 0 {
			k = 1
		}
		slot = uint16((g.client + g.r.Intn(k)*g.nclient) % w.ObjsPerPage)
	}
	return page.ObjectID{Page: g.ids[pi], Slot: slot}, write
}

// Value produces a deterministic-length random value for writes.
func (g *Gen) Value() []byte {
	v := make([]byte, g.w.ObjSize)
	_, _ = g.r.Read(v)
	return v
}

// ValueReuse is Value over a generator-owned scratch buffer.  The
// engine clones written bytes on both the page and the log path, so
// the runner hands out one buffer per client instead of allocating
// per write.
func (g *Gen) ValueReuse() []byte {
	if len(g.val) != g.w.ObjSize {
		g.val = make([]byte, g.w.ObjSize)
	}
	_, _ = g.r.Read(g.val)
	return g.val
}
