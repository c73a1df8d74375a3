package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"clientlog/internal/buffer"
	"clientlog/internal/core"
	"clientlog/internal/fleet"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/netrpc"
	"clientlog/internal/obs"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// Layer microbenchmarks: direct timed calls into one layer's exported
// functions on synthetic input.  They do not depend on the workload; every
// traced run repeats them so its reconciliation row uses costs measured on
// the same machine in the same minute.

// sink keeps results alive so the compiler cannot drop the measured call.
var sink interface{}

// perOp times `batches` batches of n calls and returns the median batch's
// nanoseconds per call.
func perOp(n int, f func()) float64 {
	const batches = 5
	v := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		v = append(v, float64(time.Since(t0))/float64(n))
	}
	return median(v)
}

// seededPage returns a page holding objsPerPage objects of objSize bytes.
func seededPage(id page.ID) *page.Page {
	p := page.New(id, pageSize)
	val := make([]byte, objSize)
	for s := 0; s < objsPerPage; s++ {
		if _, _, err := p.Insert(val); err != nil {
			panic(err) // 16 x 32 bytes always fit a 4 KiB page
		}
	}
	return p
}

// releasingCallbacker is the stub holder of lock.glm_callback_us: called
// back, it gives the lock up at once.
type releasingCallbacker struct{ g *lock.GLM }

func (c *releasingCallbacker) CallbackObject(holder, _ ident.ClientID, obj lock.Name, _ lock.Mode) {
	c.g.Release(holder, obj)
}

func (c *releasingCallbacker) DeescalatePage(holder, _ ident.ClientID, pg page.ID, _ lock.Mode) {
	c.g.Deescalate(holder, pg, nil)
}

// lockOnly is a partition stub for fleet.router_lock_ns: the router is
// only ever asked to route Lock.
type lockOnly struct{ msg.Server }

func (lockOnly) Lock(r msg.LockReq) (msg.LockReply, error) {
	return msg.LockReply{Name: r.Name, Mode: r.Mode}, nil
}

// runMicro runs every layer microbenchmark.  n scales the iteration
// counts (1 for a real run, less for the smoke test).
func runMicro(scale float64) (map[string]float64, error) {
	it := func(n int) int {
		if n = int(float64(n) * scale); n < 10 {
			n = 10
		}
		return n
	}
	M := map[string]float64{}
	obj := lock.ObjName(page.ObjectID{Page: 7, Slot: 3})

	// lock
	llm := lock.NewLLM(time.Second)
	llm.InstallCached(obj, lock.X)
	txn := ident.MakeTxnID(1, 1)
	M["lock.llm_hit_ns"] = perOp(it(200000), func() {
		if r, err := llm.AcquireLocal(txn, obj, lock.X); err != nil || r != lock.Granted {
			panic(fmt.Sprintf("llm hit: %v %v", r, err))
		}
		llm.ReleaseTxn(txn)
	})
	glm := lock.NewGLM(nil, time.Second)
	cb := &releasingCallbacker{g: glm}
	glm.SetCallbacker(cb)
	M["lock.glm_grant_ns"] = perOp(it(200000), func() {
		if _, err := glm.Acquire(lock.Request{Client: 1, Name: obj, Mode: lock.X}); err != nil {
			panic(err)
		}
		glm.Release(1, obj)
	})
	var cbNs int64
	cbN := it(20000)
	for i := 0; i < cbN; i++ {
		if _, err := glm.Acquire(lock.Request{Client: 1, Name: obj, Mode: lock.S}); err != nil {
			return nil, fmt.Errorf("micro glm callback: holder: %w", err)
		}
		t0 := time.Now()
		_, err := glm.Acquire(lock.Request{Client: 2, Name: obj, Mode: lock.X})
		cbNs += int64(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("micro glm callback: requester: %w", err)
		}
		glm.Release(2, obj)
	}
	M["lock.glm_callback_us"] = float64(cbNs) / float64(cbN) / 1e3
	glm.Stop()

	// msg codec
	lreq := msg.LockReq{Client: 1, Name: obj, Mode: lock.X, HasCached: true, CachedPSN: 99}
	var lout msg.LockReq
	var dec msg.WireDec
	wire := make([]byte, 0, 8192)
	codecLock := func() {
		wire = lreq.AppendWire(wire[:0])
		dec.Reset(wire)
		lout.DecodeWire(&dec)
	}
	M["msg.codec_lock_ns"] = perOp(it(500000), codecLock)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	allocN := it(10000)
	for i := 0; i < allocN; i++ {
		codecLock()
	}
	runtime.ReadMemStats(&ms)
	M["msg.codec_allocs"] = float64(ms.Mallocs-m0) / float64(allocN)
	if dec.Err() != nil || lout != lreq {
		return nil, fmt.Errorf("micro codec: LockReq did not round-trip: %v", dec.Err())
	}
	frep := msg.FetchReply{Image: make([]byte, pageSize), DCTPSN: 5}
	var fout msg.FetchReply
	M["msg.codec_fetch_ns"] = perOp(it(100000), func() {
		wire = frep.AppendWire(wire[:0])
		dec.Reset(wire)
		fout.DecodeWire(&dec)
	})
	if dec.Err() != nil || len(fout.Image) != pageSize {
		return nil, fmt.Errorf("micro codec: FetchReply did not round-trip: %v", dec.Err())
	}

	// netrpc: the cheapest RPC (a lock the client already holds) over a
	// real 127.0.0.1 connection.
	rtt, err := microRTT(it(3000))
	if err != nil {
		return nil, err
	}
	M["netrpc.rtt_us_p50"] = rtt

	// buffer
	pool := buffer.New(64)
	for i := 0; i < 64; i++ {
		pool.Put(seededPage(page.ID(i+1)), false)
	}
	var k int
	M["buffer.get_hit_ns"] = perOp(it(500000), func() {
		k++
		sink, _ = pool.Get(page.ID(k%64 + 1))
	})
	small := buffer.New(32)
	pages := make([]*page.Page, 64)
	for i := range pages {
		pages[i] = seededPage(page.ID(i + 1))
		if i < 32 {
			small.Put(pages[i], false)
		}
	}
	k = 32
	M["buffer.put_evict_ns"] = perOp(it(200000), func() {
		small.Put(pages[k%64], true)
		k++
		if _, _, err := small.EvictVictim(); err != nil {
			panic(err)
		}
	})

	// page
	pg := seededPage(1)
	val := make([]byte, objSize)
	M["page.overwrite_ns"] = perOp(it(500000), func() {
		k++
		if _, _, err := pg.Overwrite(uint16(k%objsPerPage), val); err != nil {
			panic(err)
		}
	})
	a, b := pg.Clone(), pg.Clone()
	for s := 0; s < objsPerPage; s++ {
		side := a
		if s >= objsPerPage/2 {
			side = b
		}
		if _, _, err := side.Overwrite(uint16(s), val); err != nil {
			return nil, err
		}
	}
	M["page.merge_ns"] = perOp(it(50000), func() { sink = page.Merge(a, b) })
	img, err := pg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	M["page.marshal_ns"] = perOp(it(50000), func() { sink, _ = pg.MarshalBinary() })
	M["page.unmarshal_ns"] = perOp(it(50000), func() {
		q := new(page.Page)
		if err := q.UnmarshalBinary(img); err != nil {
			panic(err)
		}
		sink = q
	})

	// wal
	rec := &wal.Update{TxnID: txn, PrevLSN: 16, Page: 7, Slot: 3, PSN: 42, Op: wal.OpOverwrite,
		Before: make([]byte, objSize), After: make([]byte, objSize)}
	M["wal.encode_ns"] = perOp(it(500000), func() { sink = wal.Encode(rec) })
	log := wal.NewLog(wal.NewMemStore(0))
	M["wal.append_ns"] = perOp(it(100000), func() {
		if _, err := log.Append(rec); err != nil {
			panic(err)
		}
	})
	log = wal.NewLog(wal.NewMemStore(0))
	M["wal.force_ns"] = perOp(it(100000), func() {
		if _, err := log.AppendAndForce(rec); err != nil {
			panic(err)
		}
	})
	log = wal.NewLog(wal.NewMemStore(0))
	groupN := it(100000)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < groupN; i++ {
				if _, err := log.AppendAndForce(rec); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	M["wal.group_force_ns"] = float64(time.Since(t0)) / float64(groupN)

	// fleet, obs
	router := fleet.NewRouter([]msg.Server{lockOnly{}, lockOnly{}, lockOnly{}})
	M["fleet.router_lock_ns"] = perOp(it(500000), func() {
		k++
		lreq.Name.Page = page.ID(k)
		if _, err := router.Lock(lreq); err != nil {
			panic(err)
		}
	})
	var ctr obs.Counter
	M["obs.counter_add_ns"] = perOp(it(1000000), func() { ctr.Add(1) })
	var hist obs.Histogram
	M["obs.hist_observe_ns"] = perOp(it(1000000), func() { k++; hist.Observe(uint64(k)) })

	// the harness's own generator
	g := newGen(1, 0, numClients, 64, distZipf, 0.9, 50)
	M["bench.gen_ns_per_op"] = perOp(it(1000000), func() { sink = g.next() })
	return M, nil
}

// microRTT returns the median round trip, in microseconds, of n Lock
// requests for a lock the client already holds, over a real TCP
// connection to a server in this process.
func microRTT(n int) (float64, error) {
	cfg := core.DefaultConfig()
	store := storage.NewMemStore(pageSize)
	p, err := store.Allocate()
	if err != nil {
		return 0, err
	}
	if _, _, err := p.Insert(make([]byte, objSize)); err != nil {
		return 0, err
	}
	if err := store.Write(p); err != nil {
		return 0, err
	}
	engine := core.NewServer(cfg, store, wal.NewMemStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("micro rtt: listen: %w", err)
	}
	srv := netrpc.Serve(engine, ln)
	defer srv.Close()
	tr, err := netrpc.Dial(srv.Addr().String())
	if err != nil {
		return 0, fmt.Errorf("micro rtt: dial: %w", err)
	}
	defer tr.Close()
	c, err := core.NewClient(cfg, tr, wal.NewMemStore(0))
	if err != nil {
		return 0, fmt.Errorf("micro rtt: register: %w", err)
	}
	tr.SetLocal(c)
	req := msg.LockReq{Client: c.ID(), Name: lock.ObjName(page.ObjectID{Page: p.ID(), Slot: 0}), Mode: lock.S}
	durs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := tr.Lock(req); err != nil {
			return 0, fmt.Errorf("micro rtt: lock: %w", err)
		}
		durs = append(durs, int64(time.Since(t0)))
	}
	return float64(quantile(sortInts(durs), 0.5)) / 1e3, nil
}
