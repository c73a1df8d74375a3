package main

import (
	"errors"
	"runtime"
	"sync"
	"syscall"
	"time"

	"clientlog/internal/lock"
	"clientlog/internal/netrpc"
	"clientlog/internal/page"
)

// clientState is one client's side of the closed loop.  It lives as long
// as the instance, so commit sequence numbers and the ledger carry across
// priming, warm-up, measurement and restarts.
type clientState struct {
	idx  int
	g    *gen
	back rng    // back-off jitter
	seq  uint64 // last commit sequence number issued
	nops int
	ops  [opsPerTxn]op
	val  [objSize]byte
}

// phase says how long one stretch of load runs and what it keeps.
type phase struct {
	dur        time.Duration // stop once this much time has passed (0: no limit)
	txns       int           // stop after this many commits per client (0: no limit)
	record     bool          // keep every transaction's latency
	sequential bool          // clients take turns instead of running concurrently
}

// clientResult is what one client did in one phase.
type clientResult struct {
	commits   uint64
	aborts    uint64 // attempts ended by deadlock or lock timeout, then retried
	deadlocks uint64
	timeouts  uint64
	failed    uint64 // transactions given up on any other error
	firstErr  error
	reads     uint64 // operations of committed transactions
	writes    uint64
	txnNs     int64 // first Begin to successful Commit, retries included
	sleepNs   int64 // of which asleep in retry back-off
	lat       []int64
}

// retryable reports whether the transaction was a deadlock or timeout
// victim: the benchmark aborts and retries those.  Anything else is a
// failed operation.
func retryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout)
}

// yieldRetries is how many retries of one transaction only yield.
const yieldRetries = 6

// backoff waits before retry number `attempt` of a transaction and returns
// the time it slept.  The first yieldRetries retries only yield the
// processor: the victim's abort has already released its locks, so the
// other side can proceed, and on the loopback workloads a transaction is
// shorter than the shortest sleep the kernel gives.  Later retries sleep a
// seeded, jittered 10-60 µs.  It is short on purpose: with the simulator's
// 1-64 ms back-off a workload that aborts 1% of its attempts spends most of
// its time asleep; here sleeping stays under 5% of client time on every
// workload (bench.backoff_share).
func (cs *clientState) backoff(attempt int) time.Duration {
	if attempt <= yieldRetries {
		for i := 0; i < attempt; i++ {
			runtime.Gosched()
		}
		return 0
	}
	t0 := time.Now()
	time.Sleep(time.Duration(10+cs.back.intn(50)) * time.Microsecond)
	return time.Since(t0)
}

// attempt runs the drawn operations as one transaction.  b is the
// client's span buffer in a traced run, nil otherwise.
func (cs *clientState) attempt(in *instance, b *spanBuf) error {
	c := in.clients[cs.idx]
	o := b.enter()
	t, err := c.Begin()
	b.leave(o, layCore, nmBegin, 0, err)
	if err != nil {
		return err
	}
	for _, op := range cs.ops[:cs.nops] {
		obj := page.ObjectID{Page: in.ids[op.obj/objsPerPage], Slot: uint16(op.obj % objsPerPage)}
		o = b.enter()
		name := nmRead
		if op.write {
			name = nmWrite
			err = t.Overwrite(obj, cs.val[:])
		} else {
			_, err = t.Read(obj)
		}
		b.leave(o, layCore, name, 0, err)
		if err != nil {
			break
		}
	}
	if err == nil {
		o = b.enter()
		err = t.Commit()
		b.leave(o, layCore, nmCommit, 0, err)
		if err == nil {
			return nil
		}
	}
	o = b.enter()
	aerr := t.Abort()
	b.leave(o, layCore, nmAbort, 0, aerr)
	return err
}

// run is one client's closed loop for one phase.
func (cs *clientState) run(in *instance, ph phase, start time.Time, res *clientResult) {
	b := in.tr.clientBuf(cs.idx)
	var deadline time.Time
	if ph.dur > 0 {
		deadline = start.Add(ph.dur)
	}
	t0 := time.Now()
	for {
		if ph.txns > 0 && res.commits >= uint64(ph.txns) {
			break
		}
		if ph.dur > 0 && !t0.Before(deadline) {
			break
		}
		cs.g.fill(cs.ops[:cs.nops])
		cs.seq++
		putValue(cs.val[:], uint32(cs.idx+1), cs.seq)
		txn := b.enter()
		var err error
		var slept time.Duration
		for attempt := 1; ; attempt++ {
			err = cs.attempt(in, b)
			if err == nil || !retryable(err) {
				break
			}
			res.aborts++
			if errors.Is(err, lock.ErrDeadlock) {
				res.deadlocks++
			} else {
				res.timeouts++
			}
			o := b.enter()
			slept += cs.backoff(attempt)
			b.leave(o, layCore, nmBackoff, 0, nil)
		}
		t1 := time.Now()
		b.leave(txn, layCore, nmTxn, 0, err)
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			t0 = t1
			continue
		}
		in.led.ack(cs.idx, cs.seq, cs.ops[:cs.nops])
		res.commits++
		for _, op := range cs.ops[:cs.nops] {
			if op.write {
				res.writes++
			} else {
				res.reads++
			}
		}
		d := t1.Sub(t0)
		res.txnNs += int64(d)
		res.sleepNs += int64(slept)
		if ph.record {
			res.lat = append(res.lat, int64(d))
		}
		t0 = t1
	}
}

// counters are the process- and instance-wide counts read around a phase.
type counters struct {
	msgs, wireBytes     uint64 // the transport in use (instance.traffic)
	netFrames, netBytes uint64 // netrpc.Metrics, whatever the transport: 0 on loopback
	logBytes            uint64
	merges              uint64
	mallocs             uint64
	cpu                 time.Duration
}

func (in *instance) counters() counters {
	var c counters
	c.msgs, c.wireBytes = in.traffic()
	c.netFrames, c.netBytes = netrpc.Metrics.FramesSent.Load(), netrpc.Metrics.BytesSent.Load()
	c.logBytes = in.logBytes()
	c.merges = in.merges()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.cpu = cpuTime()
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		msgs: c.msgs - o.msgs, wireBytes: c.wireBytes - o.wireBytes,
		netFrames: c.netFrames - o.netFrames, netBytes: c.netBytes - o.netBytes,
		logBytes: c.logBytes - o.logBytes, merges: c.merges - o.merges,
		mallocs: c.mallocs - o.mallocs, cpu: c.cpu - o.cpu,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		msgs: c.msgs + o.msgs, wireBytes: c.wireBytes + o.wireBytes,
		netFrames: c.netFrames + o.netFrames, netBytes: c.netBytes + o.netBytes,
		logBytes: c.logBytes + o.logBytes, merges: c.merges + o.merges,
		mallocs: c.mallocs + o.mallocs, cpu: c.cpu + o.cpu,
	}
}

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseResult is a finished phase: per-client results and the counter
// deltas across it.
type phaseResult struct {
	clients [numClients]clientResult
	delta   counters
	elapsed time.Duration
}

// drive runs one phase on every client and returns when all have stopped,
// so counters are read while nothing runs.
func (in *instance) drive(ph phase, latCap int) *phaseResult {
	res := &phaseResult{}
	if ph.record {
		for i := range res.clients {
			res.clients[i].lat = make([]int64, 0, latCap)
		}
	}
	before := in.counters()
	start := time.Now()
	if ph.sequential {
		for i, cs := range in.cs {
			cs.run(in, ph, time.Now(), &res.clients[i])
		}
	} else {
		var wg sync.WaitGroup
		for i, cs := range in.cs {
			wg.Add(1)
			go func(i int, cs *clientState) {
				defer wg.Done()
				cs.run(in, ph, start, &res.clients[i])
			}(i, cs)
		}
		wg.Wait()
	}
	res.elapsed = time.Since(start)
	res.delta = in.counters().sub(before)
	return res
}

// prime commits the workload's fixed priming count on every client, so
// that set-up ends with caches and lock tables populated.
func (in *instance) prime(seed int64) error {
	w := in.w
	in.led = newLedger(w.pages)
	for i := range in.cs {
		cs := &clientState{
			idx:  i,
			g:    newGen(seed, i, numClients, w.pages, w.dist, w.theta, w.readPct),
			back: rng{s: uint64(seed)*31 + uint64(i) + 7},
			nops: opsPerTxn,
		}
		if w.recovers() {
			cs.nops = w.cycleWrites
		}
		in.cs[i] = cs
	}
	res := in.drive(phase{txns: w.primeTxns, sequential: w.recovers()}, 0)
	for i := range res.clients {
		if err := res.clients[i].firstErr; err != nil {
			return err
		}
	}
	return nil
}
