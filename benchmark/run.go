package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupRepeats is how many times a run builds its system; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 5

// victim is the client that crashes in crash-recover.
const victim = 1

// options are the knobs of a run that are not part of its definition.
type options struct {
	spans string // file the traced run writes its spans to ("" = none)
	// smoke shrinks everything that is a fixed amount of work rather than
	// a share of -seconds, for the tier-1 test: one build, one crash-recover
	// cycle per measurement, short reference slices, 1% of the
	// microbenchmark iterations.
	smoke bool
}

// The fixed amounts of a full run and of a smoke run.
func (o options) setups() int {
	if o.smoke {
		return 1
	}
	return setupRepeats
}

func (o options) microScale() float64 {
	if o.smoke {
		return 0.01
	}
	return 1
}

func (o options) refSlice() time.Duration {
	if o.smoke {
		return time.Millisecond
	}
	return refSliceLen
}

// spanCap returns the capacity of a span buffer that holds n spans in a
// full run.
func (o options) spanCap(n int) int {
	if o.smoke {
		return n / 8
	}
	return n
}

// cycles returns how many crash-recover cycles a measurement makes: the
// given count (0: as many as fit the time), or one in a smoke run.
func (o options) cycles(count int) int {
	if o.smoke {
		return 1
	}
	return count
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	AckedLost int                `json:"acked_lost"`
	FirstFail string             `json:"first_failure,omitempty"`
	Samples   map[string]int     `json:"samples"` // how many samples stand behind the medians
	Metrics   map[string]float64 `json:"metrics"`
	// Raw holds what the clock itself read, before anything was put at
	// reference speed, and the mean speeds that were applied.
	Raw   map[string]float64 `json:"raw,omitempty"`
	Rates []float64          `json:"window_rates,omitempty"` // commits/s of each window or cycle, at reference speed
	// RestartMs holds crash-recover's raw restart times, client then
	// server for each cycle.
	RestartMs []float64 `json:"restart_ms,omitempty"`
	WallS     float64   `json:"wall_s"`
}

// warmupFor returns the timed warm-up that precedes a measurement: long
// enough for the bounded private logs to reach their §3.6 steady state.
func warmupFor(seconds float64) time.Duration {
	if seconds >= 8 {
		return 2 * time.Second
	}
	return secs(seconds / 4)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// heapAfterGC returns the live heap after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setups are the timed builds of one run.
type setups struct {
	ref     *reference
	seconds []float64 // at reference speed
	raw     []float64 // as the clock read them
}

// build times one build.
func (su *setups) build(w *workload, seed int64, tr *tracer) (*instance, error) {
	var in *instance
	var err error
	var d time.Duration
	speed := su.ref.around(func() {
		t0 := time.Now()
		in, err = build(w, seed, tr)
		d = time.Since(t0)
	})
	if err != nil {
		return nil, fmt.Errorf("set-up %d: %w", len(su.seconds)+1, err)
	}
	su.raw = append(su.raw, d.Seconds())
	su.seconds = append(su.seconds, d.Seconds()*speed)
	return in, nil
}

// buildTimed builds the workload's system `repeats` times and returns the
// last instance.
func buildTimed(w *workload, seed int64, tr *tracer, repeats int, ref *reference) (*instance, *setups, error) {
	var in *instance
	su := &setups{ref: ref}
	for k := 0; k < repeats; k++ {
		if in != nil {
			in.close()
		}
		var err error
		if in, err = su.build(w, seed, tr); err != nil {
			return nil, nil, err
		}
	}
	return in, su, nil
}

// window accumulates one window (a second of a throughput run, a whole
// cycle of crash-recover).  Load is added as the clock reads it; the end of
// each stretch puts what was added since at the machine's speed.
type window struct {
	commits uint64
	seconds float64 // timed time, at reference speed
	cpuUs   float64 // process CPU time over it, at reference speed
	lat     []int64 // every transaction latency, ns; the first `scaled` at reference speed

	// The stretch in progress, as the clock reads it.
	elapsed time.Duration
	cpu     time.Duration
	scaled  int
}

// measured is the load a run's numbers come from, in a shape both kinds of
// workload fill: each window's commit rate, latency percentiles and CPU
// time per commit, at reference speed, and totals over the timed stretches.
type measured struct {
	ref *reference
	// One value per window (or cycle), at reference speed.
	rates []float64 // commits/s
	p50s  []float64 // median transaction latency, µs
	p99s  []float64 // 99th percentile transaction latency, µs
	cpus  []float64 // process CPU time per commit, µs
	win   window    // the window being filled

	heapBase   uint64    // live heap before the system was built
	heap       []float64 // live heap over heapBase, one reading per window, bytes
	samples    int       // transaction latencies behind p50s and p99s
	commits    uint64
	aborts     uint64
	deadlocks  uint64
	timeouts   uint64
	failed     uint64
	firstErr   error
	reads      uint64
	writes     uint64
	txnNs      int64
	sleepNs    int64
	delta      counters
	elapsed    time.Duration // the timed stretches as the clock read them
	refSeconds float64       // the same stretches at reference speed
	// crash-recover only, as the clock read them
	restartClientMs []float64
	restartServerMs []float64
}

// newMeasured reads the heap baseline: what the process holds before the
// system is built.  The window's latency buffer is the benchmark's, so it
// is allocated first.
func newMeasured(ref *reference) *measured {
	m := &measured{ref: ref}
	m.win.lat = make([]int64, 0, 1<<18)
	m.heapBase = heapAfterGC()
	return m
}

// speed is the mean machine speed over the timed stretches.
func (m *measured) speed() float64 {
	if m.elapsed == 0 {
		return 1
	}
	return m.refSeconds / m.elapsed.Seconds()
}

// rawRate is the commit rate over the timed stretches as the clock read it.
func (m *measured) rawRate() float64 { return ratio(float64(m.commits), m.elapsed.Seconds()) }

// addPhase adds a phase to the totals and to the open window.
func (m *measured) addPhase(r *phaseResult) {
	for i := range r.clients {
		c := &r.clients[i]
		m.win.lat = append(m.win.lat, c.lat...)
		m.win.commits += c.commits
		m.commits += c.commits
		m.aborts += c.aborts
		m.deadlocks += c.deadlocks
		m.timeouts += c.timeouts
		m.failed += c.failed
		if m.firstErr == nil {
			m.firstErr = c.firstErr
		}
		m.reads += c.reads
		m.writes += c.writes
		m.txnNs += c.txnNs
		m.sleepNs += c.sleepNs
	}
	m.add(r.elapsed, r.delta)
}

// add counts a stretch of timed time.
func (m *measured) add(d time.Duration, delta counters) {
	m.delta = m.delta.add(delta)
	m.elapsed += d
	m.win.elapsed += d
	m.win.cpu += delta.cpu
}

// timed runs f as timed time of the open window.
func (m *measured) timed(in *instance, f func() error) (time.Duration, error) {
	before := in.counters()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	m.add(d, in.counters().sub(before))
	return d, err
}

// stretch runs f, which adds load to the open window, between two
// measurements of the reference, and puts what f added at the speed the
// machine had meanwhile.
func (m *measured) stretch(f func()) {
	speed := m.ref.around(f)
	w := &m.win
	seconds := w.elapsed.Seconds() * speed
	w.seconds += seconds
	w.cpuUs += float64(w.cpu) / 1e3 * speed
	for i := w.scaled; i < len(w.lat); i++ {
		w.lat[i] = int64(float64(w.lat[i]) * speed)
	}
	w.elapsed, w.cpu, w.scaled = 0, 0, len(w.lat)
	m.refSeconds += seconds
}

// closeWindow records the open window's rate, latency percentiles and CPU
// time per commit, and opens the next.
func (m *measured) closeWindow() {
	w := &m.win
	sortInts(w.lat)
	m.rates = append(m.rates, ratio(float64(w.commits), w.seconds))
	m.p50s = append(m.p50s, float64(quantile(w.lat, 0.50))/1e3)
	m.p99s = append(m.p99s, float64(quantile(w.lat, 0.99))/1e3)
	m.cpus = append(m.cpus, ratio(w.cpuUs, float64(w.commits)))
	m.samples += len(w.lat)
	m.win = window{lat: w.lat[:0]}
}

// sampleHeap reads the live heap after a forced collection.
func (m *measured) sampleHeap() {
	m.heap = append(m.heap, float64(heapAfterGC())-float64(m.heapBase))
}

// verify reads objects [lo, hi) back through client ci, untraced: the
// read-back is the benchmark's own work, not the workload's.
func (in *instance) verify(ci, lo, hi int, where string, chk *checkResult) {
	in.tr.pause(true)
	defer in.tr.pause(false)
	in.led.verify(in.clients[ci], in.ids, lo, hi, where, chk)
}

// measureThroughput warms a throughput instance up and measures it:
// numWindows windows over `dur`, or, for the traced run, the workload's fixed
// transaction count (capped at `dur`) as one window.  Before each window,
// while no client runs, the live heap is read (the forced collection also
// starts every window from the same collector state); the reference is
// measured before and after it.
func measureThroughput(in *instance, m *measured, dur, warm time.Duration, fixed bool) {
	in.drive(phase{dur: warm}, 0)
	in.tr.reset()
	windows, ph, latCap := 1, phase{dur: dur, txns: in.w.tracedTxns, record: true}, in.w.tracedTxns
	if !fixed {
		windows, ph = numWindows, phase{dur: dur / numWindows, record: true}
		latCap = int(ph.dur.Seconds()*100_000) + 1024
	}
	for i := 0; i < windows; i++ {
		m.sampleHeap()
		m.stretch(func() { m.addPhase(in.drive(ph, latCap)) })
		m.closeWindow()
	}
}

// cycle runs one crash-recover cycle on a freshly built instance: fixed
// sequential load, crash and restart of the victim client (§3.3),
// replacement of every cached page so the freshest copies live only in the
// server's buffer, crash and restart of the server (§3.4, the clients redo
// in parallel), with a read-back after each restart.  The read-backs are
// the benchmark's own work and are not timed.
func (in *instance) cycle(m *measured, chk *checkResult, n int) error {
	w := in.w
	perClient := w.pages / numClients
	half := perClient * objsPerPage
	// In a traced run each restart is a span, carrying the log records
	// read while it ran.
	vb, sb := in.tr.clientBuf(victim), in.tr.serverBuf()
	var d time.Duration
	var err error

	// The cycle is two stretches, each with the reference measured around
	// it: the load is over in a twentieth of a second and a read-back lies
	// between it and the server restart, time enough for the machine to
	// change (one speed for the whole cycle left txn_p50_us spreading by
	// 0.11-0.16 over ten seeds where commits_per_s spread by 0.06-0.08).
	m.stretch(func() {
		m.addPhase(in.drive(phase{txns: w.cycleTxns, sequential: true, record: true}, w.cycleTxns))
		in.crashClient(victim)
		d, err = m.timed(in, func() error {
			o, reads := vb.enter(), in.tr.reads()
			err := in.restartClient(victim)
			vb.leave(o, layCore, nmRestartClient, int(in.tr.reads()-reads), err)
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("cycle %d: restart client: %w", n, err)
	}
	m.restartClientMs = append(m.restartClientMs, float64(d)/1e6)
	in.verify(victim, victim*half, (victim+1)*half, fmt.Sprintf("cycle %d after client restart", n), chk)

	m.stretch(func() {
		if _, err = m.timed(in, func() error {
			for i, c := range in.clients {
				for _, pid := range in.ids[i*perClient : (i+1)*perClient] {
					if err := c.ReplacePage(pid); err != nil {
						return fmt.Errorf("replace pages: %w", err)
					}
				}
			}
			return nil
		}); err != nil {
			return
		}
		in.crashServer()
		d, err = m.timed(in, func() error {
			o, reads := sb.enter(), in.tr.reads()
			err := in.restartServer()
			sb.leave(o, layCore, nmRestartServer, int(in.tr.reads()-reads), err)
			if err != nil {
				err = fmt.Errorf("restart server: %w", err)
			}
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("cycle %d: %w", n, err)
	}
	m.restartServerMs = append(m.restartServerMs, float64(d)/1e6)
	for i := range in.clients {
		in.verify(i, i*half, (i+1)*half, fmt.Sprintf("cycle %d after server restart", n), chk)
	}
	// A cycle is crash-recover's window: its rate is the goodput across
	// the load and both outages.
	m.closeWindow()
	m.sampleHeap()
	return nil
}

// measureCycles runs crash-recover cycles until `dur` has passed (at least
// minCycles), or exactly `count` cycles when count > 0.  Every cycle gets a
// freshly built instance, on a seed of its own: on one long-lived cluster
// nothing ever retires a page that every cycle rewrites, the private logs
// only grow, and each restart is slower than the last (server restart 1.0 s
// to 3.8 s over seven cycles in a probe), so a run's median would depend on
// how many cycles the machine got through.  The builds are the run's
// set-up samples.
func measureCycles(w *workload, seed int64, tr *tracer, m *measured, su *setups, dur time.Duration, count int, chk *checkResult) error {
	const minCycles = 3
	start := time.Now()
	for n := 1; ; n++ {
		if count > 0 && n > count {
			return nil
		}
		if count == 0 && n > minCycles && time.Since(start) >= dur {
			return nil
		}
		in, err := su.build(w, seed*1_000_003+int64(n), tr)
		if err != nil {
			return err
		}
		err = in.cycle(m, chk, n)
		in.close()
		if err != nil {
			return err
		}
	}
}

// finalCheck reads every object back through client 0 once the load has
// stopped.
func finalCheck(in *instance, chk *checkResult) {
	in.verify(0, 0, in.w.pages*objsPerPage, "final read-back", chk)
}

// runWorkload is one run of one workload: the end-to-end metrics with
// the decorators absent, or the per-layer metrics from a traced run.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, opt options) (*runResult, error) {
	t0 := time.Now()
	if opt.smoke {
		small := *w
		small.primeTxns /= 4
		w = &small
	}
	res := &runResult{
		Workload: w.name, Traced: traced, Seed: seed, Seconds: seconds,
		Samples: map[string]int{}, Metrics: map[string]float64{},
	}
	chk := &checkResult{}
	var m *measured
	var err error
	if traced {
		m, err = runTraced(w, seed, seconds, opt, res, chk)
	} else {
		m, err = runUntraced(w, seed, seconds, opt, res, chk)
	}
	if err != nil {
		return nil, err
	}
	res.AckedLost = chk.lost
	res.Attempted = int(m.commits+m.failed) + chk.checked
	res.Failed = int(m.failed) + chk.bad + chk.lost
	res.Correct = res.Failed == 0
	res.FirstFail = chk.first
	if res.FirstFail == "" && m.firstErr != nil {
		res.FirstFail = m.firstErr.Error()
	}
	res.WallS = time.Since(t0).Seconds()
	return res, nil
}

func runUntraced(w *workload, seed int64, seconds float64, opt options, res *runResult, chk *checkResult) (*measured, error) {
	ref := newReference(opt.refSlice())
	m := newMeasured(ref)
	if w.recovers() {
		if err := warmCycle(w, seed, opt, ref, chk); err != nil {
			return nil, err
		}
		su := &setups{ref: ref}
		if err := measureCycles(w, seed, nil, m, su, secs(seconds), opt.cycles(0), chk); err != nil {
			return nil, err
		}
		endToEnd(res, m, su)
		return m, nil
	}
	in, su, err := buildTimed(w, seed, nil, opt.setups(), ref)
	if err != nil {
		return nil, err
	}
	defer in.close()
	measureThroughput(in, m, secs(seconds), warmupFor(seconds), false)
	finalCheck(in, chk)
	endToEnd(res, m, su)
	return m, nil
}

// warmCycle runs one unmeasured crash-recover cycle, on a seed of its own,
// so the first measured cycle does not pay for a cold process.
func warmCycle(w *workload, seed int64, opt options, ref *reference, chk *checkResult) error {
	if opt.smoke {
		return nil
	}
	return measureCycles(w, seed-1, nil, newMeasured(ref), &setups{ref: ref}, 0, 1, chk)
}

// runTraced makes the per-layer run: a short untraced measurement for the
// base rate, then the same workload and seed with the decorators installed
// and a fixed amount of work, then the layer microbenchmarks.
func runTraced(w *workload, seed int64, seconds float64, opt options, res *runResult, chk *checkResult) (*measured, error) {
	ref := newReference(opt.refSlice())
	base, tm := newMeasured(ref), newMeasured(ref)
	// A transaction leaves about 25 client-side spans; the traced run is a
	// fixed amount of work, so the buffers are sized to hold all of it.
	tr := newTracer(opt.spanCap(3<<20), opt.spanCap(1<<20))
	if w.recovers() {
		if err := warmCycle(w, seed, opt, ref, chk); err != nil {
			return nil, err
		}
		if err := measureCycles(w, seed, nil, base, &setups{ref: ref}, secs(seconds/4), opt.cycles(0), chk); err != nil {
			return nil, err
		}
		if err := measureCycles(w, seed, tr, tm, &setups{ref: ref}, 0, opt.cycles(w.tracedCycles), chk); err != nil {
			return nil, err
		}
	} else {
		warm := warmupFor(seconds)
		in, _, err := buildTimed(w, seed, nil, 1, ref)
		if err != nil {
			return nil, err
		}
		measureThroughput(in, base, secs(seconds/4), warm, false)
		in.close()
		if in, _, err = buildTimed(w, seed, tr, 1, ref); err != nil {
			return nil, err
		}
		defer in.close()
		measureThroughput(in, tm, secs(seconds/2), warm, true)
		tr.pause(true)
		finalCheck(in, chk)
	}
	micro, err := runMicro(opt.microScale())
	if err != nil {
		return nil, err
	}
	perLayer(res, w, summarize(tr), tm, base, micro, chk, tr.dropped())
	if opt.spans != "" {
		if err := writeSpans(opt.spans, tr); err != nil {
			return nil, err
		}
	}
	// Totals for the caller cover both measurements.
	tm.commits += base.commits
	tm.failed += base.failed
	if tm.firstErr == nil {
		tm.firstErr = base.firstErr
	}
	return tm, nil
}
