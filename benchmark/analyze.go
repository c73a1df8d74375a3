package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// agg sums the spans of one (layer, name).
type agg struct {
	count int64
	ns    int64
	n     int64 // sum of the spans' n field (bytes, pages, items)
	durs  []int64
}

// traceSummary is what the analysis needs from the span buffers.
type traceSummary struct {
	by       [numLayers][numSpanNames]agg
	txnNs    int64 // sum of transaction spans
	childNs  int64 // RPC, client-log and back-off spans directly under a core span
	restarts []restartCounts
}

// restartCounts are the exact counts of one restart, taken from the spans
// that started while it ran.
type restartCounts struct {
	server       bool
	rpcs         int
	callbacks    int
	logReads     int
	pagesFetched int
	storageReads int
}

func (s *traceSummary) layerCount(l layer, names ...spanName) (count, ns int64) {
	for _, n := range names {
		count += s.by[l][n].count
		ns += s.by[l][n].ns
	}
	return
}

func (s *traceSummary) layerTotal(l layer) (count, ns int64) {
	for n := range s.by[l] {
		count += s.by[l][n].count
		ns += s.by[l][n].ns
	}
	return
}

// summarize folds every buffer.  A layer's self time is its span minus
// the child spans it covers: for core that is the transaction span less the
// RPC, client-log and back-off spans whose parent is a core span (a log
// call made inside an RPC is already covered by the RPC).
func summarize(t *tracer) *traceSummary {
	s := &traceSummary{}
	keep := func(l layer, n spanName) bool { // spans whose percentiles are reported
		switch l {
		case layCore:
			return n == nmBegin || n == nmRead || n == nmWrite || n == nmCommit
		case layMsg:
			return n == nmLock
		case layCallback:
			return n == nmCallbackObject || n == nmDeescalatePage
		case layClientWAL:
			return n == nmFlush
		case layStorage:
			return n == nmStoreRead
		}
		return false
	}
	bufs := append([]*spanBuf{t.server}, t.client[:]...)
	for _, b := range bufs {
		spans := b.recorded()
		for i := range spans {
			sp := &spans[i]
			a := &s.by[sp.layer][sp.name]
			a.count++
			a.ns += sp.dur
			a.n += int64(sp.n)
			if keep(sp.layer, sp.name) {
				a.durs = append(a.durs, sp.dur)
			}
			if sp.layer == layCore && sp.name == nmTxn {
				s.txnNs += sp.dur
			}
			child := sp.layer == layMsg || sp.layer == layClientWAL || (sp.layer == layCore && sp.name == nmBackoff)
			if child && sp.parent >= 0 && spans[sp.parent].layer == layCore {
				s.childNs += sp.dur
			}
		}
	}
	// Restarts: count what started inside each restart span.
	for _, b := range bufs {
		for _, r := range b.recorded() {
			if r.layer != layCore || (r.name != nmRestartClient && r.name != nmRestartServer) {
				continue
			}
			rc := restartCounts{server: r.name == nmRestartServer, logReads: int(r.n)}
			lo, hi := r.start, r.start+r.dur
			for _, ob := range bufs {
				for _, sp := range ob.recorded() {
					if sp.start < lo || sp.start > hi {
						continue
					}
					switch sp.layer {
					case layMsg:
						rc.rpcs++
						if sp.name == nmFetch || sp.name == nmFetchBatch || sp.name == nmRecoveryFetch {
							rc.pagesFetched += int(sp.n)
						}
					case layCallback:
						rc.callbacks++
					case layStorage:
						if sp.name == nmStoreRead {
							rc.storageReads++
						}
					}
				}
			}
			s.restarts = append(s.restarts, rc)
		}
	}
	return s
}

func p(a *agg, q float64) float64 { return float64(quantile(sortInts(a.durs), q)) / 1e3 }

// medianOf returns the median of f over the restarts of one kind.
func (s *traceSummary) medianOf(server bool, f func(restartCounts) int) float64 {
	var v []float64
	for _, r := range s.restarts {
		if r.server == server {
			v = append(v, float64(f(r)))
		}
	}
	return median(v)
}

func maxOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// perLayer fills a traced run's per-layer metrics: tm is the traced
// measurement, base the untraced one made in the same run.
func perLayer(res *runResult, w *workload, s *traceSummary, tm, base *measured, micro map[string]float64, chk *checkResult, dropped int64) {
	M := res.Metrics
	commits := float64(tm.commits)
	per := func(x int64) float64 { return ratio(float64(x), commits) }
	us := func(ns int64) float64 { return ratio(float64(ns)/1e3, commits) }
	txnNs := float64(s.txnNs)

	core := &s.by[layCore]
	M["core.begin_us_p50"] = p(&core[nmBegin], 0.5)
	M["core.read_us_p50"] = p(&core[nmRead], 0.5)
	M["core.write_us_p50"] = p(&core[nmWrite], 0.5)
	M["core.commit_us_p50"] = p(&core[nmCommit], 0.5)
	M["core.commit_us_p99"] = p(&core[nmCommit], 0.99)
	M["core.self_us_per_commit"] = us(s.txnNs - s.childNs)
	M["core.retries_per_commit"] = ratio(float64(tm.aborts), commits)
	M["core.abort_share"] = ratio(float64(tm.aborts), float64(tm.aborts+tm.commits+tm.failed))
	M["core.recover_client_ms_p50"] = median(tm.restartClientMs)
	M["core.recover_client_ms_max"] = maxOf(tm.restartClientMs)
	M["core.recover_server_ms_p50"] = median(tm.restartServerMs)
	M["core.recover_server_ms_max"] = maxOf(tm.restartServerMs)
	M["core.recover_client_rpcs"] = s.medianOf(false, func(r restartCounts) int { return r.rpcs })
	M["core.recover_client_log_reads"] = s.medianOf(false, func(r restartCounts) int { return r.logReads })
	M["core.recover_client_pages_fetched"] = s.medianOf(false, func(r restartCounts) int { return r.pagesFetched })
	M["core.recover_server_rpcs"] = s.medianOf(true, func(r restartCounts) int { return r.rpcs })
	M["core.recover_server_callbacks"] = s.medianOf(true, func(r restartCounts) int { return r.callbacks })
	M["core.recover_server_log_reads"] = s.medianOf(true, func(r restartCounts) int { return r.logReads })
	M["core.recover_server_storage_reads"] = s.medianOf(true, func(r restartCounts) int { return r.storageReads })

	rpc := &s.by[layMsg]
	lockN, lockNs := s.layerCount(layMsg, nmLock, nmLockBatch, nmUnlock)
	cbN, _ := s.layerCount(layCallback, nmCallbackObject, nmDeescalatePage)
	cb := agg{durs: append(append([]int64(nil), s.by[layCallback][nmCallbackObject].durs...), s.by[layCallback][nmDeescalatePage].durs...)}
	M["lock.lock_rpcs_per_commit"] = per(lockN)
	M["lock.lock_rpc_us_p50"] = p(&rpc[nmLock], 0.5)
	M["lock.lock_rpc_us_p99"] = p(&rpc[nmLock], 0.99)
	M["lock.wait_share"] = ratio(float64(lockNs), txnNs)
	M["lock.callbacks_per_commit"] = per(cbN)
	M["lock.callback_us_p50"] = p(&cb, 0.5)
	M["lock.deadlocks_per_commit"] = ratio(float64(tm.deadlocks), commits)
	M["lock.timeouts_per_commit"] = ratio(float64(tm.timeouts), commits)

	rpcN, rpcNs := s.layerTotal(layMsg)
	cbAllN, _ := s.layerTotal(layCallback)
	fetchPages := rpc[nmFetch].n + rpc[nmFetchBatch].n + rpc[nmRecoveryFetch].n
	M["msg.rpcs_per_commit"] = per(rpcN + cbAllN)
	M["msg.fetch_rpcs_per_commit"] = per(rpc[nmFetch].count + rpc[nmFetchBatch].count)
	M["msg.ship_rpcs_per_commit"] = per(rpc[nmShip].count)
	M["msg.force_rpcs_per_commit"] = per(rpc[nmForce].count)
	M["msg.rpc_us_per_commit"] = us(rpcNs)
	M["msg.net_share"] = ratio(float64(rpcNs), txnNs)
	M["msg.msgs_per_commit"] = per(int64(tm.delta.msgs))
	M["msg.wire_bytes_per_commit"] = per(int64(tm.delta.wireBytes))
	M["netrpc.frames_per_commit"] = per(int64(tm.delta.netFrames))
	M["netrpc.bytes_per_commit"] = per(int64(tm.delta.netBytes))

	M["buffer.client_miss_per_commit"] = per(fetchPages)
	M["buffer.client_ships_per_commit"] = per(rpc[nmShip].count)
	M["buffer.client_hit_ratio"] = 1 - ratio(float64(fetchPages), float64(tm.reads+tm.writes))
	M["buffer.server_miss_per_commit"] = per(s.by[layStorage][nmStoreRead].count)

	M["page.merges_per_commit"] = per(int64(tm.delta.merges))

	cw := &s.by[layClientWAL]
	_, cwNs := s.layerTotal(layClientWAL)
	M["wal.client_appends_per_commit"] = per(cw[nmAppend].count)
	M["wal.client_bytes_per_commit"] = per(cw[nmAppend].n)
	M["wal.client_flushes_per_commit"] = per(cw[nmFlush].count)
	M["wal.client_flush_us_p50"] = p(&cw[nmFlush], 0.5)
	M["wal.client_us_per_commit"] = us(cwNs)
	sw := &s.by[layServerWAL]
	M["wal.server_appends_per_commit"] = per(sw[nmAppend].count)
	M["wal.server_bytes_per_commit"] = per(sw[nmAppend].n)
	M["wal.server_flushes_per_commit"] = per(sw[nmFlush].count)

	st := &s.by[layStorage]
	_, stNs := s.layerTotal(layStorage)
	M["storage.reads_per_commit"] = per(st[nmStoreRead].count)
	M["storage.writes_per_commit"] = per(st[nmStoreWrite].count)
	M["storage.read_us_p50"] = p(&st[nmStoreRead], 0.5)
	M["storage.us_per_commit"] = us(stNs)

	for k, v := range micro {
		M[k] = v
	}

	// The overhead is taken from the clock's own readings: the span buffers
	// make collections rarer, which speeds the reference up (reference.go),
	// so at reference speed the traced run would read slower than it was.
	M["bench.machine_speed"] = tm.speed()
	M["bench.trace_overhead_share"] = 1 - ratio(tm.rawRate(), base.rawRate())
	M["bench.window_spread"] = spread(base.rates)
	M["bench.backoff_share"] = ratio(float64(tm.sleepNs), float64(tm.txnNs))
	M["bench.acked_lost"] = float64(chk.lost)
	M["bench.failed_share"] = ratio(float64(tm.failed+base.failed)+float64(chk.bad+chk.lost), float64(tm.commits+tm.failed+base.commits+base.failed)+float64(chk.checked))
	M["bench.spans_dropped"] = float64(dropped)

	// Reconciliation: what a transaction should cost if it were nothing but
	// the layer micro costs times the per-commit counts the trace saw,
	// against the untraced median.  The remainder is reported, never hidden.
	ops := ratio(float64(tm.reads+tm.writes), commits)
	writes := ratio(float64(tm.writes), commits)
	rtt := micro["netrpc.rtt_us_p50"] * 1e3
	if !w.tcp {
		rtt = 0
	}
	model := ops*(micro["lock.llm_hit_ns"]+micro["buffer.get_hit_ns"]) +
		writes*micro["page.overwrite_ns"] +
		M["wal.client_appends_per_commit"]*(micro["wal.encode_ns"]+micro["wal.append_ns"]) +
		M["wal.client_flushes_per_commit"]*micro["wal.force_ns"] +
		M["lock.lock_rpcs_per_commit"]*(micro["lock.glm_grant_ns"]+rtt) +
		(M["msg.rpcs_per_commit"]-M["lock.lock_rpcs_per_commit"]-M["lock.callbacks_per_commit"])*rtt +
		M["lock.callbacks_per_commit"]*(micro["lock.glm_callback_us"]*1e3+rtt) +
		M["buffer.client_miss_per_commit"]*(micro["page.marshal_ns"]+micro["page.unmarshal_ns"]) +
		M["buffer.client_ships_per_commit"]*(micro["page.marshal_ns"]+micro["page.unmarshal_ns"]) +
		M["page.merges_per_commit"]*micro["page.merge_ns"] +
		M["storage.us_per_commit"]*1e3
	if w.tcp {
		model += (M["buffer.client_miss_per_commit"] + M["buffer.client_ships_per_commit"]) * micro["msg.codec_fetch_ns"]
	}
	// The micro costs are as the clock read them, so the median goes back
	// from reference speed to the clock's.
	p50 := median(base.p50s) / base.speed() * 1e3
	M["bench.unexplained_share"] = ratio(p50-model, p50)

	res.Samples["traced_commits"] = int(tm.commits)
	res.Samples["untraced_commits"] = int(base.commits)
	res.Samples["untraced_windows"] = len(base.rates)
	res.Samples["restarts"] = len(s.restarts)
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Client int    `json:"client"` // -1: server-side
		Index  int    `json:"index"`
		Parent int32  `json:"parent"`
		Layer  string `json:"layer"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		Dur    int64  `json:"dur_ns"`
		N      int32  `json:"n"`
		Flag   uint8  `json:"flag"`
	}
	write := func(client int, b *spanBuf) error {
		for i, sp := range b.recorded() {
			if err := enc.Encode(line{client, i, sp.parent, layerNames[sp.layer], spanNames[sp.name], sp.start, sp.dur, sp.n, sp.flag}); err != nil {
				return err
			}
		}
		return nil
	}
	err = write(-1, t.server)
	for i, b := range t.client {
		if err == nil {
			err = write(i, b)
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
