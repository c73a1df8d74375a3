package main

// metricDef defines one metric: BENCHMARK.json carries name, unit and
// direction (and the bound, for end-to-end metrics); the rest is the
// benchmark's own documentation, printed by -list and kept in README.md.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	micro  bool   // a direct timed call into one layer, the same for every workload
	what   string
	moves  string // per-layer: the end-to-end metric and workload it should move
}

// endToEndDefs are what a user of the system sees.  Every workload reports
// every one of them, measured with the decorators absent.
var endToEndDefs = []metricDef{
	{name: "commits_per_s", unit: "1/s", better: "higher", what: "commit rate at reference speed, median over the run's twenty windows (crash-recover: over its cycles, each cycle's rate being commits / (load + client restart + page replacement + server restart))"},
	{name: "txn_p50_us", unit: "us", better: "lower", what: "time from a transaction's first Begin to its successful Commit, deadlock retries and back-off included, at reference speed: exact median of every sample of a window, then the median over windows"},
	{name: "txn_p99_us", unit: "us", better: "lower", what: "99th percentile of the same samples within each window; median over windows"},
	{name: "cpu_us_per_commit", unit: "us", better: "lower", what: "process CPU time (user + system, all threads) per commit at reference speed, per window; median over windows"},
	{name: "allocs_per_commit", unit: "count", better: "lower", what: "heap allocations (runtime.MemStats.Mallocs) per commit, whole process"},
	{name: "log_bytes_per_user_byte", unit: "B/B", better: "lower", what: "bytes appended to all client logs and the server log per byte of committed user data written"},
	{name: "live_heap_mb", unit: "MB", better: "lower", what: "peak heap the built system retains: HeapAlloc after a forced collection, over the pre-build baseline, largest of the readings taken between windows (the bounded logs make it a sawtooth; the peak is its steady feature)"},
	{name: "setup_s", unit: "s", better: "lower", what: "median of 5 builds (crash-recover: of its per-cycle builds) at reference speed: devices, seeding, server, listen/dial, clients, and a fixed count of priming transactions"},
}

// perLayerDefs are the single-layer metrics of the traced run.  Prefix =
// module.  micro metrics time direct calls into the layer's exported
// functions on synthetic input; the others come from the decorators or
// from the program's always-on counters.
var perLayerDefs = []metricDef{
	// core
	{name: "core.begin_us_p50", unit: "us", better: "lower", what: "Client.Begin", moves: "txn_p50_us on private-local"},
	{name: "core.read_us_p50", unit: "us", better: "lower", what: "Txn.Read", moves: "txn_p50_us on hot-readmostly, private-local"},
	{name: "core.write_us_p50", unit: "us", better: "lower", what: "Txn.Overwrite", moves: "txn_p50_us, commits_per_s on private-local"},
	{name: "core.commit_us_p50", unit: "us", better: "lower", what: "Txn.Commit", moves: "txn_p50_us on private-local"},
	{name: "core.commit_us_p99", unit: "us", better: "lower", what: "Txn.Commit", moves: "txn_p99_us on private-local"},
	{name: "core.self_us_per_commit", unit: "us", better: "lower", what: "transaction time less its RPC, client-log and back-off child spans", moves: "txn_p50_us, commits_per_s on private-local (nearly the whole transaction there); little elsewhere"},
	{name: "core.retries_per_commit", unit: "count", better: "lower", what: "deadlock/timeout aborts retried, per commit", moves: "txn_p99_us, commits_per_s on shared-tcp, hot-readmostly"},
	{name: "core.abort_share", unit: "ratio", better: "lower", what: "aborted attempts / attempts (an end-to-end metric in the issue; 0 on two workloads, so reported here)", moves: "commits_per_s on shared-tcp"},
	{name: "core.recover_client_ms_p50", unit: "ms", better: "lower", what: "Cluster.RestartClient (§3.3), median over traced cycles", moves: "commits_per_s on crash-recover"},
	{name: "core.recover_client_ms_max", unit: "ms", better: "lower", what: "slowest RestartClient", moves: "commits_per_s on crash-recover"},
	{name: "core.recover_server_ms_p50", unit: "ms", better: "lower", what: "Cluster.RestartServer (§3.4), median over traced cycles", moves: "commits_per_s on crash-recover"},
	{name: "core.recover_server_ms_max", unit: "ms", better: "lower", what: "slowest RestartServer", moves: "commits_per_s on crash-recover"},
	{name: "core.recover_client_rpcs", unit: "count", better: "lower", what: "RPCs the restarting client sends, median cycle", moves: "core.recover_client_ms_p50"},
	{name: "core.recover_client_log_reads", unit: "count", better: "lower", what: "ReadAt calls on the restarting client's log", moves: "core.recover_client_ms_p50"},
	{name: "core.recover_client_pages_fetched", unit: "count", better: "lower", what: "pages fetched during client restart", moves: "core.recover_client_ms_p50"},
	{name: "core.recover_server_rpcs", unit: "count", better: "lower", what: "RPCs the clients send during server restart", moves: "core.recover_server_ms_p50"},
	{name: "core.recover_server_callbacks", unit: "count", better: "lower", what: "calls the restarting server makes to the clients", moves: "core.recover_server_ms_p50"},
	{name: "core.recover_server_log_reads", unit: "count", better: "lower", what: "ReadAt calls on all logs during server restart", moves: "core.recover_server_ms_p50"},
	{name: "core.recover_server_storage_reads", unit: "count", better: "lower", what: "storage reads during server restart", moves: "core.recover_server_ms_p50"},
	// lock
	{name: "lock.llm_hit_ns", unit: "ns", better: "lower", micro: true, what: "LLM.AcquireLocal on a cached name + ReleaseTxn", moves: "txn_p50_us on private-local, hot-readmostly"},
	{name: "lock.glm_grant_ns", unit: "ns", better: "lower", micro: true, what: "GLM.Acquire + Release, uncontended", moves: "commits_per_s on shared-tcp"},
	{name: "lock.glm_callback_us", unit: "us", better: "lower", micro: true, what: "GLM.Acquire that calls back one stub holder", moves: "txn_p99_us on hot-readmostly"},
	{name: "lock.lock_rpcs_per_commit", unit: "count", better: "lower", what: "Lock + LockBatch + Unlock RPCs", moves: "commits_per_s on shared-tcp"},
	{name: "lock.lock_rpc_us_p50", unit: "us", better: "lower", what: "Lock RPC as the client sees it", moves: "txn_p50_us on shared-tcp"},
	{name: "lock.lock_rpc_us_p99", unit: "us", better: "lower", what: "Lock RPC", moves: "txn_p99_us on shared-tcp, hot-readmostly"},
	{name: "lock.wait_share", unit: "ratio", better: "lower", what: "time in lock RPCs / transaction time", moves: "commits_per_s on shared-tcp"},
	{name: "lock.callbacks_per_commit", unit: "count", better: "lower", what: "CallbackObject + DeescalatePage calls", moves: "txn_p99_us on hot-readmostly; commits_per_s on shared-tcp"},
	{name: "lock.callback_us_p50", unit: "us", better: "lower", what: "one callback or de-escalation, as the server sees it", moves: "txn_p99_us on hot-readmostly"},
	{name: "lock.deadlocks_per_commit", unit: "count", better: "lower", what: "attempts ended by ErrDeadlock", moves: "commits_per_s on shared-tcp"},
	{name: "lock.timeouts_per_commit", unit: "count", better: "lower", what: "attempts ended by ErrTimeout", moves: "txn_p99_us everywhere (should be 0)"},
	// msg / netrpc
	{name: "msg.codec_lock_ns", unit: "ns", better: "lower", micro: true, what: "LockReq AppendWire + DecodeWire", moves: "commits_per_s on shared-tcp"},
	{name: "msg.codec_fetch_ns", unit: "ns", better: "lower", micro: true, what: "4 KiB FetchReply AppendWire + DecodeWire", moves: "commits_per_s on shared-tcp"},
	{name: "msg.codec_allocs", unit: "count", better: "lower", micro: true, what: "allocations of one LockReq encode + decode", moves: "allocs_per_commit on shared-tcp"},
	{name: "netrpc.rtt_us_p50", unit: "us", better: "lower", micro: true, what: "cheapest RPC over a real 127.0.0.1 connection", moves: "txn_p50_us, commits_per_s on shared-tcp"},
	{name: "msg.rpcs_per_commit", unit: "count", better: "lower", what: "calls in both directions seen by the decorators", moves: "commits_per_s on shared-tcp"},
	{name: "msg.fetch_rpcs_per_commit", unit: "count", better: "lower", what: "Fetch + FetchBatch RPCs", moves: "commits_per_s on shared-tcp"},
	{name: "msg.ship_rpcs_per_commit", unit: "count", better: "lower", what: "Ship RPCs", moves: "commits_per_s on shared-tcp"},
	{name: "msg.force_rpcs_per_commit", unit: "count", better: "lower", what: "Force RPCs (§3.6 log space)", moves: "commits_per_s on private-local"},
	{name: "msg.rpc_us_per_commit", unit: "us", better: "lower", what: "time in client->server RPCs", moves: "txn_p50_us on shared-tcp"},
	{name: "msg.net_share", unit: "ratio", better: "lower", what: "time in client->server RPCs / transaction time", moves: "commits_per_s on shared-tcp; ~0 on private-local"},
	{name: "msg.msgs_per_commit", unit: "count", better: "lower", what: "program's own counters: Cluster.Stats.Messages on loopback, netrpc frames sent on TCP (an end-to-end metric in the issue; 0 on private-local, so reported here)", moves: "commits_per_s on shared-tcp"},
	{name: "msg.wire_bytes_per_commit", unit: "B", better: "lower", what: "same sources, bytes", moves: "commits_per_s on shared-tcp"},
	{name: "netrpc.frames_per_commit", unit: "count", better: "lower", what: "netrpc.Metrics frames sent; 0 on loopback", moves: "commits_per_s on shared-tcp"},
	{name: "netrpc.bytes_per_commit", unit: "B", better: "lower", what: "netrpc.Metrics bytes sent; 0 on loopback", moves: "commits_per_s on shared-tcp"},
	// buffer
	{name: "buffer.get_hit_ns", unit: "ns", better: "lower", micro: true, what: "Pool.Get of a cached page", moves: "txn_p50_us on private-local"},
	{name: "buffer.put_evict_ns", unit: "ns", better: "lower", micro: true, what: "Pool.Put + EvictVictim on a full pool", moves: "commits_per_s on shared-tcp"},
	{name: "buffer.client_miss_per_commit", unit: "count", better: "lower", what: "pages fetched by clients", moves: "commits_per_s on shared-tcp; ~0 on the workloads that fit"},
	{name: "buffer.client_ships_per_commit", unit: "count", better: "lower", what: "pages shipped by clients", moves: "commits_per_s on shared-tcp"},
	{name: "buffer.client_hit_ratio", unit: "ratio", better: "higher", what: "1 - pages fetched / operations", moves: "commits_per_s on shared-tcp"},
	{name: "buffer.server_miss_per_commit", unit: "count", better: "lower", what: "storage reads", moves: "commits_per_s on shared-tcp"},
	// page
	{name: "page.overwrite_ns", unit: "ns", better: "lower", micro: true, what: "Page.Overwrite of a 32-byte object", moves: "txn_p50_us on private-local"},
	{name: "page.merge_ns", unit: "ns", better: "lower", micro: true, what: "Merge of two 16-slot copies with disjoint updates", moves: "commits_per_s on shared-tcp, hot-readmostly"},
	{name: "page.marshal_ns", unit: "ns", better: "lower", micro: true, what: "Page.MarshalBinary, 4 KiB", moves: "commits_per_s on shared-tcp"},
	{name: "page.unmarshal_ns", unit: "ns", better: "lower", micro: true, what: "Page.UnmarshalBinary, 4 KiB", moves: "commits_per_s on shared-tcp"},
	{name: "page.merges_per_commit", unit: "count", better: "lower", what: "server + client merges (program counters)", moves: "commits_per_s on shared-tcp, hot-readmostly"},
	// wal
	{name: "wal.encode_ns", unit: "ns", better: "lower", micro: true, what: "Encode of a 32-byte update record", moves: "txn_p50_us on private-local"},
	{name: "wal.append_ns", unit: "ns", better: "lower", micro: true, what: "Log.Append of an update record", moves: "txn_p50_us on private-local"},
	{name: "wal.force_ns", unit: "ns", better: "lower", micro: true, what: "Log.Append + Force, one forcer", moves: "txn_p50_us on private-local"},
	{name: "wal.group_force_ns", unit: "ns", better: "lower", micro: true, what: "Log.Append + Force, 2 concurrent forcers on one log", moves: "commits_per_s on shared-tcp (server log)"},
	{name: "wal.client_appends_per_commit", unit: "count", better: "lower", what: "records appended to client logs", moves: "log_bytes_per_user_byte on private-local"},
	{name: "wal.client_bytes_per_commit", unit: "B", better: "lower", what: "bytes appended to client logs", moves: "log_bytes_per_user_byte on private-local"},
	{name: "wal.client_flushes_per_commit", unit: "count", better: "lower", what: "device flushes of client logs", moves: "txn_p50_us on private-local"},
	{name: "wal.client_flush_us_p50", unit: "us", better: "lower", what: "one client-log device flush", moves: "txn_p50_us on private-local"},
	{name: "wal.client_us_per_commit", unit: "us", better: "lower", what: "time in client-log device calls", moves: "txn_p50_us on private-local"},
	{name: "wal.server_appends_per_commit", unit: "count", better: "lower", what: "records appended to the server log", moves: "log_bytes_per_user_byte on shared-tcp"},
	{name: "wal.server_bytes_per_commit", unit: "B", better: "lower", what: "bytes appended to the server log", moves: "log_bytes_per_user_byte on shared-tcp"},
	{name: "wal.server_flushes_per_commit", unit: "count", better: "lower", what: "device flushes of the server log", moves: "commits_per_s on shared-tcp"},
	// storage
	{name: "storage.reads_per_commit", unit: "count", better: "lower", what: "Store.Read calls", moves: "commits_per_s on shared-tcp; ~0 elsewhere after warm-up"},
	{name: "storage.writes_per_commit", unit: "count", better: "lower", what: "Store.Write calls", moves: "commits_per_s on shared-tcp"},
	{name: "storage.read_us_p50", unit: "us", better: "lower", what: "one Store.Read", moves: "commits_per_s on shared-tcp"},
	{name: "storage.us_per_commit", unit: "us", better: "lower", what: "time in storage calls", moves: "commits_per_s on shared-tcp"},
	// fleet, obs: micro only
	{name: "fleet.router_lock_ns", unit: "ns", better: "lower", micro: true, what: "Router.Lock over stub partitions", moves: "nothing yet: no workload runs a fleet"},
	{name: "obs.counter_add_ns", unit: "ns", better: "lower", micro: true, what: "Counter.Add", moves: "txn_p50_us on private-local (always-on counters sit on that path)"},
	{name: "obs.hist_observe_ns", unit: "ns", better: "lower", micro: true, what: "Histogram.Observe", moves: "txn_p50_us on private-local"},
	// bench: the harness itself
	{name: "bench.machine_speed", unit: "ratio", better: "higher", what: "mean machine speed over the traced measurement: the benchmark's own reference work, measured / nominal rate; reads higher than in an untraced run, because the span buffers make collections rarer; per-layer times are NOT scaled by it", moves: "nothing: it says how fast the machine was when the per-layer times were taken"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower", what: "1 - traced / untraced commit rate, both from this run, as the clock read them", moves: "bounds how far traced times can be trusted"},
	{name: "bench.window_spread", unit: "ratio", better: "lower", what: "quartile distance / median of the untraced window rates", moves: "steadiness of commits_per_s"},
	{name: "bench.backoff_share", unit: "ratio", better: "lower", what: "time asleep in retry back-off / transaction time; must stay under 0.05", moves: "commits_per_s on shared-tcp"},
	{name: "bench.gen_ns_per_op", unit: "ns", better: "lower", micro: true, what: "one generated operation", moves: "nothing: harness cost"},
	{name: "bench.unexplained_share", unit: "ratio", better: "lower", what: "(txn_p50_us - sum of layer micro cost x traced per-commit count) / txn_p50_us", moves: "reconciliation row: what the layer model does not explain"},
	{name: "bench.acked_lost", unit: "count", better: "lower", what: "acknowledged commits whose update is absent at a read-back; must be 0", moves: "correct"},
	{name: "bench.failed_share", unit: "ratio", better: "lower", what: "failed operations and verification failures / attempted; must be 0", moves: "correct"},
	{name: "bench.spans_dropped", unit: "count", better: "lower", what: "spans that did not fit the preallocated buffers; must be 0", moves: "validity of every traced metric"},
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.name] = d
	}
	return m
}

// endToEnd fills a run's end-to-end metrics.  Every time was put at
// reference speed where it was taken (reference.go); a time-based metric is
// the median over the run's windows.  What the clock itself read is kept in
// res.Raw.
func endToEnd(res *runResult, m *measured, su *setups) {
	commits := float64(m.commits)
	res.Raw = map[string]float64{
		"commits_per_s": m.rawRate(),
		"setup_s":       median(su.raw),
		"machine_speed": m.speed(),
		"setup_speed":   ratio(median(su.seconds), median(su.raw)),
	}
	M := res.Metrics
	M["commits_per_s"] = median(m.rates)
	M["txn_p50_us"] = median(m.p50s)
	M["txn_p99_us"] = median(m.p99s)
	M["cpu_us_per_commit"] = median(m.cpus)
	M["setup_s"] = median(su.seconds)
	M["allocs_per_commit"] = ratio(float64(m.delta.mallocs), commits)
	M["log_bytes_per_user_byte"] = ratio(float64(m.delta.logBytes), float64(m.writes)*objSize)
	M["live_heap_mb"] = maxOf(m.heap) / (1 << 20)
	res.Rates = m.rates
	for i := range m.restartClientMs {
		res.RestartMs = append(res.RestartMs, m.restartClientMs[i], m.restartServerMs[i])
	}
	res.Samples["windows"] = len(m.rates)
	res.Samples["txn_latencies"] = m.samples
	res.Samples["setups"] = len(su.seconds)
	res.Samples["reference_samples"] = m.ref.samples
	res.Samples["commits"] = int(m.commits)
	res.Samples["aborted_attempts"] = int(m.aborts)
}
