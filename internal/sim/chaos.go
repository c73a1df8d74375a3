package sim

import (
	"fmt"
	"sort"
	"sync"

	"clientlog/internal/core"
	"clientlog/internal/fault"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
	"clientlog/internal/trace"
)

// ChaosOptions extends the torture schedule with a transport fault plan.
type ChaosOptions struct {
	TortureOptions
	Plan fault.Plan
	// Retry governs client->server calls; CallbackRetry governs
	// server->client callbacks.  The callback budget is deliberately
	// larger: a callback that exhausts its retries looks to the server
	// like a crashed holder (Section 3.3) and stalls the requester until
	// the lock timeout, so callbacks should ride out any realistic fault
	// schedule rather than give up.
	Retry         msg.RetryPolicy
	CallbackRetry msg.RetryPolicy
	// Registry, when non-nil, receives every engine's metrics, so an
	// admin endpoint started before the run watches it live.
	Registry *obs.Registry
	// Spans, when non-nil, enables causal tracing for the run (it is
	// installed as the cluster Config's span store); a failure snapshot
	// then includes the slowest traced transactions.
	Spans *span.Store
}

// DefaultChaosOptions pairs the default torture schedule with the
// default fault plan.
func DefaultChaosOptions(seed int64) ChaosOptions {
	opt := ChaosOptions{
		TortureOptions: DefaultTortureOptions(seed),
		Plan:           fault.DefaultPlan(),
		Retry:          msg.DefaultRetry(),
		CallbackRetry:  msg.DefaultRetry(),
	}
	opt.CallbackRetry.MaxAttempts = 64
	return opt
}

// ChaosStats extends TortureStats with fault-layer counters.
type ChaosStats struct {
	TortureStats
	// Faults is the number of injected transport faults.
	Faults uint64
	// FaultsByKind breaks Faults down per fault kind.
	FaultsByKind map[string]uint64
	// Retries counts the RPC retransmissions the retry layer performed
	// during the run.
	Retries uint64
	// Suppressed counts duplicate requests absorbed by the reply caches
	// (each one a retransmission that would have double-executed).
	Suppressed uint64
	// Schedule lists every injected fault as "stream#call kind", in a
	// canonical (sorted) order.  Two runs with the same seed and options
	// produce the same schedule.
	Schedule []string
	// WaitsFor is the GLM wait graph at the moment the run finished;
	// on a failure it shows who was stuck behind whom.
	WaitsFor lock.WaitsForSnapshot
	// SlowestTraces names the slowest traced transactions of the run
	// (empty unless ChaosOptions.Spans was set).
	SlowestTraces []ident.TxnID
}

// Chaos runs the torture schedule over fault-injected transports: every
// conn in the cluster is wrapped so that requests and replies are
// dropped, delayed, duplicated and replayed according to a
// deterministic seeded plan, with the client-side retry layer and
// server-side reply caches keeping the system exactly-once.  After the
// rounds complete the injector is disabled, a final clean server
// crash+restart exercises recovery, and the run fails if any committed
// update was lost, any PSN regressed, or the lock table and DCT
// disagree.
func Chaos(cfg core.Config, opt ChaosOptions) (ChaosStats, error) {
	if opt.Spans != nil {
		cfg.Spans = opt.Spans
	}
	inj := fault.New(opt.Seed, opt.Plan)
	ring := trace.NewRing(8192)
	inj.SetTracer(ring)
	retries0 := msg.Retries()

	var (
		cacheMu sync.Mutex
		caches  []*msg.ReplyCache
	)
	newCache := func() *msg.ReplyCache {
		rc := msg.NewReplyCache(0)
		cacheMu.Lock()
		caches = append(caches, rc)
		cacheMu.Unlock()
		return rc
	}

	cl := core.NewClusterIn(opt.applyConfig(cfg), opt.Registry)
	defer cl.Close()
	fleetSize := cl.Partitions()
	cl.WrapConns(
		func(part, n int, conn msg.Server) msg.Server {
			stream := fmt.Sprintf("c%d->srv", n)
			if fleetSize > 1 {
				stream = fmt.Sprintf("c%d->p%d", n, part)
			}
			return msg.ServerConn{Caller: msg.NewFaulty(msg.ServerCaller(conn), inj, newCache(), stream, opt.Retry)}
		},
		func(id ident.ClientID, conn msg.Client) msg.Client {
			return msg.ClientConn{Caller: msg.NewFaulty(msg.ClientCaller(conn), inj, newCache(),
				fmt.Sprintf("srv->%v", id), opt.CallbackRetry)}
		},
	)

	stats := ChaosStats{}
	finish := func(h *harness, err error) (ChaosStats, error) {
		if h != nil {
			stats.TortureStats = h.stats
		}
		stats.Faults = inj.Faults()
		stats.Retries = msg.Retries() - retries0
		stats.FaultsByKind = make(map[string]uint64)
		for k, n := range inj.KindCounts() {
			stats.FaultsByKind[k.String()] = n
		}
		// Per-stream fault sequences are deterministic but the global
		// interleaving is not (callbacks run on goroutines); sorting
		// yields a canonical fingerprint, and call numbers embedded in
		// each entry preserve every stream's internal order.
		stats.Schedule = inj.Schedule()
		sort.Strings(stats.Schedule)
		cacheMu.Lock()
		for _, rc := range caches {
			stats.Suppressed += rc.Suppressed.Load()
		}
		cacheMu.Unlock()
		stats.WaitsFor = cl.WaitsFor()
		for _, tr := range opt.Spans.Slowest(5) {
			stats.SlowestTraces = append(stats.SlowestTraces, tr.Txn)
		}
		return stats, err
	}

	h, err := newHarness(cl, ring, opt.TortureOptions)
	if err != nil {
		return finish(h, err)
	}
	if err := h.run(); err != nil {
		return finish(h, err)
	}

	// Quiesce: stop injecting, then force a clean server crash+restart
	// so the final verification runs against fully recovered state.
	inj.SetEnabled(false)
	cl.CrashServer()
	for pid := range h.maxCurPSN {
		delete(h.maxCurPSN, pid)
	}
	if err := cl.RestartServer(); err != nil {
		return finish(h, fmt.Errorf("quiesce restart (seed %d): %w", opt.Seed, err))
	}
	if err := h.verify("post-chaos"); err != nil {
		return finish(h, err)
	}
	if err := cl.CheckInvariants(); err != nil {
		return finish(h, fmt.Errorf("post-chaos (seed %d): %w", opt.Seed, err))
	}
	return finish(h, nil)
}
