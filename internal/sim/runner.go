package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fleet"
	"clientlog/internal/lock"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
)

// Result aggregates everything an experiment reports.
type Result struct {
	Scheme    string
	Workload  string
	Clients   int
	Commits   uint64
	Aborts    uint64
	Elapsed   time.Duration
	Msgs      uint64
	Bytes     uint64
	CommitLat time.Duration // mean commit-call latency

	// Commit-latency quantiles from the engines' obs histograms
	// (log₂-bucketed, so values are order-of-magnitude accurate).
	LatP50 time.Duration
	LatP95 time.Duration
	LatP99 time.Duration

	// Breakdown attributes commit latency to lock-wait / wal-force /
	// net / other from the sampled span traces; nil when the run's
	// Config had tracing off (or no trace committed).
	Breakdown *span.Breakdown

	ServerLogBytes uint64
	ClientLogBytes uint64 // sum over clients
	DiskReads      uint64
	DiskWrites     uint64
	Merges         uint64
	TokenMoves     uint64
	Callbacks      uint64
	Deescalations  uint64
	ForceRequests  uint64
	LogFullEvents  uint64
	PagesShipped   uint64
	PagesFetched   uint64

	// §3.6 log-space pressure counters (summed over clients, including
	// pre-restart incarnations in lite/churn runs).
	LogReclaims     uint64 // freeLogSpace attempts
	LogReclaimFails uint64 // attempts that freed nothing (ErrNoLogSpace)
	ForcedShips     uint64 // dirty pages shipped by the replace-and-force path

	// Churn accounting (lite runner only).
	ChurnCrashes uint64
	ChurnLeaves  uint64
	ChurnJoins   uint64

	// AckedCommits is the number of Commit() calls the lite dispatcher
	// saw return success.  The race tests assert it never exceeds the
	// engines' own Commits total: a successful acknowledgment whose
	// transaction the engine did not register would be a lost commit.
	AckedCommits uint64

	// HeapAllocBytes is runtime.MemStats.HeapAlloc sampled at the end of
	// the run (lite runner only) — the E13 memory-footprint evidence.
	HeapAllocBytes uint64

	// Fleet accounting (zero unless the run was partitioned).
	Partitions        int    // server fleet size
	CrossCommits      uint64 // committed transactions touching >1 partition
	DistDeadlockKills uint64 // victims killed by the fleet deadlock detector
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

// MsgsPerCommit returns protocol messages per committed transaction.
func (r Result) MsgsPerCommit() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Msgs) / float64(r.Commits)
}

// BytesPerCommit returns wire bytes per committed transaction.
func (r Result) BytesPerCommit() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.Commits)
}

// SchemeName labels a configuration for the tables.
func SchemeName(cfg core.Config) string { return cfg.SchemeName() }

// Run executes the workload: nClients clients each run txns
// transactions, retrying deadlock/timeout victims (retries count as
// aborts).  It returns the aggregated metrics.
func Run(cfg core.Config, w Workload, nClients, txns int, seed int64) (Result, error) {
	return RunFor(cfg, w, nClients, txns, seed, 0)
}

// RunFor is Run with a wall-clock budget: once maxWall elapses (0 =
// unbounded) clients stop starting new transactions and the metrics
// cover whatever committed.  Fixed-time cells keep pathological schemes
// (page locking under fine-grained sharing deadlock-storms) from
// stalling a whole experiment sweep.
func RunFor(cfg core.Config, w Workload, nClients, txns int, seed int64, maxWall time.Duration) (Result, error) {
	if w.Partitions > 1 {
		cfg.Partitions = w.Partitions
	}
	cl := core.NewCluster(cfg)
	defer cl.Close()
	ids, err := cl.SeedPages(w.Pages, w.ObjsPerPage, w.ObjSize)
	if err != nil {
		return Result{}, err
	}
	clients := make([]*core.Client, nClients)
	for i := range clients {
		var c *core.Client
		if w.Diskless {
			c, err = cl.AddDisklessClient()
		} else {
			c, err = cl.AddClient()
		}
		if err != nil {
			return Result{}, err
		}
		clients[i] = c
	}
	var aborts atomic.Uint64
	var commitNanos atomic.Int64
	var crossCommits atomic.Uint64
	parts := cl.Partitions()
	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	start := time.Now()
	deadline := time.Time{}
	if maxWall > 0 {
		deadline = start.Add(maxWall)
	}
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *core.Client) {
			defer wg.Done()
			gen := NewGen(w, i, nClients, ids, seed)
			committed := 0
			backoff := time.Millisecond
			for committed < txns {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				if err := runOneTxn(c, gen, &commitNanos, parts, &crossCommits); err != nil {
					if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout) {
						// Deadlock victims back off with jitter before
						// retrying; immediate retry recreates the same
						// cycle and livelocks the whole cluster.
						aborts.Add(1)
						time.Sleep(backoff + time.Duration(gen.r.Int63n(int64(backoff))))
						if backoff < 64*time.Millisecond {
							backoff *= 2
						}
						continue
					}
					errCh <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				committed++
				backoff = time.Millisecond
			}
		}(i, c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	elapsed := time.Since(start)

	res := Result{
		Scheme:   SchemeName(cfg),
		Workload: w.Kind.String(),
		Clients:  nClients,
		Elapsed:  elapsed,
		Msgs:     cl.Stats.Messages(),
		Bytes:    cl.Stats.Bytes(),
	}
	collectServerSide(cl, &res)
	res.CrossCommits = crossCommits.Load()
	var lat obs.HistView
	for _, c := range clients {
		res.Commits += c.Metrics.Commits.Load()
		res.Aborts += c.Metrics.Aborts.Load()
		res.ClientLogBytes += c.Log().BytesAppended()
		res.ForceRequests += c.Metrics.ForceRequests.Load()
		res.LogFullEvents += c.Metrics.LogFullEvents.Load()
		res.PagesShipped += c.Metrics.PagesShipped.Load()
		res.PagesFetched += c.Metrics.PagesFetched.Load()
		res.LogReclaims += c.Metrics.LogReclaims.Load()
		res.LogReclaimFails += c.Metrics.LogReclaimFails.Load()
		res.ForcedShips += c.Metrics.ForcedShips.Load()
		lat = lat.Merge(c.Metrics.CommitNanos.View())
	}
	res.Aborts += aborts.Load()
	if res.Commits > 0 {
		res.CommitLat = time.Duration(commitNanos.Load() / int64(res.Commits))
	}
	if lat.Count > 0 {
		res.LatP50 = time.Duration(lat.Quantile(0.50))
		res.LatP95 = time.Duration(lat.Quantile(0.95))
		res.LatP99 = time.Duration(lat.Quantile(0.99))
	}
	res.Breakdown = cfg.Spans.Breakdown()
	return res, nil
}

// collectServerSide sums the server-tier counters over every partition
// into res, and records the fleet size plus the distributed deadlock
// detector's kill count.
func collectServerSide(cl *core.Cluster, res *Result) {
	for _, srv := range cl.Servers() {
		res.ServerLogBytes += srv.Log().BytesAppended()
		st := srv.Store().Stats()
		res.DiskReads += st.Reads
		res.DiskWrites += st.Writes
		res.Merges += srv.Metrics.Merges.Load()
		res.TokenMoves += srv.Metrics.TokenTransfers.Load()
		res.Callbacks += srv.Metrics.CallbacksSent.Load()
		res.Deescalations += srv.Metrics.Deescalations.Load()
	}
	res.Partitions = cl.Partitions()
	if d := cl.Detector(); d != nil {
		res.DistDeadlockKills = d.Metrics.Kills.Load()
	}
}

// runOneTxn executes one generated transaction; lock victims are
// aborted and reported so the caller can retry.  The generator decides
// the op count (long readers scan more) and owns the write buffer (the
// engine clones on both the page and the log path).  With parts > 1 a
// commit whose accesses spanned more than one partition bumps
// crossCommits.
func runOneTxn(c *core.Client, gen *Gen, commitNanos *atomic.Int64, parts int, crossCommits *atomic.Uint64) error {
	txn, err := c.Begin()
	if err != nil {
		return err
	}
	ops := gen.Ops()
	var owners uint64
	for op := 0; op < ops; op++ {
		obj, write := gen.Next()
		if parts > 1 {
			owners |= 1 << uint(fleet.Owner(obj.Page, parts)&63)
		}
		if write {
			err = txn.Overwrite(obj, gen.ValueReuse())
		} else {
			_, err = txn.Read(obj)
		}
		if err != nil {
			_ = txn.Abort()
			return err
		}
	}
	t0 := time.Now()
	if err := txn.Commit(); err != nil {
		_ = txn.Abort() // a failed commit leaves the txn active; don't let it pin the log
		return err
	}
	commitNanos.Add(time.Since(t0).Nanoseconds())
	if parts > 1 && crossCommits != nil && bits.OnesCount64(owners) > 1 {
		crossCommits.Add(1)
	}
	return nil
}

// Schemes returns the named baseline configurations derived from base.
func Schemes(base core.Config) map[string]core.Config {
	paper := base
	paper.Granularity = core.GranAdaptive
	paper.Logging = core.LogLocal
	paper.Update = core.UpdateMerge

	pageLock := paper
	pageLock.Granularity = core.GranPage

	token := paper
	token.Update = core.UpdateToken

	shipLog := paper
	shipLog.Logging = core.LogShipCommit

	shipPages := paper
	shipPages.Logging = core.LogShipPages

	return map[string]core.Config{
		"paper":      paper,
		"page-lock":  pageLock,
		"token":      token,
		"ship-log":   shipLog,
		"ship-pages": shipPages,
	}
}

// RunOne executes a single generated transaction (debug/tools helper);
// lock victims are aborted and the error returned.
func RunOne(c *core.Client, gen *Gen) error {
	var sink atomic.Int64
	return runOneTxn(c, gen, &sink, 1, nil)
}
