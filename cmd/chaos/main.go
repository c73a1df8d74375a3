// Command chaos runs the crash-recovery torture schedule over
// fault-injected transports: every message between clients and server
// can be dropped, delayed, duplicated, replayed or hit by a connection
// partition, according to a deterministic seeded plan.  The run fails
// loudly if a committed update is lost, a PSN regresses, or the lock
// table and dirty-client table disagree after recovery.
//
//	chaos -seeds 20 -rounds 150 -drop 0.05 -verbose
//
// Re-running with the same flags reproduces the identical fault
// schedule; -schedule prints it for diffing.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fault"
	"clientlog/internal/lock"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
	"clientlog/internal/sim"
)

// printSnapshot renders the run's final metrics: what the fault layer
// injected, what the retry layer absorbed, and what the engines did in
// response, summed across all seeds.
func printSnapshot(snap obs.Snapshot, faultsByKind map[string]uint64, retries uint64) {
	fmt.Println("final metrics snapshot:")
	kinds := make([]string, 0, len(faultsByKind))
	for k := range faultsByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  faults_total{kind=%s} %d\n", k, faultsByKind[k])
	}
	fmt.Printf("  rpc retries           %d\n", retries)
	for _, fam := range []struct{ label, family string }{
		{"messages", "msg_messages_total"},
		{"server merges", "server_merges_total"},
		{"client merges", "client_merges_total"},
		{"recovery steps", "server_recovery_steps_total"},
		{"callbacks sent", "server_callbacks_sent_total"},
		{"de-escalations", "server_deescalations_total"},
		{"lock deadlock aborts", "lock_deadlocks_total"},
		{"wal forces", "wal_forces_total"},
	} {
		fmt.Printf("  %-21s %d\n", fam.label, snap.Total(fam.family))
	}
}

func main() {
	seeds := flag.Int("seeds", 20, "number of random schedules to run")
	first := flag.Int64("first-seed", 1, "first seed")
	rounds := flag.Int("rounds", 150, "rounds per schedule")
	clients := flag.Int("clients", 3, "clients per cluster")
	noServer := flag.Bool("no-server-crashes", false, "client crashes only")
	diskless := flag.Bool("diskless", false, "first client logs to a server-hosted remote log")
	churn := flag.Bool("churn", false, "add membership storms: clean leave+rejoin and crash bursts")
	logSlots := flag.Int("log-slots", 0, "cap private logs at ~N records so §3.6 freeLogSpace fires (0 = unbounded)")
	fleetSize := flag.Int("partitions", 1, "server fleet size: hash-partition the page space across N servers (adds partition-scoped crash rounds; per-partition fault streams)")

	drop := flag.Float64("drop", -1, "message drop probability (-1 = default plan)")
	dup := flag.Float64("dup", -1, "message duplication probability")
	replay := flag.Float64("replay", -1, "stale-retransmission probability")
	delay := flag.Float64("delay", -1, "message delay probability")
	maxDelay := flag.Duration("max-delay", 200*time.Microsecond, "upper bound on injected delays")
	disconnect := flag.Float64("disconnect", -1, "mid-RPC disconnect probability")
	partition := flag.Float64("partition", -1, "partition-window open probability")
	partitionLen := flag.Int("partition-len", 5, "messages eaten per partition window")

	schedule := flag.Bool("schedule", false, "print every injected fault")
	verbose := flag.Bool("verbose", false, "per-seed statistics")
	admin := flag.String("admin", "", "serve /metrics, /trace/, /waitsfor, /healthz and pprof on this address (e.g. :7071)")
	flag.Parse()

	plan := fault.DefaultPlan()
	override := func(dst *float64, v float64) {
		if v >= 0 {
			*dst = v
		}
	}
	override(&plan.DropProb, *drop)
	override(&plan.DupProb, *dup)
	override(&plan.ReplayProb, *replay)
	override(&plan.DelayProb, *delay)
	override(&plan.DisconnectProb, *disconnect)
	override(&plan.PartitionProb, *partition)
	plan.MaxDelay = *maxDelay
	plan.PartitionLen = *partitionLen

	// All seeds share one registry so the admin endpoint (and the final
	// snapshot) cover the whole run.
	reg := obs.NewRegistry()
	// The span store is per seed (transaction ids restart with each
	// cluster) and the waits-for graph dies with each cluster, so the
	// admin handlers delegate to whatever the loop last installed:
	// /trace/* serves the seed currently running, /waitsfor the graph
	// captured when the previous seed finished.
	var curSpans atomic.Pointer[span.Store]
	var lastWF atomic.Pointer[lock.WaitsForSnapshot]
	lastWF.Store(&lock.WaitsForSnapshot{})
	if *admin != "" {
		srv, err := obs.StartAdmin(*admin, obs.AdminOptions{
			Registry: reg,
			Handlers: map[string]http.Handler{
				"/trace/": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					curSpans.Load().TraceHandler().ServeHTTP(w, r)
				}),
				"/waitsfor": span.WaitsForHandler(func() lock.WaitsForSnapshot {
					return *lastWF.Load()
				}),
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s\n", srv.Addr())
	}

	faultsByKind := make(map[string]uint64)
	var totFaults, totSuppressed, totCommits, totAborts, totRetries uint64
	for i := 0; i < *seeds; i++ {
		seed := *first + int64(i)
		opt := sim.DefaultChaosOptions(seed)
		opt.Rounds = *rounds
		opt.Clients = *clients
		opt.ServerCrashes = !*noServer
		opt.Diskless = *diskless
		opt.Churn = *churn
		opt.LogSlots = *logSlots
		opt.Partitions = *fleetSize
		opt.Plan = plan
		opt.Registry = reg
		// Fresh span store per seed: transaction ids restart with each
		// cluster, so sharing one store would collide traces across seeds.
		opt.Spans = span.NewStore(span.Options{SampleEvery: 8})
		curSpans.Store(opt.Spans)
		stats, err := sim.Chaos(core.DefaultConfig(), opt)
		lastWF.Store(&stats.WaitsFor)
		totFaults += stats.Faults
		totSuppressed += stats.Suppressed
		totCommits += stats.Commits
		totAborts += stats.Aborts
		totRetries += stats.Retries
		for k, n := range stats.FaultsByKind {
			faultsByKind[k] += n
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL seed %d (%d faults injected): %v\n", seed, stats.Faults, err)
			// The fleet-merged graph (partition-tagged in fleet runs), so
			// a cross-partition deadlock post-mortem is self-contained.
			fmt.Fprintf(os.Stderr, "waits-for at failure (fleet-merged):\n%s", span.Summary(stats.WaitsFor))
			if len(stats.WaitsFor.Victims) > 0 {
				fmt.Fprintf(os.Stderr, "waits-for graph (graphviz):\n%s", span.WaitsForDot(stats.WaitsFor))
			}
			// Stitched span trees of the slowest transactions, server
			// spans carrying @pN provenance.
			for _, tr := range opt.Spans.Slowest(3) {
				fmt.Fprint(os.Stderr, span.TreeString(tr))
			}
			if len(stats.SlowestTraces) > 0 {
				fmt.Fprintf(os.Stderr, "slowest traced txns (inspect via /trace/<txnid>):")
				for _, id := range stats.SlowestTraces {
					fmt.Fprintf(os.Stderr, " %v", id)
				}
				fmt.Fprintln(os.Stderr)
			}
			printSnapshot(reg.Snapshot(), faultsByKind, totRetries)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("seed %-5d ok: %4d commits %3d aborts %4d faults %3d dup-suppressed %2d client-crashes %2d server-crashes %2d partition-crashes\n",
				seed, stats.Commits, stats.Aborts, stats.Faults, stats.Suppressed,
				stats.ClientCrashes, stats.ServerCrashes, stats.PartitionCrashes)
		}
		if *schedule {
			for _, line := range stats.Schedule {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	fmt.Printf("ALL PASS: %d seeds, %d commits, %d aborts, %d faults injected, %d duplicates suppressed\n",
		*seeds, totCommits, totAborts, totFaults, totSuppressed)
	printSnapshot(reg.Snapshot(), faultsByKind, totRetries)
}
