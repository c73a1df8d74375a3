package main

import "time"

// Load shape shared by every workload: a closed loop of exactly two
// clients (each a workstation that waits for its reply), memory-backed
// devices with no simulated latency, the paper's scheme.  The client count
// is fixed, not derived from the machine, so numbers compare across
// machines; GOMAXPROCS is left alone and stamped in the output.
const (
	numClients = 2
	pageSize   = 4096

	// lockTimeout only bounds a lost wake-up; deadlocks are detected by
	// the lock managers and never wait for it.
	lockTimeout = 2 * time.Second

	numWindows = 20 // a throughput run measures this many equal windows
)

// workload is one named set of inputs.  The names are fixed: later issues
// cite them.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	tcp        bool // real TCP on 127.0.0.1 instead of the loopback transport
	pages      int
	clientPool int
	serverPool int
	dist       dist
	theta      float64
	readPct    int
	// logCapacity bounds each private log.  An unbounded in-memory log
	// grows by ~20 MB/s per client on private-local and drags throughput
	// down with the heap (40k -> 20k commits/s per client over 20 s in a
	// probe); a bounded log reaches the paper's §3.6 steady state within
	// the warm-up and keeps every window alike.
	logCapacity uint64

	// primeTxns is the fixed number of transactions each client commits
	// inside set-up so caches and lock tables are populated; being a count,
	// not a duration, its time scales with the program and so belongs in
	// setup_s.
	primeTxns int
	// tracedTxns is the fixed number of transactions each client commits
	// in the traced run, so per-commit counts compare run to run.
	tracedTxns int

	// undeclared keeps the workload out of BENCHMARK.json: it is
	// implemented, runs in the suite and is reported, but no later change
	// is judged by it yet.
	undeclared bool

	// Crash-recover shape (zero for the throughput workloads).
	cycleTxns       int // transactions per client per cycle
	cycleWrites     int // overwrites per transaction
	checkpointEvery int
	tracedCycles    int
}

func (w *workload) recovers() bool { return w.cycleTxns > 0 }

var workloads = []*workload{
	{
		name:  "private-local",
		why:   "each client confined to its own 32 cached pages on loopback: commit = page update + private-log append + force, ~0 messages; transport, GLM and fetch changes must read no change here",
		pages: 64, clientPool: 64, serverPool: 256,
		dist: distPrivate, readPct: 30,
		logCapacity: 8 << 20,
		primeTxns:   4000, tracedTxns: 30000,
	},
	{
		name:  "shared-tcp",
		why:   "both clients uniform over 512 pages (16x client cache, 4x server cache) over real TCP: every commit pays lock+fetch round trips, callbacks, evict-and-ship, server merges and storage reads",
		tcp:   true,
		pages: 512, clientPool: 32, serverPool: 128,
		dist: distUniform, readPct: 50,
		logCapacity: 8 << 20,
		primeTxns:   300, tracedTxns: 4000,
	},
	{
		name:  "hot-readmostly",
		why:   "both clients zipf(0.9) over the same 64 cached pages, 90% reads: reads are cached-S hits, the rare writes call back and merge; shows changes that trade reader cost against writer cost",
		pages: 64, clientPool: 64, serverPool: 256,
		dist: distZipf, theta: 0.9, readPct: 90,
		logCapacity: 8 << 20,
		primeTxns:   3000, tracedTxns: 30000,
		// Two clients that keep reading and overwriting the same cached
		// pages are not safe on the seed commit: now and then an
		// acknowledged update is lost or a stale value read, with no crash
		// involved (hunt_test.go).  One 20 s run in sixty ends with a bad
		// read-back here, one 10 s run in four when the same load goes over
		// TCP; shared-tcp, whose pages do not stay cached, had one failed
		// operation in 160 runs.  A benchmark's runs must not fail, so this workload
		// runs in the suite and the smoke test but stays out of
		// BENCHMARK.json until ROADMAP item 1 is fixed.
		undeclared: true,
	},
	{
		name: "crash-recover",
		why:  "cycles, each on a fresh system: fixed sequential load, client crash + restart (3.3), ship dirty pages, server crash + restart (3.4); the only workload where recovery drivers and log scans do the work",
		// The issue asked for ClientPool 32.  On the seed commit that loses
		// acknowledged updates on every run: RestartClient's redo pass
		// skips the log records of any page its own fetches evicted
		// mid-recovery (client_recovery.go: recoveryFetch evicts, the redo
		// loop then finds the page gone and moves on).  The pool therefore
		// holds a client's whole half; TestSmallPoolRestartLosesUpdates
		// pins the defect and says what to restore once it is fixed.
		pages: 256, clientPool: 128, serverPool: 256,
		dist: distPrivate, readPct: 0,
		// The private logs are unbounded here: on the seed commit a client
		// that crashes with a full bounded log cannot restart ("private
		// log full and nothing reclaimable").  instance.quiesce keeps them,
		// and every cycle, alike.
		logCapacity: 0,
		primeTxns:   500,
		cycleTxns:   2000, cycleWrites: 4, checkpointEvery: 500,
		tracedCycles: 6,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
