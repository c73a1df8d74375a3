package sim

import (
	"fmt"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
)

// traceSampleEvery is the head-sampling rate the latency-focused
// experiments (E1, E3) trace with.  Denser than the live default so
// even quick sweeps publish a few traces per cell; the per-transaction
// cost is unchanged (spans are buffered either way, sampling only
// decides retention), so it does not distort the numbers.
const traceSampleEvery = 4

// Params scales the experiments: Txns is per-client transaction count,
// MaxClients the largest client count in the sweeps.
type Params struct {
	Txns       int
	MaxClients int
	Seed       int64
}

// DefaultParams is the full-size run used by cmd/bench.
func DefaultParams() Params {
	return Params{Txns: 200, MaxClients: 16, Seed: 1}
}

// QuickParams is the reduced size used by `go test -bench` and the CI
// smoke job.
func QuickParams() Params {
	return Params{Txns: 40, MaxClients: 8, Seed: 1}
}

// Experiment pairs an id with its table generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) (*Table, error)
}

// All returns the experiment suite in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Throughput vs clients: concurrent same-page updates vs page locking vs update token", E1Throughput},
		{"E2", "Synchronization messages per commit across schemes", E2Messages},
		{"E3", "Commit path cost vs network latency: local logging vs commit-time shipping", E3CommitPath},
		{"E4", "Server load: log bytes, disk I/O and messages with client vs server logging", E4ServerLoad},
		{"E5", "Client crash recovery cost vs update volume and checkpoint interval", E5ClientRecovery},
		{"E6", "Server restart recovery: parallel per-page recovery across clients", E6ServerRecovery},
		{"E7", "Complex crash recovery: server plus k of n clients", E7ComplexCrash},
		{"E8", "Bounded private log: §3.6 log space management under capacity pressure", E8LogSpace},
		{"E9", "Independent fuzzy checkpoints: cost under concurrent load", E9Checkpoints},
		{"E10", "Ablations: per-slot PSN merge cost and adaptive lock granularity", E10Ablations},
	}
}

func clientSweep(max int) []int {
	sweep := []int{1, 2, 4, 8, 16, 32}
	var out []int
	for _, n := range sweep {
		if n <= max {
			out = append(out, n)
		}
	}
	return out
}

// E1Throughput compares the paper's scheme against page-level locking
// and the update-token approach on the high-contention and hot-cold
// workloads.
func E1Throughput(p Params) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "throughput (commits/s) on a 250µs one-way LAN, higher is better",
		Columns: []string{"workload", "clients", "paper", "page-lock", "token"},
		Notes: "expected shape: paper >= page-lock and >= token, gap grows with " +
			"clients on HICON (claim: concurrent same-page updates); the LAN " +
			"latency models the paper's cost regime where every lock transfer " +
			"costs round trips",
	}
	base := core.DefaultConfig()
	base.Latency = 250 * time.Microsecond
	base.LockTimeout = 2 * time.Second
	schemes := Schemes(base)
	txns := p.Txns / 4
	if txns < 10 {
		txns = 10
	}
	breakdowns := map[string]*span.Breakdown{}
	for _, kind := range []Kind{HiCon, HotCold} {
		w := DefaultWorkload(kind)
		for _, n := range clientSweep(p.MaxClients) {
			row := []interface{}{kind.String(), n}
			for _, name := range []string{"paper", "page-lock", "token"} {
				cfg := schemes[name]
				cfg.Spans = span.NewStore(span.Options{SampleEvery: traceSampleEvery})
				res, err := RunFor(cfg, w, n, txns, p.Seed, 5*time.Second)
				if err != nil {
					return nil, fmt.Errorf("E1 %s/%s/%d: %w", kind, name, n, err)
				}
				row = append(row, fmt.Sprintf("%.0f", res.Throughput()))
				t.AddRaw(RawRecord(res, nil))
				breakdowns[name] = breakdowns[name].Merge(res.Breakdown)
			}
			t.Add(row...)
		}
	}
	for _, name := range []string{"paper", "page-lock", "token"} {
		if b := breakdowns[name]; b != nil {
			t.Breakdowns = append(t.Breakdowns, name+": "+b.String())
		}
	}
	return t, nil
}

// E2Messages compares protocol messages per committed transaction.
func E2Messages(p Params) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "messages per commit, lower is better",
		Columns: []string{"workload", "clients", "paper", "page-lock", "token", "token moves"},
		Notes: "expected shape: the token scheme pays extra messages (token " +
			"moves grow with clients) on top of the paper's callback traffic; " +
			"page-lock sends fewest messages but only because it serializes " +
			"execution — see its E1 throughput collapse",
	}
	base := core.DefaultConfig()
	base.LockTimeout = 2 * time.Second
	schemes := Schemes(base)
	for _, kind := range []Kind{HiCon, HotCold} {
		w := DefaultWorkload(kind)
		for _, n := range clientSweep(p.MaxClients) {
			row := []interface{}{kind.String(), n}
			var tokenMoves uint64
			for _, name := range []string{"paper", "page-lock", "token"} {
				res, err := RunFor(schemes[name], w, n, p.Txns, p.Seed, 5*time.Second)
				if err != nil {
					return nil, fmt.Errorf("E2 %s/%s/%d: %w", kind, name, n, err)
				}
				row = append(row, fmt.Sprintf("%.1f", res.MsgsPerCommit()))
				if name == "token" {
					tokenMoves = res.TokenMoves
				}
			}
			row = append(row, tokenMoves)
			t.Add(row...)
		}
	}
	return t, nil
}

// E3CommitPath sweeps network latency and compares the commit-path cost
// of client-local logging against shipping log records or pages at
// commit.
func E3CommitPath(p Params) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "mean commit latency vs one-way network latency",
		Columns: []string{"latency", "paper", "ship-log", "ship-pages", "paper-diskless"},
		Notes: "expected shape: paper's commit latency is flat in network latency " +
			"(commit sends no messages); the shipping baselines — and the " +
			"diskless variant, whose log force is a round trip — grow linearly",
	}
	w := DefaultWorkload(Private)
	txns := p.Txns / 4
	if txns < 10 {
		txns = 10
	}
	breakdowns := map[string]*span.Breakdown{}
	for _, lat := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
		base := core.DefaultConfig()
		base.Latency = lat
		schemes := Schemes(base)
		row := []interface{}{lat.String()}
		for _, name := range []string{"paper", "ship-log", "ship-pages"} {
			cfg := schemes[name]
			cfg.Spans = span.NewStore(span.Options{SampleEvery: traceSampleEvery})
			res, err := Run(cfg, w, 2, txns, p.Seed)
			if err != nil {
				return nil, fmt.Errorf("E3 %s/%v: %w", name, lat, err)
			}
			row = append(row, res.CommitLat.Round(time.Microsecond).String())
			t.AddRaw(RawRecord(res, map[string]any{"net_latency_ns": lat.Nanoseconds()}))
			breakdowns[name] = breakdowns[name].Merge(res.Breakdown)
		}
		wd := w
		wd.Diskless = true
		cfg := schemes["paper"]
		cfg.Spans = span.NewStore(span.Options{SampleEvery: traceSampleEvery})
		res, err := Run(cfg, wd, 2, txns, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E3 diskless/%v: %w", lat, err)
		}
		row = append(row, res.CommitLat.Round(time.Microsecond).String())
		t.AddRaw(RawRecord(res, map[string]any{
			"net_latency_ns": lat.Nanoseconds(), "diskless": true,
		}))
		breakdowns["paper-diskless"] = breakdowns["paper-diskless"].Merge(res.Breakdown)
		t.Add(row...)
	}
	for _, name := range []string{"paper", "ship-log", "ship-pages", "paper-diskless"} {
		if b := breakdowns[name]; b != nil {
			t.Breakdowns = append(t.Breakdowns, name+": "+b.String())
		}
	}
	return t, nil
}

// E4ServerLoad compares what the server has to absorb under client
// vs server logging: log bytes, disk writes, and messages.
func E4ServerLoad(p Params) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "server load per 1000 commits (HOTCOLD, 8 clients)",
		Columns: []string{"scheme", "srv log KiB", "disk writes", "msgs/commit", "client log KiB"},
		Notes: "expected shape: with client-based logging the server log carries " +
			"only replacement records; with ship-log it carries every update record",
	}
	n := 8
	if n > p.MaxClients {
		n = p.MaxClients
	}
	w := DefaultWorkload(HotCold)
	schemes := Schemes(core.DefaultConfig())
	for _, name := range []string{"paper", "ship-log", "ship-pages"} {
		res, err := Run(schemes[name], w, n, p.Txns, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", name, err)
		}
		scale := 1000.0 / float64(res.Commits)
		t.Add(name,
			fmt.Sprintf("%.0f", float64(res.ServerLogBytes)*scale/1024),
			fmt.Sprintf("%.0f", float64(res.DiskWrites)*scale),
			fmt.Sprintf("%.1f", res.MsgsPerCommit()),
			fmt.Sprintf("%.0f", float64(res.ClientLogBytes)*scale/1024))
	}
	return t, nil
}

// E5ClientRecovery measures §3.3 restart cost against update volume and
// checkpoint interval.
func E5ClientRecovery(p Params) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "client crash recovery (local log only, no server log scan)",
		Columns: []string{"updates", "bg flush", "dirty pages", "log KiB", "recovery", "pages fetched"},
		Notes: "expected shape: without background flushing the redo work grows " +
			"linearly with the update volume; with it, flush notifications " +
			"advance the RedoLSNs and recovery stays bounded by the live " +
			"working set",
	}
	for _, updates := range []int{p.Txns, p.Txns * 4} {
		for _, flush := range []int{0, 20} {
			res, err := RunClientCrashRecoveryFlush(core.DefaultConfig(), 32, updates, 25, flush, p.Seed)
			if err != nil {
				return nil, fmt.Errorf("E5 updates=%d flush=%d: %w", updates, flush, err)
			}
			t.Add(updates, flush, res.DirtyPages,
				fmt.Sprintf("%.0f", float64(res.LogBytes)/1024),
				res.RecoveryTime.Round(10*time.Microsecond).String(),
				res.PagesFetched)
		}
	}
	return t, nil
}

// E6ServerRecovery measures §3.4 restart wall time as the redo work is
// spread over more clients.
func E6ServerRecovery(p Params) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "server restart recovery, fixed total work (64 dirty pages)",
		Columns: []string{"clients", "pages/client", "recovery", "msgs", "pages shipped"},
		Notes: "expected shape: wall time shrinks (or stays flat) as page recovery " +
			"parallelizes across clients (claim 3)",
	}
	totalPages := 64
	for _, n := range clientSweep(p.MaxClients) {
		per := totalPages / n
		if per == 0 {
			per = 1
		}
		res, err := RunServerCrashRecovery(core.DefaultConfig(), n, per, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E6 n=%d: %w", n, err)
		}
		t.Add(n, per, res.RecoveryTime.Round(10*time.Microsecond).String(), res.Msgs, res.PagesShipped)
	}
	return t, nil
}

// E7ComplexCrash measures §3.5: server plus k of n clients down.
func E7ComplexCrash(p Params) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "complex crash recovery (8 clients, 8 pages each)",
		Columns: []string{"clients down", "recovery", "msgs"},
		Notes:   "server restart + crashed-client restarts, end to end",
	}
	n := 8
	if n > p.MaxClients {
		n = p.MaxClients
	}
	for k := 0; k <= n; k += 2 {
		res, err := RunComplexCrash(core.DefaultConfig(), n, k, 8, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E7 k=%d: %w", k, err)
		}
		t.Add(k, res.RecoveryTime.Round(10*time.Microsecond).String(), res.Msgs)
	}
	return t, nil
}

// E8LogSpace sweeps the private log capacity and reports throughput and
// the §3.6 force-page traffic.
func E8LogSpace(p Params) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "bounded private log (§3.6), UNIFORM, 2 clients",
		Columns: []string{"capacity", "commits/s", "log-full events", "force requests", "disk writes"},
		Notes: "expected shape: throughput recovers to the unbounded level once " +
			"capacity exceeds the working set's log demand; forces spike below it",
	}
	w := DefaultWorkload(Uniform)
	for _, capacity := range []uint64{8 << 10, 32 << 10, 128 << 10, 0} {
		cfg := core.DefaultConfig()
		cfg.ClientLogCapacity = capacity
		res, err := Run(cfg, w, 2, p.Txns, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E8 cap=%d: %w", capacity, err)
		}
		label := "unbounded"
		if capacity > 0 {
			label = fmt.Sprintf("%dKiB", capacity/1024)
		}
		t.Add(label, fmt.Sprintf("%.0f", res.Throughput()), res.LogFullEvents, res.ForceRequests, res.DiskWrites)
	}
	return t, nil
}

// E9Checkpoints measures the cost of fuzzy checkpoints taken by one
// client while others run, and the recovery-time payoff.
func E9Checkpoints(p Params) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "independent fuzzy checkpoints (claims 6-7)",
		Columns: []string{"ckpts during run", "commits/s (others)", "", ""},
		Notes: "no cross-client synchronization: a client checkpointing at full " +
			"tilt must not dent the others' throughput",
	}
	n := 4
	if n > p.MaxClients {
		n = p.MaxClients
	}
	for _, ckpts := range []int{0, 100, 1000} {
		res, err := RunCheckpointDuringLoad(core.DefaultConfig(), n, p.Txns, ckpts, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E9 ckpts=%d: %w", ckpts, err)
		}
		t.Add(ckpts, fmt.Sprintf("%.0f", res.Throughput()), "", "")
	}
	// Recovery payoff: checkpoint interval vs recovery time.
	t2rows := [][2]int{{0, 0}, {25, 0}, {5, 0}}
	for _, r := range t2rows {
		res, err := RunClientCrashRecovery(core.DefaultConfig(), 32, p.Txns*2, r[0], p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E9 recovery ck=%d: %w", r[0], err)
		}
		t.Add(fmt.Sprintf("ckpt-every=%d", r[0]), "recovery="+res.RecoveryTime.Round(10*time.Microsecond).String(),
			fmt.Sprintf("fetched=%d", res.PagesFetched), "")
	}
	return t, nil
}

// E10Ablations measures the design choices DESIGN.md calls out: the
// per-slot PSN merge cost, and adaptive granularity vs always-object
// locking on a no-sharing workload.
func E10Ablations(p Params) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "ablations",
		Columns: []string{"case", "metric", "value"},
	}
	// (a) merge microbenchmark: cost of the §2 merge per page size.
	for _, slots := range []int{8, 32, 128} {
		base := page.New(1, 8192)
		for i := 0; i < slots; i++ {
			if _, _, err := base.Insert(make([]byte, 32)); err != nil {
				return nil, err
			}
		}
		a, b := base.Clone(), base.Clone()
		for i := 0; i < slots; i += 2 {
			a.Overwrite(uint16(i), make([]byte, 32))
			b.Overwrite(uint16(i+1), make([]byte, 32))
		}
		const iters = 2000
		start := time.Now()
		for i := 0; i < iters; i++ {
			page.Merge(a, b)
		}
		perOp := time.Since(start) / iters
		t.Add(fmt.Sprintf("merge %d slots", slots), "ns/merge", perOp.Nanoseconds())
	}
	// (b) adaptive page grants vs always-object locks on PRIVATE (no
	// sharing: adaptive should need far fewer lock messages).
	w := DefaultWorkload(Private)
	for _, gran := range []core.Granularity{core.GranAdaptive, core.GranObject} {
		cfg := core.DefaultConfig()
		cfg.Granularity = gran
		res, err := Run(cfg, w, 4, p.Txns, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E10 gran=%v: %w", gran, err)
		}
		t.Add("PRIVATE "+gran.String(), "msgs/commit", fmt.Sprintf("%.1f", res.MsgsPerCommit()))
	}
	// (c) and on HICON (sharing: object locks must not lose much).
	w = DefaultWorkload(HiCon)
	for _, gran := range []core.Granularity{core.GranAdaptive, core.GranObject} {
		cfg := core.DefaultConfig()
		cfg.Granularity = gran
		res, err := Run(cfg, w, 4, p.Txns, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("E10 hicon gran=%v: %w", gran, err)
		}
		t.Add("HICON "+gran.String(), "msgs/commit", fmt.Sprintf("%.1f", res.MsgsPerCommit()))
	}
	return t, nil
}
