package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fleet"
	"clientlog/internal/msg"
	"clientlog/internal/netrpc"
	"clientlog/internal/obs"
	"clientlog/internal/obs/fleetobs"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// E16 prices the fleet observability plane: the same 3-partition TCP
// fleet runs once dark (no registries bound, no span sampling, wire
// accounting off — the zero-cost path every subsystem promises) and
// once fully instrumented the way cmd/clsrv + cmd/fleetprobe wire it
// (per-partition registries and wire stats, span sampling on client
// and servers, a fleet monitor scraping every member on a 100ms
// cadence).  The throughput gap between the cells is the cost of
// looking.  The instrumented cell also emits the per-partition
// breakdown the plane serves live — work (commit-proxy) share,
// deadlock kills, gob-escape frame share — into BENCH_E16.json.

const (
	e16Partitions   = 3
	e16PagesPerPart = 16
	e16SlotsPerPage = 8
	// e16Spans matches the live default sampling cost, not the probe's
	// sample-everything setting: the gate prices production wiring.
	e16SampleEvery = 8
	e16ScrapeEvery = 100 * time.Millisecond
)

// e16Part is one partition's slice of the instrumented cell.
type e16Part struct {
	workPerSec    float64
	share         float64
	deadlockKills uint64
	gobEscape     float64
}

// e16Cell is one (obs, population) measurement.
type e16Cell struct {
	obsOn      bool
	clients    int
	commits    uint64
	aborts     uint64
	elapsed    time.Duration
	p50, p95   time.Duration
	partitions map[string]e16Part // instrumented cell only
}

func (c e16Cell) throughput() float64 {
	if c.elapsed <= 0 {
		return 0
	}
	return float64(c.commits) / c.elapsed.Seconds()
}

// e16Run drives clients*txns single-object transactions (half reads,
// half updates, uniform across the partitioned page space) through a
// real 3-partition TCP fleet, instrumented or dark per obsOn.
func e16Run(obsOn bool, clients, txns int, seed int64, wall time.Duration) (e16Cell, error) {
	cell := e16Cell{obsOn: obsOn, clients: clients}

	type member struct {
		srv *netrpc.Server
		reg *obs.Registry
	}
	var (
		parts   []member
		addrs   []string
		sources []fleetobs.Source
		ids     []page.ID
	)
	defer func() {
		for _, m := range parts {
			m.srv.Close()
		}
	}()
	for i := 0; i < e16Partitions; i++ {
		cfg := core.DefaultConfig()
		cfg.LockTimeout = 5 * time.Second
		cfg.Partitions = e16Partitions
		cfg.PartitionIndex = i
		var spans *span.Store
		if obsOn {
			spans = span.NewStore(span.Options{SampleEvery: e16SampleEvery, Capacity: 2048})
			cfg.Spans = spans
		}
		store := storage.NewMemStore(cfg.PageSize)
		// Each partition mints only ids it owns (id % N == i), exactly
		// like a clsrv fleet member.
		store.SetAllocStride(e16Partitions, i)
		for p := 0; p < e16PagesPerPart; p++ {
			pg, err := store.Allocate()
			if err != nil {
				return cell, err
			}
			for s := 0; s < e16SlotsPerPage; s++ {
				if _, _, err := pg.Insert(make([]byte, 16)); err != nil {
					return cell, err
				}
			}
			if err := store.Write(pg); err != nil {
				return cell, err
			}
			ids = append(ids, pg.ID())
		}
		engine := core.NewServer(cfg, store, wal.NewMemStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cell, err
		}
		srv := netrpc.Serve(engine, ln)
		m := member{srv: srv}
		if obsOn {
			// The full per-member wiring: engine counters, span
			// histograms, and a private wire-stats sink so this
			// partition's frame accounting stays its own even though
			// the whole fleet shares the process.
			m.reg = obs.NewRegistry()
			engine.RegisterObs(m.reg)
			spans.RegisterObs(m.reg)
			ws := &netrpc.WireStats{}
			ws.RegisterObs(m.reg)
			srv.SetWireStats(ws)
			sources = append(sources, &fleetobs.LocalSource{
				SourceName: fmt.Sprintf("p%d", i),
				Registry:   m.reg,
				Spans:      spans,
			})
		}
		parts = append(parts, m)
		addrs = append(addrs, srv.Addr().String())
	}

	type peer struct {
		c   *core.Client
		trs []*netrpc.Transport
	}
	var peers []peer
	defer func() {
		for _, p := range peers {
			for _, tr := range p.trs {
				tr.Close()
			}
		}
	}()
	clientReg := obs.NewRegistry()
	for i := 0; i < clients; i++ {
		var (
			trs  []*netrpc.Transport
			srvs []msg.Server
		)
		for _, a := range addrs {
			tr, err := netrpc.Dial(a)
			if err != nil {
				return cell, fmt.Errorf("dial client %d -> %s: %w", i, a, err)
			}
			trs = append(trs, tr)
			srvs = append(srvs, tr)
		}
		cfg := core.DefaultConfig()
		cfg.LockTimeout = 5 * time.Second
		var spans *span.Store
		if obsOn {
			spans = span.NewStore(span.Options{SampleEvery: e16SampleEvery, Capacity: 2048})
			cfg.Spans = spans
		}
		c, err := core.NewClient(cfg, fleet.NewRouter(srvs), wal.NewMemStore(0))
		if err != nil {
			for _, tr := range trs {
				tr.Close()
			}
			return cell, fmt.Errorf("register client %d: %w", i, err)
		}
		for _, tr := range trs {
			tr.SetLocal(c)
		}
		peers = append(peers, peer{c: c, trs: trs})
		if obsOn {
			// One shared client registry: RegisterObs scopes each
			// client's counters, and the monitor only needs fleet sums.
			c.RegisterObs(clientReg)
			if i == 0 {
				spans.RegisterObs(clientReg)
				sources = append(sources, &fleetobs.LocalSource{
					SourceName: "clients", Client: true,
					Registry: clientReg, Spans: spans,
				})
			}
		}
	}

	// The monitor scrapes on the live cadence for the whole run so its
	// cost is inside the measurement, with a wide window so the final
	// rates cover the run end to end.
	var mon *fleetobs.Monitor
	if obsOn {
		mon = fleetobs.NewMonitor(sources, 1024)
		mon.Tick()
		mon.Start(e16ScrapeEvery)
	}

	deadline := time.Now().Add(wall)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		commits  uint64
		aborts   uint64
		lats     []time.Duration
		firstErr error
	)
	start := time.Now()
	for i, p := range peers {
		wg.Add(1)
		go func(idx int, c *core.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(idx)*7919))
			myLats := make([]time.Duration, 0, txns)
			var myCommits, myAborts uint64
			for t := 0; t < txns && time.Now().Before(deadline); t++ {
				obj := page.ObjectID{
					Page: ids[rng.Intn(len(ids))],
					Slot: uint16(rng.Intn(e16SlotsPerPage)),
				}
				t0 := time.Now()
				txn, err := c.Begin()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d begin: %w", idx, err)
					}
					mu.Unlock()
					return
				}
				if rng.Intn(2) == 0 {
					_, err = txn.Read(obj)
				} else {
					// Slot overwrites must match the seeded 16-byte objects.
					err = txn.Overwrite(obj, []byte(fmt.Sprintf("c%03d-t%07d!!!!", idx, t)[:16]))
				}
				if err != nil {
					txn.Abort()
					myAborts++
					continue
				}
				if err := txn.Commit(); err != nil {
					myAborts++
					continue
				}
				myCommits++
				myLats = append(myLats, time.Since(t0))
			}
			mu.Lock()
			commits += myCommits
			aborts += myAborts
			lats = append(lats, myLats...)
			mu.Unlock()
		}(i, p.c)
	}
	wg.Wait()
	cell.elapsed = time.Since(start)
	if firstErr != nil {
		return cell, firstErr
	}
	if commits == 0 {
		return cell, errors.New("E16: nothing committed")
	}
	cell.commits = commits
	cell.aborts = aborts
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	cell.p50 = lats[len(lats)/2]
	cell.p95 = lats[len(lats)*95/100]

	if obsOn {
		mon.Stop()
		mon.Tick() // final sample covering the tail of the run
		r, ok := mon.Rates()
		if !ok {
			return cell, errors.New("E16: monitor produced no rates")
		}
		cell.partitions = make(map[string]e16Part, len(r.Partitions))
		for name, pr := range r.Partitions {
			cell.partitions[name] = e16Part{
				workPerSec: pr.WorkPerSec,
				share:      pr.Share,
				gobEscape:  pr.GobEscapeShare,
			}
		}
		for i, m := range parts {
			name := fmt.Sprintf("p%d", i)
			pp := cell.partitions[name]
			pp.deadlockKills = m.reg.Snapshot().Total("lock_deadlocks_total")
			cell.partitions[name] = pp
		}
	}
	return cell, nil
}

// E16ObsOverhead runs the same TCP fleet workload dark and fully
// instrumented and reports what the observability plane costs, plus
// the per-partition breakdown the instrumented fleet serves.
func E16ObsOverhead(p Params) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "fleet observability overhead: 3-partition TCP fleet, dark vs full plane",
		Columns: []string{"obs", "clients", "commits/s", "p95", "overhead"},
		Notes: "expected shape: single-digit-percent throughput cost — counters are " +
			"lock-free atomics, span buffering is per-transaction slices with 1/8 " +
			"head sampling, wire accounting is a fixed-index array hit per frame, " +
			"and the 100ms fleet scrape walks registries off the hot path; run-to-" +
			"run noise on loopback TCP can exceed the true cost, so gate on a " +
			"generous bound, not on the point estimate; the per-partition breakdown " +
			"(work share, deadlock kills, gob-escape frame share) only exists in " +
			"the instrumented cell — that asymmetry is the feature being priced",
	}
	txns := p.Txns
	if txns < 20 {
		txns = 20
	}
	wall := 3 * time.Second
	if p.Txns >= 100 {
		wall = 8 * time.Second
	}
	for _, n := range tcpPopulations(p) {
		var dark e16Cell
		for _, on := range []bool{false, true} {
			cell, err := e16Run(on, n, txns, p.Seed, wall)
			if err != nil {
				return nil, fmt.Errorf("E16 obs=%v/%d clients: %w", on, n, err)
			}
			label, overhead := "dark", "-"
			rec := map[string]any{
				"obs":         on,
				"clients":     n,
				"commits":     cell.commits,
				"aborts":      cell.aborts,
				"elapsed_sec": cell.elapsed.Seconds(),
				"ops_per_sec": cell.throughput(),
				"lat_p50_ns":  cell.p50.Nanoseconds(),
				"lat_p95_ns":  cell.p95.Nanoseconds(),
			}
			if on {
				label = "full-plane"
				oh := 0.0
				if dark.throughput() > 0 {
					oh = (dark.throughput() - cell.throughput()) / dark.throughput() * 100
				}
				overhead = fmt.Sprintf("%+.1f%%", oh)
				rec["overhead_pct"] = oh
				parts := make(map[string]any, len(cell.partitions))
				for name, pp := range cell.partitions {
					parts[name] = map[string]any{
						"work_per_sec":           pp.workPerSec,
						"work_share":             pp.share,
						"deadlock_kills":         pp.deadlockKills,
						"gob_escape_frame_share": pp.gobEscape,
					}
				}
				rec["partitions"] = parts
			} else {
				dark = cell
			}
			t.Add(label, n,
				fmt.Sprintf("%.0f", cell.throughput()),
				cell.p95.Round(time.Microsecond).String(),
				overhead)
			t.AddRaw(rec)
		}
	}
	return t, nil
}

// tcpPopulations derives the TCP client sweep from the params: real
// sockets cap the population well below the lite runner's thousands,
// so a small and a full-size cell are enough to show a trend.
func tcpPopulations(p Params) []int {
	small := p.MaxClients / 4
	if small < 2 {
		small = 2
	}
	if small == p.MaxClients {
		return []int{p.MaxClients}
	}
	return []int{small, p.MaxClients}
}
