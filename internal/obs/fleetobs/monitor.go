package fleetobs

import (
	"sync"
	"time"

	"clientlog/internal/obs"
)

// Metric families the rolling layer reads.  All of them already exist
// on the member registries; the monitor only windows them.
const (
	famCommits       = "client_commits_total"
	famAborts        = "client_aborts_total"
	famDeadlocks     = "lock_deadlocks_total"
	famCorrupt       = "netrpc_corrupt_frames_total"
	famReclaimFail   = "client_log_reclaim_fail_total"
	famForcedShips   = "client_forced_ships_total"
	famLockGrants    = "lock_grants_total"
	famPageGrants    = "lock_page_grants_total"
	famWireFrames    = "netrpc_frames_total"
	famFramesSent    = "netrpc_frames_sent_total"
	famFramesRecv    = "netrpc_frames_recv_total"
	famBucketNanos   = "span_bucket_exclusive_nanos"
	famCommitNanos   = "span_commit_path_nanos"
	bucketLockWait   = "lock-wait"
	defaultWindow    = 16
	defaultHoldScans = 2
)

// sample is one scrape of every source.
type sample struct {
	at    time.Time
	snaps map[string]obs.Snapshot
}

// Monitor maintains a ring of periodic samples over the plane's
// sources and computes live rates from the oldest-to-newest delta.
// Tick is public so tests (and one-shot tools) can drive it
// deterministically instead of running the background loop.
type Monitor struct {
	sources []Source
	window  int

	mu      sync.Mutex
	samples []sample // oldest first

	stopOnce sync.Once
	stopC    chan struct{}
	done     chan struct{}
}

// NewMonitor builds a monitor over sources retaining at most window
// samples (defaultWindow if <= 1).
func NewMonitor(sources []Source, window int) *Monitor {
	if window <= 1 {
		window = defaultWindow
	}
	return &Monitor{
		sources: sources,
		window:  window,
		stopC:   make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Tick scrapes every source once and appends the sample to the ring.
// A source that fails to scrape contributes an empty snapshot for this
// sample (its rates read as zero rather than poisoning the window).
func (m *Monitor) Tick() {
	s := sample{at: time.Now(), snaps: make(map[string]obs.Snapshot, len(m.sources))}
	for _, src := range m.sources {
		snap, err := src.Snapshot()
		if err != nil {
			snap = obs.Snapshot{}
		}
		s.snaps[src.Name()] = snap
	}
	m.mu.Lock()
	m.samples = append(m.samples, s)
	if len(m.samples) > m.window {
		m.samples = m.samples[len(m.samples)-m.window:]
	}
	m.mu.Unlock()
}

// Start runs Tick every interval until Stop.
func (m *Monitor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stopC:
				return
			case <-t.C:
				m.Tick()
			}
		}
	}()
}

// Stop ends the background loop (idempotent; harmless if Start was
// never called — the done channel just stays open in that case).
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stopC) })
}

// PartitionRates is the per-member slice of the fleet rates.
type PartitionRates struct {
	// WorkPerSec is the member's lock-grant rate (wire-frame rate when
	// the member exposes no lock metrics) — the balance proxy for
	// commit share, since commits themselves are client-side.
	WorkPerSec float64 `json:"work_per_sec"`
	// Share is this member's fraction of the fleet's work rate.
	Share           float64 `json:"share"`
	DeadlocksPerSec float64 `json:"deadlocks_per_sec"`
	// GobEscapeShare is the fraction of the member's wire frames that
	// took the gob escape hatch over the window.
	GobEscapeShare float64 `json:"gob_escape_share"`
}

// Rates is the rolling-window view the /rates and /alerts endpoints
// serve.
type Rates struct {
	WindowSec           float64                   `json:"window_sec"`
	Samples             int                       `json:"samples"`
	CommitsPerSec       float64                   `json:"commits_per_sec"`
	AbortsPerSec        float64                   `json:"aborts_per_sec"`
	AbortRate           float64                   `json:"abort_rate"`
	DeadlocksPerSec     float64                   `json:"deadlocks_per_sec"`
	CorruptFramesPerSec float64                   `json:"corrupt_frames_per_sec"`
	LogPressurePerSec   float64                   `json:"log_pressure_per_sec"`
	LockWaitShareP95    float64                   `json:"lock_wait_share_p95"`
	Partitions          map[string]PartitionRates `json:"partitions"`
}

// delta sums a counter family across every source at both window ends
// and returns the increase.
func deltaTotal(oldest, newest sample, family string) uint64 {
	var a, b uint64
	for _, s := range oldest.snaps {
		a += s.Total(family)
	}
	for _, s := range newest.snaps {
		b += s.Total(family)
	}
	if b < a {
		return 0
	}
	return b - a
}

// Rates computes the oldest-to-newest rates; ok is false until two
// samples exist.
func (m *Monitor) Rates() (Rates, bool) {
	m.mu.Lock()
	if len(m.samples) < 2 {
		m.mu.Unlock()
		return Rates{}, false
	}
	oldest, newest := m.samples[0], m.samples[len(m.samples)-1]
	m.mu.Unlock()

	sec := newest.at.Sub(oldest.at).Seconds()
	if sec <= 0 {
		sec = 1e-9
	}
	per := func(v uint64) float64 { return float64(v) / sec }

	r := Rates{
		WindowSec:           sec,
		Samples:             len(m.samples),
		CommitsPerSec:       per(deltaTotal(oldest, newest, famCommits)),
		AbortsPerSec:        per(deltaTotal(oldest, newest, famAborts)),
		DeadlocksPerSec:     per(deltaTotal(oldest, newest, famDeadlocks)),
		CorruptFramesPerSec: per(deltaTotal(oldest, newest, famCorrupt)),
		LogPressurePerSec: per(deltaTotal(oldest, newest, famReclaimFail) +
			deltaTotal(oldest, newest, famForcedShips)),
		Partitions: make(map[string]PartitionRates),
	}
	if c := r.CommitsPerSec + r.AbortsPerSec; c > 0 {
		r.AbortRate = r.AbortsPerSec / c
	}

	// p95 lock-wait share of the commit path over the window, from the
	// client-side span histograms (servers never publish, so only
	// client sources feed these).
	var lw, cp obs.HistView
	for name, s := range newest.snaps {
		o := oldest.snaps[name]
		lw = lw.Merge(s.HistWhere(famBucketNanos, obs.T("bucket", bucketLockWait)).
			Sub(o.HistWhere(famBucketNanos, obs.T("bucket", bucketLockWait))))
		cp = cp.Merge(s.Hist(famCommitNanos).Sub(o.Hist(famCommitNanos)))
	}
	if cpP95 := cp.Quantile(0.95); cpP95 > 0 {
		r.LockWaitShareP95 = float64(lw.Quantile(0.95)) / float64(cpP95)
	}

	// Per-partition work rates and shares.
	var fleetWork float64
	for _, src := range m.sources {
		if src.IsClient() {
			continue
		}
		name := src.Name()
		o, n := oldest.snaps[name], newest.snaps[name]
		sub := func(family string) uint64 {
			b, a := n.Total(family), o.Total(family)
			if b < a {
				return 0
			}
			return b - a
		}
		work := sub(famLockGrants) + sub(famPageGrants)
		if work == 0 {
			work = sub(famFramesSent) + sub(famFramesRecv)
		}
		if work == 0 {
			work = sub(famWireFrames)
		}
		pr := PartitionRates{
			WorkPerSec:      per(work),
			DeadlocksPerSec: per(sub(famDeadlocks)),
		}
		subWhere := func(family string, t obs.Tag) uint64 {
			b, a := n.TotalWhere(family, t), o.TotalWhere(family, t)
			if b < a {
				return 0
			}
			return b - a
		}
		frames := sub(famWireFrames)
		if frames > 0 {
			esc := subWhere(famWireFrames, obs.T("version", "v3gob"))
			pr.GobEscapeShare = float64(esc) / float64(frames)
		}
		fleetWork += pr.WorkPerSec
		r.Partitions[name] = pr
	}
	if fleetWork > 0 {
		for name, pr := range r.Partitions {
			pr.Share = pr.WorkPerSec / fleetWork
			r.Partitions[name] = pr
		}
	}
	return r, true
}
