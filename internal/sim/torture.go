package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"clientlog/internal/core"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/page"
	"clientlog/internal/trace"
)

// TortureOptions parameterizes a randomized crash-recovery torture run.
type TortureOptions struct {
	Seed          int64
	Rounds        int
	Clients       int
	Pages         int
	Slots         int
	ServerCrashes bool
	// Diskless makes the first client log to a server-hosted remote log
	// (Section 2's diskless option), covering that path in the torture
	// matrix too.
	Diskless bool
	// Churn adds a membership-storm band to the schedule: clients other
	// than the verify reader randomly depart cleanly (RemoveClient) and
	// rejoin as fresh clients, or crash+restart in bursts.
	Churn bool
	// LogSlots, when positive, caps every client's private log at
	// roughly LogSlots records (§3.6 sustained pressure: freeLogSpace
	// and the replace-and-force path fire continuously).  0 leaves the
	// log unbounded.
	LogSlots int
	// Partitions runs the schedule against a hash-partitioned server
	// fleet of that size (0 or 1 = the classic single server).  With a
	// fleet, half the server-crash rounds become partition-scoped: one
	// member crashes and restarts while the rest of the fleet and every
	// client keep running.
	Partitions int
}

// tortureLogSlotBytes approximates one private-log record (an update
// record with a 16-byte value is about 55 bytes with its frame; the
// rest is slack for commit and compensation records) when translating
// the LogSlots knob into a byte capacity.
const tortureLogSlotBytes = 80

// applyConfig translates the option knobs that live in core.Config.
func (opt TortureOptions) applyConfig(cfg core.Config) core.Config {
	if opt.LogSlots > 0 {
		cfg.ClientLogCapacity = uint64(opt.LogSlots) * tortureLogSlotBytes
	}
	if opt.Partitions > 1 {
		cfg.Partitions = opt.Partitions
	}
	return cfg
}

// DefaultTortureOptions returns a moderate schedule (no churn,
// unbounded private logs — the historical matrix).
func DefaultTortureOptions(seed int64) TortureOptions {
	return TortureOptions{Seed: seed, Rounds: 150, Clients: 3, Pages: 4, Slots: 8, ServerCrashes: true}
}

// TortureStats summarizes what a run exercised.
type TortureStats struct {
	Commits       uint64
	Aborts        uint64
	ClientCrashes int
	ServerCrashes int
	// PartitionCrashes counts partition-scoped crash+restart rounds
	// (single fleet member down, clients stay up; fleet runs only).
	PartitionCrashes int
	Complex          int
	Verifications    int
	// ServerLogCheckpoints counts the checkpoints the server engines took
	// to reclaim their own logs.
	ServerLogCheckpoints uint64
	// LogFullEvents counts the appends that found a client's bounded
	// private log full and ran §3.6 log-space freeing.
	LogFullEvents uint64
	// Churn accounting (zero unless TortureOptions.Churn).
	Leaves int
	Joins  int
	// WaitsFor is the fleet-merged waits-for graph captured when a run
	// fails (zero value on success), so cross-partition deadlock
	// post-mortems are self-contained in the failure output.
	WaitsFor lock.WaitsForSnapshot
}

// VerifyEveryRound makes Torture check the reference state after every
// round (debugging aid; quadratic cost).
var VerifyEveryRound = false

// harness drives the randomized crash-recovery schedule against a
// cluster while maintaining a sequential reference state.  Torture owns
// a plain cluster; Chaos reuses the same schedule over fault-injected
// transports.
type harness struct {
	cl      *core.Cluster
	ring    *trace.Ring
	opt     TortureOptions
	r       *rand.Rand
	ids     []page.ID
	clients []ident.ClientID
	ref     map[page.ObjectID][]byte
	writer  map[page.ObjectID]string
	stats   TortureStats

	// PSN watermarks for the monotonicity invariant: disk PSNs never
	// regress; the server's current PSN never regresses between server
	// crashes (a crash may lose unforced pool copies).
	maxDiskPSN map[page.ID]page.PSN
	maxCurPSN  map[page.ID]page.PSN
}

// newHarness seeds the database, joins the clients and builds the
// reference state.  The cluster must be freshly constructed (its conn
// wrappers, if any, installed).
func newHarness(cl *core.Cluster, ring *trace.Ring, opt TortureOptions) (*harness, error) {
	h := &harness{
		cl:         cl,
		ring:       ring,
		opt:        opt,
		r:          rand.New(rand.NewSource(opt.Seed)),
		ref:        make(map[page.ObjectID][]byte),
		writer:     make(map[page.ObjectID]string),
		maxDiskPSN: make(map[page.ID]page.PSN),
		maxCurPSN:  make(map[page.ID]page.PSN),
	}
	cl.SetTracer(ring)
	ids, err := cl.SeedPages(opt.Pages, opt.Slots, 16)
	if err != nil {
		return nil, err
	}
	h.ids = ids
	for i := 0; i < opt.Clients; i++ {
		var c *core.Client
		if i == 0 && opt.Diskless {
			c, err = cl.AddDisklessClient()
		} else {
			c, err = cl.AddClient()
		}
		if err != nil {
			return nil, err
		}
		h.clients = append(h.clients, c.ID())
	}
	for _, pid := range ids {
		for s := 0; s < opt.Slots; s++ {
			data := make([]byte, 16)
			for b := range data {
				data[b] = byte(uint64(pid)*31 + uint64(s)*7 + uint64(b))
			}
			h.ref[page.ObjectID{Page: pid, Slot: uint16(s)}] = data
		}
	}
	return h, nil
}

// checkPSNs asserts the PSN monotonicity invariant and advances the
// watermarks.
func (h *harness) checkPSNs(tag string) error {
	for _, pid := range h.ids {
		disk, cur := h.cl.PagePSNs(pid)
		if disk < h.maxDiskPSN[pid] {
			return fmt.Errorf("%s: page %d disk PSN regressed %d -> %d (seed %d)",
				tag, pid, h.maxDiskPSN[pid], disk, h.opt.Seed)
		}
		if cur < h.maxCurPSN[pid] {
			return fmt.Errorf("%s: page %d server PSN regressed %d -> %d without a server crash (seed %d)",
				tag, pid, h.maxCurPSN[pid], cur, h.opt.Seed)
		}
		h.maxDiskPSN[pid] = disk
		h.maxCurPSN[pid] = cur
	}
	return nil
}

// verify checks every object against the reference state through a real
// reader transaction, then checks the PSN invariant.
func (h *harness) verify(tag string) error {
	h.stats.Verifications++
	reader := h.cl.Client(h.clients[0])
	txn, err := reader.Begin()
	if err != nil {
		return fmt.Errorf("%s: begin: %w", tag, err)
	}
	defer txn.Commit()
	for obj, want := range h.ref {
		got, err := txn.Read(obj)
		if err != nil {
			return fmt.Errorf("%s: read %v: %w", tag, obj, err)
		}
		if !bytes.Equal(got, want) {
			hist := ""
			for _, e := range h.ring.Snapshot() {
				if e.Page == obj.Page || e.Page == 0 {
					hist += e.String() + "\n"
				}
			}
			glms := ""
			for p, s := range h.cl.Servers() {
				glms += fmt.Sprintf("partition %d:\n%s", p, s.GLM().DumpState())
			}
			return fmt.Errorf("%s: object %v diverged (seed %d): got %x want %x writer=%s\n%s\nGLM:\n%s\nhistory:\n%s",
				tag, obj, h.opt.Seed, got[:4], want[:4], h.writer[obj],
				h.cl.DebugPage(obj.Page), glms, hist)
		}
	}
	return h.checkPSNs(tag)
}

// run executes the round schedule.
func (h *harness) run() error {
	opt, r := h.opt, h.r
	for round := 0; round < opt.Rounds; round++ {
		h.ring.Record(trace.RecoveryStep, 0, 0, fmt.Sprintf("=== round %d", round))
		switch action := r.Intn(100); {
		case opt.Churn && opt.Clients > 1 && action < 8:
			// Membership storm.  The verify reader (index 0, also the
			// diskless slot) never churns; everyone else either departs
			// cleanly and rejoins as a fresh client, or crash+restarts
			// in a burst of up to two.
			if r.Intn(2) == 0 {
				idx := 1 + r.Intn(opt.Clients-1)
				id := h.clients[idx]
				h.ring.Record(trace.RecoveryStep, id, 0, "CLIENT LEAVE+REJOIN")
				if err := h.cl.RemoveClient(id); err != nil {
					return fmt.Errorf("churn leave (seed %d): %w", opt.Seed, err)
				}
				h.stats.Leaves++
				c, err := h.cl.AddClient()
				if err != nil {
					return fmt.Errorf("churn rejoin (seed %d): %w", opt.Seed, err)
				}
				h.clients[idx] = c.ID()
				h.stats.Joins++
			} else {
				burst := 1 + r.Intn(2)
				seen := make(map[int]bool)
				var down []int
				for k := 0; k < burst; k++ {
					idx := 1 + r.Intn(opt.Clients-1)
					if seen[idx] {
						continue
					}
					seen[idx] = true
					down = append(down, idx)
					h.ring.Record(trace.RecoveryStep, h.clients[idx], 0, "CHURN BURST CRASH")
					h.cl.CrashClient(h.clients[idx])
				}
				for _, idx := range down {
					if _, err := h.cl.RestartClient(h.clients[idx]); err != nil {
						return fmt.Errorf("churn burst restart (seed %d): %w", opt.Seed, err)
					}
					h.stats.ClientCrashes++
				}
			}
		case action < 70:
			c := h.cl.Client(h.clients[r.Intn(opt.Clients)])
			txn, err := c.Begin()
			if err != nil {
				return err
			}
			pending := make(map[page.ObjectID][]byte)
			bad := false
			for i := 0; i < 1+r.Intn(4); i++ {
				obj := page.ObjectID{Page: h.ids[r.Intn(opt.Pages)], Slot: uint16(r.Intn(opt.Slots))}
				v := make([]byte, 16)
				_, _ = r.Read(v)
				if err := txn.Overwrite(obj, v); err != nil {
					// §3.6 log pressure (LogSlots) surfaces ErrNoLogSpace;
					// like a deadlock it means abort and move on — the undo
					// reservation guarantees the abort itself can log.
					if !errors.Is(err, lock.ErrDeadlock) && !errors.Is(err, lock.ErrTimeout) &&
						!errors.Is(err, core.ErrNoLogSpace) {
						return err
					}
					if aerr := txn.Abort(); aerr != nil {
						return fmt.Errorf("abort after %v (seed %d): %w", err, opt.Seed, aerr)
					}
					h.stats.Aborts++
					bad = true
					break
				}
				pending[obj] = v
			}
			if bad {
				continue
			}
			if r.Intn(4) == 0 {
				if err := txn.Abort(); err != nil {
					return err
				}
				h.stats.Aborts++
				continue
			}
			// A commit applies the writes still waiting for their locks
			// first, so it fails as they would have.
			if err := txn.Commit(); err != nil {
				if !errors.Is(err, lock.ErrDeadlock) && !errors.Is(err, lock.ErrTimeout) &&
					!errors.Is(err, core.ErrNoLogSpace) {
					return err
				}
				if aerr := txn.Abort(); aerr != nil {
					return fmt.Errorf("abort after failed commit (seed %d): %w", opt.Seed, aerr)
				}
				h.stats.Aborts++
				continue
			}
			h.stats.Commits++
			for obj, v := range pending {
				h.ref[obj] = v
				h.writer[obj] = fmt.Sprintf("%v@round%d", c.ID(), round)
				h.ring.Record(trace.LockGrant, c.ID(), obj.Page,
					fmt.Sprintf("committed obj=%v val=%x", obj, v[:4]))
			}
		case action < 78:
			c := h.cl.Client(h.clients[r.Intn(opt.Clients)])
			if err := c.ReplacePage(h.ids[r.Intn(opt.Pages)]); err != nil {
				return err
			}
		case action < 83:
			c := h.cl.Client(h.clients[r.Intn(opt.Clients)])
			if err := c.Checkpoint(); err != nil && !errors.Is(err, core.ErrNoLogSpace) {
				return err
			}
		case action < 93:
			id := h.clients[r.Intn(opt.Clients)]
			h.ring.Record(trace.RecoveryStep, id, 0, "CLIENT CRASH+RESTART")
			h.cl.CrashClient(id)
			if _, err := h.cl.RestartClient(id); err != nil {
				return fmt.Errorf("client restart (seed %d): %w", opt.Seed, err)
			}
			h.stats.ClientCrashes++
		default:
			if !opt.ServerCrashes {
				continue
			}
			// In a fleet, half the crash rounds take down a single
			// partition while the rest of the fleet and every client keep
			// running; clients are never crashed alongside an independent
			// partition crash (see DESIGN.md §12).  The extra randomness is
			// drawn only when partitioned, so single-server schedules stay
			// identical per seed.
			if h.cl.Partitions() > 1 && r.Intn(2) == 0 {
				p := r.Intn(h.cl.Partitions())
				h.ring.Record(trace.RecoveryStep, 0, 0, fmt.Sprintf("PARTITION %d CRASH", p))
				h.cl.CrashPartition(p)
				// Only the crashed member's unforced pool copies died.
				for pid := range h.maxCurPSN {
					if h.cl.Owner(pid) == p {
						delete(h.maxCurPSN, pid)
					}
				}
				if err := h.cl.RestartPartition(p); err != nil {
					return fmt.Errorf("partition %d restart (seed %d): %w", p, opt.Seed, err)
				}
				h.stats.PartitionCrashes++
				break
			}
			var down []ident.ClientID
			if r.Intn(2) == 0 {
				down = append(down, h.clients[r.Intn(opt.Clients)])
			}
			h.ring.Record(trace.RecoveryStep, 0, 0, fmt.Sprintf("SERVER CRASH down=%v", down))
			h.cl.CrashServer(down...)
			// Unforced pool copies died with the server; the current-PSN
			// watermark restarts from the surviving disk state.
			for pid := range h.maxCurPSN {
				delete(h.maxCurPSN, pid)
			}
			if err := h.cl.RestartServer(); err != nil {
				return fmt.Errorf("server restart (seed %d): %w", opt.Seed, err)
			}
			for _, id := range down {
				if _, err := h.cl.RestartClient(id); err != nil {
					return fmt.Errorf("complex restart (seed %d): %w", opt.Seed, err)
				}
			}
			h.stats.ServerCrashes++
			if len(down) > 0 {
				h.stats.Complex++
			}
		}
		if VerifyEveryRound || round%40 == 39 {
			if err := h.verify(fmt.Sprintf("round %d", round)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Torture drives a deterministic random schedule of transactions,
// cache replacements, checkpoints and crashes against a cluster while
// maintaining a sequential reference state; it fails if the recovered
// database ever diverges from a replay of exactly the committed
// transactions.  This is the engine behind cmd/crashtest.
func Torture(cfg core.Config, opt TortureOptions) (TortureStats, error) {
	cl := core.NewCluster(opt.applyConfig(cfg))
	defer cl.Close()
	h, err := newHarness(cl, trace.NewRing(8192), opt)
	if err != nil {
		return TortureStats{}, err
	}
	if err := h.run(); err != nil {
		h.stats.WaitsFor = cl.WaitsFor()
		return h.stats, err
	}
	if err := h.verify("final"); err != nil {
		h.stats.WaitsFor = cl.WaitsFor()
		return h.stats, err
	}
	snap := cl.Registry().Snapshot()
	h.stats.ServerLogCheckpoints = snap.Total("server_log_checkpoints_total")
	h.stats.LogFullEvents = snap.Total("client_log_full_total")
	return h.stats, nil
}
