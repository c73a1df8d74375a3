package core

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"clientlog/internal/buffer"
	"clientlog/internal/fleet"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/trace"
	"clientlog/internal/wal"
)

// ServerMetrics counts server-side protocol events for the experiments.
type ServerMetrics struct {
	Merges         obs.Counter // page-copy merges performed (§2)
	PageForces     obs.Counter // pages written in place to disk
	Replacements   obs.Counter // replacement log records written (§3.1)
	TokenTransfers obs.Counter // update-token migrations (baseline)
	CallbacksSent  obs.Counter // object callbacks issued
	Deescalations  obs.Counter // page de-escalation callbacks issued
	RecoverySteps  obs.Counter // §3.4/§3.5 recovery steps executed
}

// lockWaitMetrics accumulates, per server subsystem lock, the
// nanoseconds callers spent blocked on it (the mutex_wait_nanos_total
// family; see obs.WaitMutex).
type lockWaitMetrics struct {
	registry  obs.Counter
	pageShard obs.Counter
	notify    obs.Counter
	origins   obs.Counter
	inflight  obs.Counter
	complex   obs.Counter
}

// dctKey identifies a DCT entry: one (page, client) pair.
type dctKey struct {
	pg page.ID
	c  ident.ClientID
}

// dctEntry is one dirty-client-table row (§3.2): the PSN the page had
// the last time it was received from the client (or at the first
// exclusive grant), and the LSN of the first replacement log record
// written for the page after the entry appeared.
type dctEntry struct {
	psn     page.PSN
	redoLSN wal.LSN
}

// pageStateShards is the server's page-state shard count.
const pageStateShards = 16

// pageShard is one independently mutexed slice of the server's
// per-page state: the DCT rows, flush-notification subscriptions,
// update tokens and recovery markers of the pages hashing to it.  The
// shard mutex also serializes access to those pages' CONTENT: the
// buffer pool hands out shared *page.Page values, so every merge,
// marshal or in-place write of a page happens with its shard mutex
// held.
type pageShard struct {
	mu        obs.WaitMutex
	dct       map[dctKey]*dctEntry
	shippedBy map[page.ID]map[ident.ClientID]bool
	tokens    map[page.ID]ident.ClientID
	// recovering marks (page, client) pairs with an in-flight §3.4 page
	// recovery; recovered marks completed ones.  RecoveryFetch consults
	// both: a pair that was never recovering has all its durable state
	// in the server's copy already.
	recovering map[dctKey]bool
	recovered  map[dctKey]bool
}

// Server is the page server: stable storage, the server buffer pool,
// the global lock manager, the server log (replacement records and
// checkpoints) and the DCT.  It implements msg.Server.
//
// Concurrency is per subsystem instead of one big mutex.  The lock
// hierarchy, in acquisition order (see DESIGN.md §10):
//
//	registry (regMu, RW) → GLM shard(s) in ascending order →
//	page shard (one at a time) → notify queue (notifyMu) → WAL
//
// with originsMu, inflightMu, complexMu, traceMu and stateMu as
// independent leaves.  GLM shard mutexes are never held across calls
// back into the server (callbacks run in fresh goroutines), so
// read-only GLM queries from inside a page-shard section (e.g.
// HoldsAnyX during a force) cannot deadlock.  Multi-page operations
// (Checkpoint, FlushAll, snapshots) visit page shards in ascending
// index order holding at most one shard mutex at any moment.
type Server struct {
	cfg   Config
	glm   *lock.GLM
	store storage.Store
	slog  *wal.Log
	pool  *buffer.Pool

	// regMu guards the client registry; admin and data paths share it
	// only for the brief conn lookups, so /waitsfor and friends never
	// block behind commit processing.
	regMu      obs.WaitRWMutex
	clients    map[ident.ClientID]msg.Client
	nextClient uint32

	// pageShards hold the per-page protocol state, hashed by page ID.
	pageShards []pageShard

	// The notify queue: flush notifications are enqueued while a page
	// shard is held and delivered by a self-terminating drain goroutine,
	// so no shard mutex is ever held across client I/O.
	notifyMu       obs.WaitMutex
	notifyPending  []pendingNotify
	notifyDraining bool
	notifyIdle     chan struct{} // closed when the drain goroutine exits

	// originsMu guards pendingOrigins: per requesting client, the
	// callback origins its next Lock reply must carry so it can write
	// callback log records (§3.1).
	originsMu      obs.WaitMutex
	pendingOrigins map[ident.ClientID][]msg.CallbackOrigin

	// inflightMu guards the dedupe table for concurrent identical
	// callbacks and the Lock requests blocked behind in-flight callback
	// applications (see waitInflightClear).
	inflightMu   obs.WaitMutex
	inflight     map[inflightKey]bool
	inflightWait []chan struct{}

	// complexMu guards complexPending: clients that crashed together
	// with the server and have not finished §3.5 recovery.  While it is
	// nonempty, new GLM grants wait: the rebuilt lock tables cannot
	// contain the crashed clients' exclusive locks (lock tables are
	// volatile, paper claim 7), so granting in that window could hand
	// out pages whose freshest state is still being recovered.
	complexMu      obs.WaitMutex
	complexPending map[ident.ClientID]bool
	complexWait    []chan struct{}

	// stateMu guards restart, the state retained from server restart
	// recovery for §3.5 RecoverQuery answers.
	stateMu sync.Mutex
	restart *restartInfo

	// remoteLogs hosts diskless clients' private logs (Section 2);
	// installed before serving, then read-only.
	remoteLogs *RemoteLogHost

	Metrics  ServerMetrics
	lockWait lockWaitMetrics
	tracer   trace.Recorder
	// tracing is false while tracer discards events, so the request paths
	// do not format detail strings nobody will read.
	tracing bool
	// spans stages the server's side of sampled transactions (GLM queue
	// waits, callback round trips, commit processing); nil disables it.
	spans *span.Store
	// spanOrigin names this server on recorded spans ("p1") when it is
	// a fleet member, so @pN provenance survives even when the fleet
	// shares one in-process store; empty for a single server.
	spanOrigin string
	// traceMu guards lockTraces: a client with a sampled Lock in flight
	// maps to its GLM queue-wait span, so the callbacks that wait
	// triggers can parent under it.  Best-effort: a client running
	// concurrent transactions keeps only the newest entry.
	traceMu    sync.Mutex
	lockTraces map[ident.ClientID]span.Context
}

// SetTracer installs a protocol-event recorder (default: discard).
// Install it before the server starts handling requests.
func (s *Server) SetTracer(r trace.Recorder) {
	if r == nil {
		r = trace.Nop{}
	}
	s.tracer = r
	_, nop := r.(trace.Nop)
	s.tracing = !nop
}

// startSpan opens a server-side span labelled with the lock name.  The
// label is formatted only when the span will be kept: span staging on
// and the transaction sampled.
func (s *Server) startSpan(ctx span.Context, cat span.Category, name lock.Name) span.ServerSpan {
	if s.spans == nil || !ctx.Sampled {
		return span.ServerSpan{}
	}
	return s.spans.ServerStart(ctx, cat, name.String()).WithOrigin(s.spanOrigin)
}

// RegisterObs binds the server's metrics — its own protocol counters,
// per-subsystem mutex-wait counters, plus the server log, buffer pool
// and global lock manager — into reg under scope=server.  Safe to call
// on every restart: the registry sums all engines ever bound to a
// series, so /metrics stays monotone while each engine's own Metrics
// start from zero.  In a fleet (Partitions > 1) every series also
// carries partition=<index>, so sum-on-read rebinding stays monotone
// per partition, not just per process — a restarted partition's fresh
// engine binds to the same partition-tagged series its predecessor
// fed.
func (s *Server) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	tags := []obs.Tag{obs.T("scope", "server")}
	if s.cfg.partitions() > 1 {
		tags = append(tags, obs.T("partition", strconv.Itoa(s.cfg.PartitionIndex)))
	}
	bind := func(c *obs.Counter, name string, extra ...obs.Tag) {
		reg.BindCounter(c, name, append(append([]obs.Tag{}, tags...), extra...)...)
	}
	bind(&s.Metrics.Merges, "server_merges_total")
	bind(&s.Metrics.PageForces, "server_page_forces_total")
	bind(&s.Metrics.Replacements, "server_replacements_total")
	bind(&s.Metrics.TokenTransfers, "server_token_transfers_total")
	bind(&s.Metrics.CallbacksSent, "server_callbacks_sent_total")
	bind(&s.Metrics.Deescalations, "server_deescalations_total")
	bind(&s.Metrics.RecoverySteps, "server_recovery_steps_total")
	bind(&s.lockWait.registry, "mutex_wait_nanos_total", obs.T("lock", "registry"))
	bind(&s.lockWait.pageShard, "mutex_wait_nanos_total", obs.T("lock", "page-shard"))
	bind(&s.lockWait.notify, "mutex_wait_nanos_total", obs.T("lock", "notify"))
	bind(&s.lockWait.origins, "mutex_wait_nanos_total", obs.T("lock", "origins"))
	bind(&s.lockWait.inflight, "mutex_wait_nanos_total", obs.T("lock", "inflight"))
	bind(&s.lockWait.complex, "mutex_wait_nanos_total", obs.T("lock", "complex"))
	s.slog.RegisterObs(reg, tags...)
	s.pool.RegisterObs(reg, tags...)
	s.glm.RegisterObs(reg, tags...)
}

type inflightKey struct {
	holder ident.ClientID
	name   lock.Name
	wanted lock.Mode
	deesc  bool
}

// NewServer builds a server engine over existing stable storage and a
// server log (both survive crashes; a restart constructs a fresh Server
// over the same store and log and then runs RecoverServer).
func NewServer(cfg Config, store storage.Store, logStore wal.Store) *Server {
	s := &Server{
		cfg:            cfg,
		store:          store,
		slog:           wal.NewLog(logStore),
		pool:           buffer.New(cfg.ServerPool),
		clients:        make(map[ident.ClientID]msg.Client),
		pageShards:     make([]pageShard, pageStateShards),
		pendingOrigins: make(map[ident.ClientID][]msg.CallbackOrigin),
		inflight:       make(map[inflightKey]bool),
		complexPending: make(map[ident.ClientID]bool),
		spans:          cfg.Spans,
		lockTraces:     make(map[ident.ClientID]span.Context),
	}
	if cfg.partitions() > 1 {
		s.spanOrigin = fmt.Sprintf("p%d", cfg.PartitionIndex)
	}
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.SetWaitCounter(&s.lockWait.pageShard)
		sh.dct = make(map[dctKey]*dctEntry)
		sh.shippedBy = make(map[page.ID]map[ident.ClientID]bool)
		sh.tokens = make(map[page.ID]ident.ClientID)
		sh.recovering = make(map[dctKey]bool)
		sh.recovered = make(map[dctKey]bool)
	}
	s.regMu.SetWaitCounter(&s.lockWait.registry)
	s.notifyMu.SetWaitCounter(&s.lockWait.notify)
	s.originsMu.SetWaitCounter(&s.lockWait.origins)
	s.inflightMu.SetWaitCounter(&s.lockWait.inflight)
	s.complexMu.SetWaitCounter(&s.lockWait.complex)
	s.glm = lock.NewGLM(nil, cfg.LockTimeout)
	s.glm.SetOrigin(cfg.PartitionIndex)
	s.glm.SetCallbacker(serverCallbacker{s})
	s.tracer = trace.Nop{}
	return s
}

// owns reports whether this server instance owns the page under the
// fleet's hash partitioning (always true for a single server).  Routed
// traffic only ever carries owned pages; recovery filters client
// reports with it because clients report fleet-wide state.
func (s *Server) owns(pid page.ID) bool {
	return fleet.Owner(pid, s.cfg.partitions()) == s.cfg.PartitionIndex
}

// Partition returns this instance's partition id (fleet.Member).
func (s *Server) Partition() int { return s.cfg.PartitionIndex }

// WaitsFor exposes the GLM's waits-for snapshot, partition-tagged
// (fleet.Member and the admin /waitsfor endpoint).
func (s *Server) WaitsFor() lock.WaitsForSnapshot { return s.glm.WaitsFor() }

// KillWaiter forwards a distributed-deadlock kill to the GLM
// (fleet.Member).
func (s *Server) KillWaiter(c ident.ClientID, cycle []ident.ClientID) bool {
	return s.glm.KillWaiter(c, cycle)
}

// shardOf maps a page to its page-state shard.
func (s *Server) shardOf(pid page.ID) *pageShard {
	return &s.pageShards[int(uint64(pid)%uint64(len(s.pageShards)))]
}

// GLM exposes the global lock manager (tests and recovery use it).
func (s *Server) GLM() *lock.GLM { return s.glm }

// Log exposes the server log (experiments read its byte counters).
func (s *Server) Log() *wal.Log { return s.slog }

// Store exposes stable storage (experiments read its I/O counters).
func (s *Server) Store() storage.Store { return s.store }

// Attach connects a client conn under the given id; the transport layer
// calls it right after Register.
func (s *Server) Attach(id ident.ClientID, conn msg.Client) {
	s.regMu.Lock()
	s.clients[id] = conn
	if uint32(id) >= s.nextClient {
		s.nextClient = uint32(id)
	}
	s.regMu.Unlock()
}

// conn returns the transport handle for a client.
func (s *Server) conn(id ident.ClientID) msg.Client {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.clients[id]
}

// Register implements msg.Server.
func (s *Server) Register(req msg.RegisterReq) (msg.RegisterReply, error) {
	if req.Recover {
		// §3.3: a crashed client reconnects; the server hands it the
		// exclusive locks it retained and the DCT rows that bound the
		// set of pages needing recovery.
		reply := msg.RegisterReply{ID: req.ID, PageSize: s.store.PageSize()}
		for _, h := range s.glm.HeldBy(req.ID) {
			if h.Mode == lock.X {
				reply.HeldX = append(reply.HeldX, h)
			}
		}
		return reply, nil
	}
	s.regMu.Lock()
	s.nextClient++
	id := ident.ClientID(s.nextClient)
	s.regMu.Unlock()
	return msg.RegisterReply{ID: id, PageSize: s.store.PageSize()}, nil
}

// Lock implements msg.Server: the GLM acquisition, DCT insertion on
// first exclusive grant (§3.2), and delivery of callback origins.
func (s *Server) Lock(req msg.LockReq) (msg.LockReply, error) {
	// Hold new grants while clients that crashed together with the
	// server are still recovering (§3.5): the rebuilt GLM cannot know
	// their exclusive locks, so granting now could expose state their
	// recovery is about to supersede.
	s.waitComplexRecovered(req.Client)
	// Barrier against the callback-application race: if a callback
	// response from this client is still being applied to the GLM, a
	// fresh (non-upgrade) grant for the same resource could be clobbered
	// by the in-flight release.  Wait for the application to finish.
	if !req.Upgrade {
		s.waitInflightClear(req.Client, req.Name)
	}
	sp := s.startSpan(req.Trace, span.CatGLMQueue, req.Name)
	if ctx := sp.Context(); ctx.Sampled {
		s.traceMu.Lock()
		s.lockTraces[req.Client] = ctx
		s.traceMu.Unlock()
		defer func() {
			s.traceMu.Lock()
			delete(s.lockTraces, req.Client)
			s.traceMu.Unlock()
		}()
	}
	grant, err := s.glm.Acquire(lock.Request{
		Client:     req.Client,
		Name:       req.Name,
		Mode:       req.Mode,
		PreferPage: req.PreferPage,
		Upgrade:    req.Upgrade,
	})
	sp.End()
	if err != nil {
		return msg.LockReply{}, err
	}
	if grant.FirstX {
		sh := s.shardOf(grant.Name.Page)
		sh.mu.Lock()
		key := dctKey{pg: grant.Name.Page, c: req.Client}
		if _, ok := sh.dct[key]; !ok {
			psn := page.PSN(0)
			if req.HasCached {
				psn = req.CachedPSN
			} else {
				psn = s.currentPSN(sh, grant.Name.Page)
			}
			sh.dct[key] = &dctEntry{psn: psn, redoLSN: wal.NilLSN}
		}
		delete(sh.recovered, key)
		sh.mu.Unlock()
	}
	s.originsMu.Lock()
	origins := s.pendingOrigins[req.Client]
	delete(s.pendingOrigins, req.Client)
	s.originsMu.Unlock()
	if s.tracing {
		s.tracer.Record(trace.LockGrant, req.Client, grant.Name.Page,
			fmt.Sprintf("grant %v %v", grant.Name, grant.Mode))
	}
	return msg.LockReply{Name: grant.Name, Mode: grant.Mode, Origins: origins}, nil
}

// currentPSN returns the PSN of the server's current copy of the page,
// reading it from disk into the pool if necessary.  Called with the
// page's shard mutex held.
func (s *Server) currentPSN(sh *pageShard, pid page.ID) page.PSN {
	if p, ok := s.pool.Get(pid); ok {
		return p.PSN()
	}
	p, err := s.store.Read(pid)
	if err != nil {
		return 0
	}
	s.pool.Put(p, false)
	return p.PSN()
}

// Unlock implements msg.Server.
func (s *Server) Unlock(req msg.UnlockReq) error {
	switch req.Action {
	case msg.ActionRelease:
		s.glm.Release(req.Client, req.Name)
	case msg.ActionDowngrade:
		s.glm.Downgrade(req.Client, req.Name)
	case msg.ActionDeescalate:
		s.glm.Deescalate(req.Client, req.Name.Page, req.Objs)
	default:
		return fmt.Errorf("core: unknown unlock action %d", req.Action)
	}
	return nil
}

// Fetch implements msg.Server: it returns the server's current copy and
// the DCT PSN for this client (§3.2: sent along with every page; the
// client ignores it during normal processing and installs it during
// restart recovery).
func (s *Server) Fetch(req msg.FetchReq) (msg.FetchReply, error) {
	sh := s.shardOf(req.Page)
	sh.mu.Lock()
	reply, err := s.fetchShard(sh, req.Client, req.Page)
	sh.mu.Unlock()
	s.evict()
	return reply, err
}

// fetchShard builds a FetchReply for (client, page).  Called with
// sh.mu held; the caller runs s.evict() after releasing the shard.
func (s *Server) fetchShard(sh *pageShard, c ident.ClientID, pid page.ID) (msg.FetchReply, error) {
	p, ok := s.pool.Get(pid)
	if !ok {
		read, err := s.store.Read(pid)
		if err != nil {
			return msg.FetchReply{}, err
		}
		s.pool.Put(read, false)
		p = read
	}
	img, err := p.MarshalBinary()
	if err != nil {
		return msg.FetchReply{}, err
	}
	var psn page.PSN
	if e, ok := sh.dct[dctKey{pg: pid, c: c}]; ok {
		psn = e.psn
	}
	return msg.FetchReply{Image: img, DCTPSN: psn}, nil
}

// Ship implements msg.Server: the §2 merge procedure plus DCT and
// flush-notification bookkeeping.
func (s *Server) Ship(req msg.ShipReq) error {
	incoming := new(page.Page)
	if err := incoming.UnmarshalBinary(req.Image); err != nil {
		return err
	}
	sh := s.shardOf(incoming.ID())
	sh.mu.Lock()
	err := s.receiveShard(sh, req.Client, incoming, req.Reason)
	sh.mu.Unlock()
	s.evict()
	s.enforceDirtyLimit()
	// Ship returns only after queued flush notifications are delivered
	// (the client's §3.6 DPT/log-space bookkeeping keys off them); the
	// drain goroutine does the delivery, so no shard mutex is held
	// across client I/O.
	s.notifyBarrier()
	return err
}

// enforceDirtyLimit plays background disk writer: while the pool holds
// more dirty pages than the configured limit, dirty pages are forced to
// disk.  Runs without holding any shard mutex; each force takes its
// page's shard.
func (s *Server) enforceDirtyLimit() {
	if s.cfg.ServerDirtyLimit <= 0 {
		return
	}
	dirty := s.pool.DirtyIDs()
	for len(dirty) > s.cfg.ServerDirtyLimit {
		pid := dirty[0]
		dirty = dirty[1:]
		sh := s.shardOf(pid)
		sh.mu.Lock()
		_, err := s.forcePageShard(sh, pid)
		sh.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// receiveShard merges a page received from a client into the pool and
// updates the DCT entry for (page, client) with the PSN present on the
// received copy (§3.1, §3.2).  Called with sh.mu held.
func (s *Server) receiveShard(sh *pageShard, c ident.ClientID, incoming *page.Page, reason msg.ShipReason) error {
	pid := incoming.ID()
	key := dctKey{pg: pid, c: c}
	if e, ok := sh.dct[key]; ok {
		if incoming.PSN() > e.psn {
			e.psn = incoming.PSN()
		}
	} else {
		sh.dct[key] = &dctEntry{psn: incoming.PSN(), redoLSN: wal.NilLSN}
	}
	if s.tracing {
		s.tracer.Record(trace.PageShip, c, pid, fmt.Sprintf("reason=%d psn=%d", reason, incoming.PSN()))
	}
	cur, ok := s.pool.Get(pid)
	if !ok {
		// §2: read the disk version first, then merge.
		read, err := s.store.Read(pid)
		if err != nil {
			return err
		}
		cur = read
	}
	merged := page.Merge(cur, incoming)
	s.Metrics.Merges.Add(1)
	if s.tracing {
		s.tracer.Record(trace.PageMerge, c, pid, fmt.Sprintf("psn=%d", merged.PSN()))
	}
	s.pool.Put(merged, true)
	if reason == msg.ShipReplace {
		set := sh.shippedBy[pid]
		if set == nil {
			set = make(map[ident.ClientID]bool)
			sh.shippedBy[pid] = set
		}
		set[c] = true
	}
	if reason == msg.ShipRecovery {
		s.markRecovered(sh, pid, c)
	}
	return nil
}

// pendingNotify is one queued flush notification; the drain goroutine
// resolves the client id to a conn at delivery time so no shard mutex
// is ever held across client I/O.
type pendingNotify struct {
	client ident.ClientID
	pid    page.ID
	psn    page.PSN
}

// evict brings the pool back under capacity, forcing dirty victims to
// disk (steal policy).  It runs without holding any shard mutex:
// victims are peeked first, then removed under their own shard so a
// concurrent merge cannot update a copy already on its way to disk.
func (s *Server) evict() {
	for s.pool.NeedsEviction() {
		pid, ok := s.pool.EvictCandidate()
		if !ok {
			return // everything pinned; let the pool run over capacity
		}
		sh := s.shardOf(pid)
		sh.mu.Lock()
		victim, dirty, removed := s.pool.Remove(pid)
		if removed && dirty {
			s.forceImageShard(sh, victim)
		}
		sh.mu.Unlock()
		if !removed {
			// Lost the race (re-gotten or pinned meanwhile); try the next
			// candidate rather than spinning on this one.
			return
		}
	}
}

// forcePageShard forces the current copy of pid to disk.  Called with
// sh.mu held.
func (s *Server) forcePageShard(sh *pageShard, pid page.ID) (page.PSN, error) {
	p, ok := s.pool.Get(pid)
	if !ok {
		// Nothing cached: the disk version is current.
		psn := s.currentPSN(sh, pid)
		s.queueNotifyShard(sh, pid, psn)
		return psn, nil
	}
	if !s.pool.IsDirty(pid) {
		s.queueNotifyShard(sh, pid, p.PSN())
		return p.PSN(), nil
	}
	if err := s.forceImageShard(sh, p); err != nil {
		return 0, err
	}
	s.pool.Clean(pid)
	return p.PSN(), nil
}

// forceImageShard writes the replacement log record (§3.1) and then the
// page in place.  Called with sh.mu held (the page hashes to sh).
func (s *Server) forceImageShard(sh *pageShard, p *page.Page) error {
	pid := p.ID()
	rec := &wal.Replacement{Page: pid, PagePSN: p.PSN()}
	for k, e := range sh.dct {
		if k.pg == pid {
			rec.Entries = append(rec.Entries, wal.ReplEntry{Client: k.c, PSN: e.psn})
		}
	}
	lsn, err := s.slog.AppendAndForce(rec)
	if err != nil {
		return err
	}
	s.Metrics.Replacements.Add(1)
	if s.tracing {
		s.tracer.Record(trace.Replacement, 0, pid, fmt.Sprintf("psn=%d entries=%d", p.PSN(), len(rec.Entries)))
	}
	if err := s.store.Write(p); err != nil {
		return err
	}
	s.Metrics.PageForces.Add(1)
	s.tracer.Record(trace.PageForce, 0, pid, "")
	// §3.2 assigns the first replacement record's LSN to a NULL RedoLSN;
	// we additionally advance it on every force.  Property 2 only ever
	// needs the replacement record whose PSN matches the page's disk PSN
	// — the most recent force — so earlier records for this page are
	// obsolete and keeping RedoLSN at the newest one lets the server
	// checkpoint reclaim its log (the server-side analog of §3.6).
	// Entries whose client holds no exclusive locks on the page are
	// dropped now that the page is on disk.  (HoldsAnyX takes a GLM
	// shard mutex under this page shard; safe because the GLM never
	// holds its mutexes across calls into the server.)
	for k, e := range sh.dct {
		if k.pg != pid {
			continue
		}
		e.redoLSN = lsn
		if !s.glm.HoldsAnyX(k.c, pid) {
			delete(sh.dct, k)
		}
	}
	s.queueNotifyShard(sh, pid, p.PSN())
	return nil
}

// queueNotifyShard queues flush notifications for the clients that
// shipped the page since the last force.  Called with sh.mu held;
// notifyMu nests below the shard mutex, and delivery happens on the
// drain goroutine.
func (s *Server) queueNotifyShard(sh *pageShard, pid page.ID, psn page.PSN) {
	set := sh.shippedBy[pid]
	if len(set) == 0 {
		return
	}
	delete(sh.shippedBy, pid)
	s.notifyMu.Lock()
	for c := range set {
		s.notifyPending = append(s.notifyPending, pendingNotify{client: c, pid: pid, psn: psn})
	}
	if !s.notifyDraining {
		s.notifyDraining = true
		s.notifyIdle = make(chan struct{})
		go s.drainNotify()
	}
	s.notifyMu.Unlock()
}

// drainNotify delivers queued flush notifications until the queue is
// empty, then exits (a later enqueue spawns a fresh drainer).
func (s *Server) drainNotify() {
	for {
		s.notifyMu.Lock()
		if len(s.notifyPending) == 0 {
			s.notifyDraining = false
			close(s.notifyIdle)
			s.notifyMu.Unlock()
			return
		}
		batch := s.notifyPending
		s.notifyPending = nil
		s.notifyMu.Unlock()
		for _, n := range batch {
			if conn := s.conn(n.client); conn != nil {
				conn.NotifyFlushed(n.pid, n.psn)
			}
		}
	}
}

// notifyBarrier blocks until every queued flush notification has been
// delivered.  Force and FlushAll use it so the client's §3.6 log-space
// bookkeeping has advanced by the time the reply arrives (NotifyFlushed
// is lossy by contract, but the synchronous paths stay deterministic).
func (s *Server) notifyBarrier() {
	for {
		s.notifyMu.Lock()
		if !s.notifyDraining && len(s.notifyPending) == 0 {
			s.notifyMu.Unlock()
			return
		}
		ch := s.notifyIdle
		s.notifyMu.Unlock()
		<-ch
	}
}

// Force implements msg.Server: §3.6 — a client out of log space asks
// the server to force a page so its min RedoLSN can advance.  The reply
// carries the forced copy's PSN so the caller knows which of its ships
// the force covered.
func (s *Server) Force(req msg.ForceReq) (msg.ForceReply, error) {
	sh := s.shardOf(req.Page)
	sh.mu.Lock()
	psn, err := s.forcePageShard(sh, req.Page)
	sh.mu.Unlock()
	s.notifyBarrier()
	return msg.ForceReply{PSN: psn}, err
}

// Alloc implements msg.Server: allocates a page, grants the client an
// exclusive page lock on it, and inserts the DCT entry (first X grant).
// The DCT entry is inserted before the lock so the "X held ⇒ DCT entry"
// invariant never has a visible gap.
func (s *Server) Alloc(req msg.AllocReq) (msg.FetchReply, error) {
	p, err := s.store.Allocate()
	if err != nil {
		return msg.FetchReply{}, err
	}
	sh := s.shardOf(p.ID())
	sh.mu.Lock()
	s.pool.Put(p, false)
	sh.dct[dctKey{pg: p.ID(), c: req.Client}] = &dctEntry{psn: p.PSN(), redoLSN: wal.NilLSN}
	img, merr := p.MarshalBinary()
	sh.mu.Unlock()
	if merr != nil {
		return msg.FetchReply{}, merr
	}
	s.glm.Install(req.Client, lock.PageName(p.ID()), lock.X)
	s.evict()
	return msg.FetchReply{Image: img, DCTPSN: p.PSN()}, nil
}

// Free implements msg.Server.  Before deallocating, the page's PSN on
// disk is raised to the highest PSN the server knows about (pool copy,
// DCT entries, the client-supplied view), so the Mohan-Narang seed of a
// future reincarnation stays above every log record ever written for
// the dead incarnation.
func (s *Server) Free(req msg.FreeReq) error {
	sh := s.shardOf(req.Page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	best := s.currentPSN(sh, req.Page)
	for k, e := range sh.dct {
		if k.pg == req.Page && e.psn > best {
			best = e.psn
		}
	}
	if p, ok := s.pool.Get(req.Page); ok {
		if p.PSN() < best {
			p.SetPSN(best)
		}
		if err := s.store.Write(p); err != nil {
			return err
		}
	} else if disk, err := s.store.Read(req.Page); err == nil && disk.PSN() < best {
		disk.SetPSN(best)
		if err := s.store.Write(disk); err != nil {
			return err
		}
	}
	s.pool.Drop(req.Page)
	for k := range sh.dct {
		if k.pg == req.Page {
			delete(sh.dct, k)
		}
	}
	delete(sh.shippedBy, req.Page)
	delete(sh.tokens, req.Page)
	return s.store.Free(req.Page)
}

// CommitShip implements msg.Server (ARIES/CSA- and Versant-style
// baselines): the shipped log records are appended to the server log
// and forced; shipped pages are merged.
func (s *Server) CommitShip(req msg.CommitShipReq) error {
	sp := s.spans.ServerStart(req.Trace, span.CatCommitProc, "").WithOrigin(s.spanOrigin)
	defer sp.End()
	for _, raw := range req.Records {
		if _, err := s.slog.AppendEncoded(raw); err != nil {
			return err
		}
	}
	if err := s.slog.ForceAll(); err != nil {
		return err
	}
	for _, img := range req.Pages {
		p := new(page.Page)
		if err := p.UnmarshalBinary(img); err != nil {
			return err
		}
		sh := s.shardOf(p.ID())
		sh.mu.Lock()
		err := s.receiveShard(sh, req.Client, p, msg.ShipCommit)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	s.evict()
	return nil
}

// Token implements msg.Server (update-privilege baseline): the token
// migrates to the requester; the page travels with it, recalled from
// the previous owner if necessary.
func (s *Server) Token(req msg.TokenReq) (msg.TokenReply, error) {
	sh := s.shardOf(req.Page)
	sh.mu.Lock()
	owner, owned := sh.tokens[req.Page]
	sh.mu.Unlock()
	if owned && owner != req.Client {
		conn := s.conn(owner)
		if conn != nil {
			reply, err := conn.RecallToken(req.Page)
			if err != nil {
				return msg.TokenReply{}, err
			}
			if len(reply.Image) > 0 {
				p := new(page.Page)
				if err := p.UnmarshalBinary(reply.Image); err != nil {
					return msg.TokenReply{}, err
				}
				sh.mu.Lock()
				err := s.receiveShard(sh, owner, p, msg.ShipCallback)
				sh.mu.Unlock()
				if err != nil {
					return msg.TokenReply{}, err
				}
			}
		}
		s.Metrics.TokenTransfers.Add(1)
	}
	sh.mu.Lock()
	sh.tokens[req.Page] = req.Client
	reply, err := s.fetchShard(sh, req.Client, req.Page)
	sh.mu.Unlock()
	if err != nil {
		return msg.TokenReply{}, err
	}
	return msg.TokenReply{Image: reply.Image}, nil
}

// RecoverEnd implements msg.Server: the client finished §3.3 restart
// recovery.
func (s *Server) RecoverEnd(c ident.ClientID) error {
	s.glm.ClientRecovered(c)
	s.complexMu.Lock()
	if s.complexPending[c] {
		delete(s.complexPending, c)
		for _, ch := range s.complexWait {
			close(ch)
		}
		s.complexWait = nil
	}
	s.complexMu.Unlock()
	return nil
}

// waitComplexRecovered blocks new grants until every client that
// crashed with the server has recovered (or the configured lock
// timeout passes — an operator who never restarts a crashed client
// must SurrogateRecover it instead).  Recovering clients themselves
// are not blocked.
func (s *Server) waitComplexRecovered(requester ident.ClientID) {
	deadline := time.Now().Add(s.cfg.LockTimeout)
	s.complexMu.Lock()
	for {
		if len(s.complexPending) == 0 || s.complexPending[requester] {
			s.complexMu.Unlock()
			return
		}
		ch := make(chan struct{})
		s.complexWait = append(s.complexWait, ch)
		s.complexMu.Unlock()
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			return
		}
		s.complexMu.Lock()
	}
}

// Disconnect implements msg.Server: a cleanly departing client (it must
// have shipped its dirty pages first) gives up all its locks.
func (s *Server) Disconnect(c ident.ClientID) error {
	s.glm.ReleaseAll(c)
	s.regMu.Lock()
	delete(s.clients, c)
	s.regMu.Unlock()
	s.originsMu.Lock()
	delete(s.pendingOrigins, c)
	s.originsMu.Unlock()
	return nil
}

// ClientCrashed implements the §3.3 server-side reaction: shared locks
// of the crashed client are released, exclusive locks retained, and
// callbacks against them queued until the client recovers.
func (s *Server) ClientCrashed(c ident.ClientID) {
	s.glm.ClientCrashed(c)
}

// Checkpoint writes a server checkpoint record carrying the DCT (§3.2)
// and then reclaims the server-log prefix that restart recovery can no
// longer need: everything below the minimum RedoLSN in the DCT (the
// §3.4 scan never starts earlier) and below the checkpoint itself.
func (s *Server) Checkpoint() error {
	rec := &wal.ServerCheckpoint{}
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.Lock()
		for k, e := range sh.dct {
			rec.DCT = append(rec.DCT, wal.DCTEntry{Page: k.pg, Client: k.c, PSN: e.psn, RedoLSN: e.redoLSN})
		}
		sh.mu.Unlock()
	}
	lsn, err := s.slog.AppendAndForce(rec)
	if err != nil {
		return err
	}
	horizon := lsn
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.Lock()
		for _, e := range sh.dct {
			if e.redoLSN != wal.NilLSN && e.redoLSN < horizon {
				horizon = e.redoLSN
			}
		}
		sh.mu.Unlock()
	}
	return s.slog.Reclaim(horizon)
}

// FlushAll forces every dirty page to disk (used by orderly shutdown
// and by tests that want a clean disk state).  All pending flush
// notifications are delivered before it returns.
func (s *Server) FlushAll() error {
	for _, pid := range s.pool.DirtyIDs() {
		sh := s.shardOf(pid)
		sh.mu.Lock()
		_, err := s.forcePageShard(sh, pid)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	s.notifyBarrier()
	return nil
}

// Crash simulates a server crash: the pool, DCT, GLM and token table
// evaporate; stable storage and the server log (its durable prefix)
// survive.  The cluster then constructs a fresh Server over the same
// store/log and runs RecoverServer.
func (s *Server) Crash() {
	s.glm.Stop()
	// Any store that models volatility (a MemStore, or a decorator
	// forwarding to one) drops its unforced tail.
	if st, ok := s.slog.Store().(interface{ Crash() }); ok {
		st.Crash()
	}
	s.pool.Clear()
}

// DCTSnapshot returns a copy of the DCT (tests assert Properties 1-2
// against it).
func (s *Server) DCTSnapshot() map[dctKey]dctEntry {
	out := make(map[dctKey]dctEntry)
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.Lock()
		for k, e := range sh.dct {
			out[k] = *e
		}
		sh.mu.Unlock()
	}
	return out
}

// PagePSN returns the server's current PSN for the page: the pooled
// copy's when cached, else the disk copy's (0 when the page does not
// exist).  The chaos harness samples it to assert PSN monotonicity.
func (s *Server) PagePSN(pid page.ID) page.PSN {
	sh := s.shardOf(pid)
	sh.mu.Lock()
	if p, ok := s.pool.Get(pid); ok {
		psn := p.PSN()
		sh.mu.Unlock()
		return psn
	}
	sh.mu.Unlock()
	disk, err := s.store.Read(pid)
	if err != nil {
		return 0
	}
	return disk.PSN()
}

// CheckInvariants verifies the cross-table consistency the recovery
// protocol depends on: every exclusive lock (page- or object-level) a
// client holds on a live page has a matching DCT entry — Property 1
// (§3.1/§3.2) is vacuous without it, because the server could not name
// the clients whose updates a page copy might miss.  It returns the
// first violation found.
func (s *Server) CheckInvariants() error {
	holdings := s.glm.AllHoldings()
	for c, holds := range holdings {
		for _, h := range holds {
			if h.Mode != lock.X {
				continue
			}
			sh := s.shardOf(h.Name.Page)
			sh.mu.Lock()
			_, ok := sh.dct[dctKey{pg: h.Name.Page, c: c}]
			sh.mu.Unlock()
			if ok {
				continue
			}
			if _, err := s.store.Read(h.Name.Page); err != nil {
				continue // freed page; locks may outlive it briefly
			}
			return fmt.Errorf("core: invariant violation: client %v holds %v in X but DCT has no (%d,%v) entry",
				c, h.Name, h.Name.Page, c)
		}
	}
	return nil
}

// DCTPSN returns the DCT PSN for (page, client) and whether the entry
// exists.
func (s *Server) DCTPSN(pid page.ID, c ident.ClientID) (page.PSN, bool) {
	sh := s.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.dct[dctKey{pg: pid, c: c}]
	if !ok {
		return 0, false
	}
	return e.psn, true
}

// serverCallbacker implements lock.Callbacker: it runs the callback
// conversation with the holding client and applies the outcome to the
// GLM and the DCT.
type serverCallbacker struct{ s *Server }

// CallbackObject implements lock.Callbacker.
func (cb serverCallbacker) CallbackObject(holder, requester ident.ClientID, obj lock.Name, wanted lock.Mode) {
	go cb.s.runObjectCallback(holder, requester, obj, wanted)
}

// DeescalatePage implements lock.Callbacker.
func (cb serverCallbacker) DeescalatePage(holder, requester ident.ClientID, pg page.ID, wanted lock.Mode) {
	go cb.s.runDeescalation(holder, requester, pg, wanted)
}

func (s *Server) beginInflight(k inflightKey) bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.inflight[k] {
		return false
	}
	s.inflight[k] = true
	return true
}

func (s *Server) endInflight(k inflightKey) {
	s.inflightMu.Lock()
	delete(s.inflight, k)
	for _, ch := range s.inflightWait {
		close(ch)
	}
	s.inflightWait = nil
	s.inflightMu.Unlock()
}

// inflightTouches reports whether an in-flight callback to client c
// involves the lock name (exact object, or a page-level callback on
// its page).
func inflightTouches(k inflightKey, c ident.ClientID, name lock.Name) bool {
	if k.holder != c || k.name.Page != name.Page {
		return false
	}
	return k.name == name || k.name.IsPage || name.IsPage
}

// waitInflightClear blocks until no in-flight callback to the client
// overlaps the name.
func (s *Server) waitInflightClear(c ident.ClientID, name lock.Name) {
	s.inflightMu.Lock()
	for {
		blocked := false
		for k := range s.inflight {
			if inflightTouches(k, c, name) {
				blocked = true
				break
			}
		}
		if !blocked {
			s.inflightMu.Unlock()
			return
		}
		ch := make(chan struct{})
		s.inflightWait = append(s.inflightWait, ch)
		s.inflightMu.Unlock()
		<-ch
		s.inflightMu.Lock()
	}
}

func (s *Server) lockTrace(requester ident.ClientID) span.Context {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.lockTraces[requester]
}

func (s *Server) runObjectCallback(holder, requester ident.ClientID, obj lock.Name, wanted lock.Mode) {
	k := inflightKey{holder: holder, name: obj, wanted: wanted}
	if !s.beginInflight(k) {
		return
	}
	settled := false
	defer s.endCallback(k, &settled)
	conn := s.conn(holder)
	if conn == nil {
		// The holder is gone without crashing (clean disconnect races);
		// release its lock so the requester makes progress.
		s.glm.Release(holder, obj)
		settled = true
		return
	}
	s.Metrics.CallbacksSent.Add(1)
	if s.tracing {
		s.tracer.Record(trace.CallbackSent, holder, obj.Page, fmt.Sprintf("obj=%v wanted=%v for=%v", obj, wanted, requester))
	}
	sp := s.startSpan(s.lockTrace(requester), span.CatCallback, obj)
	reply, err := conn.CallbackObject(msg.CallbackReq{Requester: requester, Object: obj, Wanted: wanted})
	sp.End()
	if err != nil {
		return // holder crashed mid-callback; §3.3 handling takes over
	}
	sh := s.shardOf(obj.Page)
	sh.mu.Lock()
	if reply.HadPage {
		incoming := new(page.Page)
		if uerr := incoming.UnmarshalBinary(reply.Image); uerr == nil {
			if rerr := s.receiveShard(sh, holder, incoming, msg.ShipCallback); rerr != nil {
				sh.mu.Unlock()
				return
			}
		}
	}
	// §3.1: the requester of an exclusive lock writes a callback log
	// record containing the responder and the PSN the page had when the
	// responder sent it to the server.  When the responder had no page
	// to ship, its updates were shipped earlier and the DCT remembers
	// their PSN.
	var origin *msg.CallbackOrigin
	if wanted == lock.X {
		psn := page.PSN(0)
		if reply.HadPage {
			if p := new(page.Page); p.UnmarshalBinary(reply.Image) == nil {
				psn = p.PSN()
			}
		} else if e, ok := sh.dct[dctKey{pg: obj.Page, c: holder}]; ok {
			psn = e.psn
		}
		origin = &msg.CallbackOrigin{Object: obj.Object(), Responder: holder, PSN: psn}
	}
	sh.mu.Unlock()
	if origin != nil {
		s.originsMu.Lock()
		s.pendingOrigins[requester] = append(s.pendingOrigins[requester], *origin)
		s.originsMu.Unlock()
	}
	s.evict()
	switch {
	case reply.Released:
		s.glm.Release(holder, obj)
		settled = true
	case reply.Downgraded:
		s.glm.Downgrade(holder, obj)
		settled = true
	}
}

// endCallback retires an in-flight callback.  One that ended without
// changing the holder's lock — an error reply, a refused merge — woke
// no waiter, while the in-flight dedupe dropped the callbacks those
// waiters re-sent meanwhile; the GLM re-issues callbacks only when
// woken, so wake the page's waiters now or they sleep to their timeout.
func (s *Server) endCallback(k inflightKey, settled *bool) {
	s.endInflight(k)
	if !*settled {
		s.glm.Wake(k.name.Page)
	}
}

func (s *Server) runDeescalation(holder, requester ident.ClientID, pg page.ID, wanted lock.Mode) {
	k := inflightKey{holder: holder, name: lock.PageName(pg), wanted: wanted, deesc: true}
	if !s.beginInflight(k) {
		return
	}
	settled := false
	defer s.endCallback(k, &settled)
	conn := s.conn(holder)
	if conn == nil {
		s.glm.Release(holder, lock.PageName(pg))
		settled = true
		return
	}
	s.Metrics.Deescalations.Add(1)
	if s.tracing {
		s.tracer.Record(trace.DeescSent, holder, pg, fmt.Sprintf("wanted=%v for=%v", wanted, requester))
	}
	sp := s.startSpan(s.lockTrace(requester), span.CatDeesc, lock.PageName(pg))
	reply, err := conn.DeescalatePage(msg.DeescReq{Requester: requester, Page: pg, Wanted: wanted})
	sp.End()
	if err != nil {
		return
	}
	if reply.HadPage {
		incoming := new(page.Page)
		if uerr := incoming.UnmarshalBinary(reply.Image); uerr == nil {
			sh := s.shardOf(pg)
			sh.mu.Lock()
			rerr := s.receiveShard(sh, holder, incoming, msg.ShipCallback)
			sh.mu.Unlock()
			if rerr != nil {
				return
			}
			s.evict()
		}
	}
	s.glm.Deescalate(holder, pg, reply.Objs)
	settled = true
}

// DebugInflight renders the in-flight callback table (debug tooling).
func (s *Server) DebugInflight() string {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	out := ""
	for k := range s.inflight {
		out += fmt.Sprintf("inflight: holder=%v name=%v wanted=%v deesc=%v\n", k.holder, k.name, k.wanted, k.deesc)
	}
	out += fmt.Sprintf("inflightWaiters=%d\n", len(s.inflightWait))
	return out
}

// DebugPage renders the server's view of a page — pool copy, dirty
// flag, per-slot PSNs and the DCT rows (debug tooling).
func (s *Server) DebugPage(pid page.ID) string {
	sh := s.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := ""
	if p, ok := s.pool.Get(pid); ok {
		out += fmt.Sprintf("server pool: psn=%d dirty=%v slots:", p.PSN(), s.pool.IsDirty(pid))
		for _, sl := range p.UsedSlotIDs() {
			d, _ := p.Read(sl)
			out += fmt.Sprintf(" %d@%d=%x", sl, p.SlotPSN(sl), d[:4])
		}
		out += "\n"
	} else {
		out += "server pool: not cached\n"
	}
	for k, e := range sh.dct {
		if k.pg == pid {
			out += fmt.Sprintf("dct[%v]: psn=%d redo=%v\n", k.c, e.psn, e.redoLSN)
		}
	}
	return out
}
