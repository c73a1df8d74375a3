package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
	"clientlog/internal/wake"
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
	CarryWaits     obs.Counter // callback answers that waited for their holder's carrier
	CarryFailures  obs.Counter // carried page images whose merge failed
	ForceWaits     obs.Counter // §3.6 force waits for the copy the force must cover
	LogCheckpoints obs.Counter // checkpoints the server took to reclaim its own log
}

// errCarrierLost fails a message whose named carrier cannot land: its
// client crashed or left, or the server stopped.
var errCarrierLost = errors.New("core: named carrier cannot land")

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
	mu        sync.Mutex
	dct       map[dctKey]*dctEntry
	shippedBy map[page.ID]map[ident.ClientID]bool
	tokens    map[page.ID]ident.ClientID
	// recovering marks (page, client) pairs with an in-flight §3.4 page
	// recovery; recovered marks completed ones.  RecoveryFetch consults
	// both: a pair that was never recovering has all its durable state
	// in the server's copy already.
	recovering map[dctKey]bool
	recovered  map[dctKey]bool
	// released and rebuilt hold the §3.1 callback origins the server
	// keeps for the pages' next exclusive grants (DESIGN §6 item 15).
	// released has one per object and responder: the answer to an
	// exclusive callback for the object, or a release of the responder's
	// locks on it with an evicted page, which is that answer given before
	// the callback came, at the responder's DCT PSN.  rebuilt lists,
	// after a server restart, the clients the page's first exclusive
	// grant is owed on every object it covers, the origins they were
	// released with having died with the old server.
	released map[page.ID][]msg.CallbackOrigin
	rebuilt  map[page.ID][]ident.ClientID
	// landed holds, per page and client, the highest number of a carrier
	// of the client's whose items for the page the server applied
	// (msg.Carry); landing lists the messages waiting in the shard for a
	// carrier or a copy to land (awaitShard).
	landed  map[dctKey]uint64
	landing wake.List
}

// keepOrigin holds o for the next exclusive grant that covers its
// object (takeHeldOrigins), in place of any held for the same object
// and responder.  Called with sh.mu held.
func (sh *pageShard) keepOrigin(o msg.CallbackOrigin) {
	pid := o.Object.Page
	sh.released[pid] = append(slices.DeleteFunc(sh.released[pid], sameOrigin(o)), o)
}

// sameOrigin returns a test for an origin of o's object and responder.
func sameOrigin(o msg.CallbackOrigin) func(msg.CallbackOrigin) bool {
	return func(x msg.CallbackOrigin) bool { return x.Object == o.Object && x.Responder == o.Responder }
}

// setList stores a page's list in m, or deletes the page when the list
// is empty.
func setList[T any](m map[page.ID][]T, pid page.ID, list []T) {
	if len(list) > 0 {
		m[pid] = list
	} else {
		delete(m, pid)
	}
}

// Server is the page server: stable storage, the server buffer pool,
// the global lock manager, the server log (replacement records and
// checkpoints) and the DCT.  It implements msg.Server.
//
// Concurrency is per subsystem instead of one big mutex.  The lock
// hierarchy, in acquisition order (see DESIGN.md §10):
//
//	registry (regMu, RW) → GLM shard(s) in ascending order →
//	page shard (one at a time) → pending flush notes (notifyMu) → WAL
//
// with the buffer pool's mutex (poolMu) a leaf under the page shard,
// never held across a storage read or write, complexMu, traceMu and
// stateMu as independent leaves (the GLM's crashed set is read under
// notifyMu), and
// convMu (the callback conversations) taken only above the GLM's own
// mutexes.  The §3.1 callback origins live in the page shards.  GLM
// shard mutexes are never held across calls back into the server (the
// GLM calls its Callbacker with none held), so read-only GLM queries
// from inside a page-shard section (e.g. HoldsAnyX during a force)
// cannot deadlock.  Multi-page operations
// (Checkpoint, FlushAll, snapshots) visit page shards in ascending
// index order holding at most one shard mutex at any moment.
type Server struct {
	cfg   Config
	glm   *lock.GLM
	store storage.Store
	slog  *wal.Log

	// poolMu guards pool, which has no lock of its own: the page shards
	// decide what a page's copy is, and poolMu serializes their calls on
	// the pool's shared frames and LRU list.
	poolMu sync.Mutex
	pool   *buffer.Pool

	// regMu guards the client registry; admin and data paths share it
	// only for the brief conn lookups, so /waitsfor and friends never
	// block behind commit processing.
	regMu      sync.RWMutex
	clients    map[ident.ClientID]msg.Client
	nextClient uint32

	// pageShards hold the per-page protocol state, hashed by page ID.
	pageShards []pageShard

	// notes holds each client's pending flush notes (§3.2, §3.6),
	// queued while a page shard is held and handed over with the
	// client's next lock reply (takeNotes), or sent by Force and
	// FlushAll, so no shard mutex is ever held across client I/O.
	notifyMu sync.Mutex
	notes    map[ident.ClientID][]msg.FlushedNote

	// convMu guards convs, the callback conversations in flight, one per
	// holder and lock name (callback.go); the GLM calls that apply a
	// conversation's actions run under it.  A lock request never waits
	// behind one: the GLM applies a callback's answer only to the grants
	// it saw (lock.GLM.Settle).
	convMu sync.Mutex
	convs  map[convKey]convState

	// complexMu guards complexPending: clients that crashed together
	// with the server and have not finished §3.5 recovery.  While it is
	// nonempty, new GLM grants wait: the rebuilt lock tables cannot
	// contain the crashed clients' exclusive locks (lock tables are
	// volatile, paper claim 7), so granting in that window could hand
	// out pages whose freshest state is still being recovered.
	complexMu      sync.Mutex
	complexPending map[ident.ClientID]bool
	complexWait    wake.List

	// stateMu guards restart, the state retained from server restart
	// recovery for §3.5 RecoverQuery answers.
	stateMu sync.Mutex
	restart *restartInfo

	// remoteLogs hosts diskless clients' private logs (Section 2);
	// installed before serving, then read-only.
	remoteLogs *RemoteLogHost

	// ckpt is set while reclaimLog's checkpoint or restart recovery
	// runs; ckptEnd is the end of the log after reclaimLog's last one.
	ckpt    atomic.Bool
	ckptEnd atomic.Uint64

	Metrics ServerMetrics
	tracer  trace.Recorder
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

// RegisterObs binds the server's merge, callback, recovery and
// checkpoint counters, plus those of the server log and the global lock
// manager, into reg under scope=server.  Safe to call on every
// restart: the registry sums all engines ever bound to a series, so
// /metrics stays monotone while each engine's own Metrics start from
// zero.  In a fleet (Partitions > 1) every series also
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
	reg.BindCounter(&s.Metrics.Merges, "server_merges_total", tags...)
	reg.BindCounter(&s.Metrics.CallbacksSent, "server_callbacks_sent_total", tags...)
	reg.BindCounter(&s.Metrics.Deescalations, "server_deescalations_total", tags...)
	reg.BindCounter(&s.Metrics.RecoverySteps, "server_recovery_steps_total", tags...)
	reg.BindCounter(&s.Metrics.LogCheckpoints, "server_log_checkpoints_total", tags...)
	s.slog.RegisterObs(reg, tags...)
	s.glm.RegisterObs(reg, tags...)
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
		convs:          make(map[convKey]convState),
		notes:          make(map[ident.ClientID][]msg.FlushedNote),
		complexPending: make(map[ident.ClientID]bool),
		spans:          cfg.Spans,
		lockTraces:     make(map[ident.ClientID]span.Context),
	}
	if cfg.partitions() > 1 {
		s.spanOrigin = fmt.Sprintf("p%d", cfg.PartitionIndex)
	}
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.dct = make(map[dctKey]*dctEntry)
		sh.shippedBy = make(map[page.ID]map[ident.ClientID]bool)
		sh.tokens = make(map[page.ID]ident.ClientID)
		sh.recovering = make(map[dctKey]bool)
		sh.recovered = make(map[dctKey]bool)
		sh.released = make(map[page.ID][]msg.CallbackOrigin)
		sh.rebuilt = make(map[page.ID][]ident.ClientID)
		sh.landed = make(map[dctKey]uint64)
	}
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
		s.forgetLanded(req.ID)
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

// Lock implements msg.Server: lock's grant, with the flush notes the
// server keeps for the requester (takeNotes).
func (s *Server) Lock(req msg.LockReq) (msg.LockReply, error) {
	reply, err := s.lock(req)
	if err == nil {
		reply.Flushed = s.takeNotes(req.Client)
	}
	return reply, err
}

// lock grants one lock request: the request's carrier lands
// (landCarry), the carrier it names is waited for, then the GLM
// acquisition, DCT insertion on first exclusive grant (§3.2), and
// callback origins.
func (s *Server) lock(req msg.LockReq) (msg.LockReply, error) {
	s.landCarry(req.Client, msg.ShipReplace, req.Carry)
	if !s.awaitLanded(req.Client, req.Name.Page, req.Carried) {
		return msg.LockReply{}, errCarrierLost
	}
	// Hold new grants while clients that crashed together with the
	// server are still recovering (§3.5): the rebuilt GLM cannot know
	// their exclusive locks, so granting now could expose state their
	// recovery is about to supersede.
	if err := s.waitComplexRecovered(req.Client); err != nil {
		return msg.LockReply{}, err
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
	reply := msg.LockReply{Name: grant.Name, Mode: grant.Mode}
	if grant.Mode == lock.X {
		sh := s.shardOf(grant.Name.Page)
		sh.mu.Lock()
		if grant.FirstX {
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
		}
		reply.Origins = s.takeHeldOrigins(sh, req.Client, grant.Name)
		sh.mu.Unlock()
	}
	if req.Fetch {
		// The grant carries the page, read as Fetch reads it, so no fetch
		// round trip follows the lock.  It is read after the DCT row above
		// takes its PSN: a merge in between then only lifts the copy's PSN
		// above the row's, never the reverse (DESIGN §6 item 9).
		f, err := s.Fetch(msg.FetchReq{Client: req.Client, Page: grant.Name.Page})
		if err != nil {
			return msg.LockReply{}, err
		}
		reply.Image = f.Image
	}
	if s.tracing {
		s.tracer.Record(trace.LockGrant, req.Client, grant.Name.Page,
			fmt.Sprintf("grant %v %v", grant.Name, grant.Mode))
	}
	return reply, nil
}

// takeHeldOrigins returns the origins held for an exclusive grant of
// name to r, the only origins a Lock reply carries, and forgets them:
// every released one the grant covers (r's own only go), and, on the
// page's first exclusive grant after a restart, one per covered object
// for each client the restart owes that a released one does not name
// already.  They come in slot, then responder order.  Called with sh.mu
// held.
func (s *Server) takeHeldOrigins(sh *pageShard, r ident.ClientID, name lock.Name) []msg.CallbackOrigin {
	pid := name.Page
	held, owed := sh.released[pid], sh.rebuilt[pid]
	if held == nil && owed == nil {
		return nil
	}
	var out []msg.CallbackOrigin
	add := func(o msg.CallbackOrigin) {
		if o.Responder != r && !slices.ContainsFunc(out, sameOrigin(o)) {
			out = append(out, o)
		}
	}
	kept := held[:0]
	for _, o := range held {
		if name.IsPage || o.Object.Slot == name.Slot {
			add(o)
		} else {
			kept = append(kept, o)
		}
	}
	setList(sh.released, pid, kept)
	if owed != nil {
		delete(sh.rebuilt, pid)
		slots := []uint16{name.Slot}
		if name.IsPage {
			slots = nil
			if p, err := s.currentPage(sh, pid); err == nil {
				slots = p.UsedSlotIDs()
			}
		}
		for _, c := range owed {
			if e, ok := sh.dct[dctKey{pg: pid, c: c}]; ok {
				for _, slot := range slots {
					add(msg.CallbackOrigin{Object: page.ObjectID{Page: pid, Slot: slot}, Responder: c, PSN: e.psn})
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b msg.CallbackOrigin) int {
		if a.Object.Slot != b.Object.Slot {
			return int(a.Object.Slot) - int(b.Object.Slot)
		}
		return int(a.Responder) - int(b.Responder)
	})
	return out
}

// currentPSN returns the PSN of the server's current copy of the page,
// reading it from disk into the pool if necessary (0 if it cannot).
// Called with the page's shard mutex held.
func (s *Server) currentPSN(sh *pageShard, pid page.ID) page.PSN {
	p, err := s.currentPage(sh, pid)
	if err != nil {
		return 0
	}
	return p.PSN()
}

// currentPage returns the server's current copy of the page, reading it
// from disk into the pool if necessary.  Called with the page's shard
// mutex held.
func (s *Server) currentPage(sh *pageShard, pid page.ID) (*page.Page, error) {
	if p, ok := s.cachedPage(pid); ok {
		return p, nil
	}
	p, err := s.store.Read(pid)
	if err != nil {
		return nil, err
	}
	s.putPage(p, false)
	return p, nil
}

// cachedPage returns the pool's copy of pid.  Called with the page's
// shard mutex held.
func (s *Server) cachedPage(pid page.ID) (*page.Page, bool) {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	return s.pool.Get(pid)
}

// putPage puts p into the pool.  Called with the page's shard mutex
// held.
func (s *Server) putPage(p *page.Page, dirty bool) {
	s.poolMu.Lock()
	s.pool.Put(p, dirty)
	s.poolMu.Unlock()
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

// Fetch implements msg.Server: once the carrier the request names has
// landed, it returns the server's current copy and the DCT PSN for this
// client (§3.2: sent along with every page; the client ignores it
// during normal processing and installs it during restart recovery).
func (s *Server) Fetch(req msg.FetchReq) (msg.FetchReply, error) {
	if !s.awaitLanded(req.Client, req.Page, req.Carried) {
		return msg.FetchReply{}, errCarrierLost
	}
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
	p, err := s.currentPage(sh, pid)
	if err != nil {
		return msg.FetchReply{}, err
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

// Ship implements msg.Server: its carrier lands (landCarry).
func (s *Server) Ship(req msg.ShipReq) error {
	return s.landCarry(req.Client, req.Reason, &req.Carry)
}

// landCarry lands client's carrier c (nothing when c is nil) for
// reason, the one landing path of ships and carrying lock requests.
// Once the earlier carriers it names have landed (After; else it lands
// nothing and returns errCarrierLost), each image merges (§2) with its
// DCT row and the pool is brought back under its limits; then the
// releases apply (releaseEvicted) even when a merge failed, since the
// client dropped those locks before it sent them; then the carrier is
// marked landed on each of its pages, waking the messages that wait for
// it (awaitLanded).  A client the server holds crashed gets no marks:
// the carrier is its crashed incarnation's, whose waiters ended with
// the crash (forgetLanded).  It returns the first merge error, counted
// (CarryFailures); the flush notes the merges queued wait for the
// client's next lock reply (takeNotes).
func (s *Server) landCarry(client ident.ClientID, reason msg.ShipReason, c *msg.Carry) error {
	if c == nil {
		return nil
	}
	for _, m := range c.After {
		if !s.awaitLanded(client, m.Page, m.Seq) {
			return errCarrierLost
		}
	}
	var first error
	for _, p := range c.Pages {
		incoming := new(page.Page)
		err := incoming.UnmarshalBinary(p.Image)
		if err == nil {
			sh := s.shardOf(incoming.ID())
			sh.mu.Lock()
			err = s.receiveShard(sh, client, incoming, reason)
			sh.mu.Unlock()
		}
		if first == nil && err != nil {
			first = err
			s.Metrics.CarryFailures.Add(1)
		}
	}
	if len(c.Pages) > 0 {
		s.evict()
		s.enforceDirtyLimit()
	}
	s.releaseEvicted(client, c.Releases)
	mark := func(pid page.ID) {
		sh := s.shardOf(pid)
		sh.mu.Lock()
		// Read under sh.mu: ClientCrashed sets the flag before its
		// forgetLanded takes the shard, so a mark set before the flag
		// is cleared there.
		if !s.glm.Crashed(client) {
			k := dctKey{pg: pid, c: client}
			sh.landed[k] = max(sh.landed[k], c.Seq)
			sh.landing.Broadcast()
		}
		sh.mu.Unlock()
	}
	for _, p := range c.Pages {
		mark(p.Page)
	}
	for _, n := range c.Releases {
		mark(n.Page)
	}
	return first
}

// forgetLanded drops client c's carrier marks and wakes the messages
// waiting on any shard, which then find why they cannot wait on
// (awaitShard).  The marks of a client that crashed, left or
// registers again belong to an incarnation whose carriers are over; a
// restarted client numbers its carriers afresh.
func (s *Server) forgetLanded(c ident.ClientID) {
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.Lock()
		for k := range sh.landed {
			if k.c == c {
				delete(sh.landed, k)
			}
		}
		sh.landing.Broadcast()
		sh.mu.Unlock()
	}
}

// awaitLanded waits until client c's carrier numbered seq (0: none)
// has landed on page pid (landCarry), which means every earlier carrier
// of c's about the page has too (DESIGN §6 item 15), and reports true,
// or false once it cannot (awaitShard).
func (s *Server) awaitLanded(c ident.ClientID, pid page.ID, seq uint64) bool {
	if seq == 0 {
		return true
	}
	k := dctKey{pg: pid, c: c}
	return s.awaitShard(c, pid, func(sh *pageShard) bool { return sh.landed[k] >= seq }, nil)
}

// awaitShard waits in page pid's shard for a message of client c's
// until ready (run under the shard mutex) holds and reports true, or
// reports false once the server stopped, c crashed or left, or done
// (nil: never) says what it waits for cannot come.  Landings, merges,
// conversations' ends, crashes and departures wake it; no timer does.
func (s *Server) awaitShard(c ident.ClientID, pid page.ID, ready func(*pageShard) bool, done func() bool) bool {
	sh := s.shardOf(pid)
	for {
		sh.mu.Lock()
		if ready(sh) {
			sh.mu.Unlock()
			return true
		}
		w := sh.landing.Add()
		sh.mu.Unlock()
		// Checked after the wait is registered: each of these is set
		// before its wake (wakeLandingAll, forgetLanded, Server.run).
		if s.glm.Stopped() || s.glm.Crashed(c) || s.conn(c) == nil || done != nil && done() {
			return false
		}
		w.Wait(time.Time{})
	}
}

// wakeLandingAll wakes every message waiting in a shard, one shard at a
// time.
func (s *Server) wakeLandingAll() {
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.Lock()
		sh.landing.Broadcast()
		sh.mu.Unlock()
	}
}

// releaseEvicted applies the releases of locks a client dropped with
// evicted pages.  Each is a callback for the name answered "released,
// no page" before it was sent (DESIGN §6 item 15), so the server does
// what it does with that answer: for each object the GLM still holds
// for the client, itself or under its page lock, it keeps the origin
// the callback would have given an exclusive requester — the client's
// DCT PSN for the page — and then the GLM releases the name.  (An
// object a callback took meanwhile has its origin already.)  The client
// sends a release only when it holds nothing on the page and asks for
// nothing there until the release has landed, so no later grant can be
// the one released.
func (s *Server) releaseEvicted(c ident.ClientID, names []lock.Name) {
	for i := 0; i < len(names); {
		pid := names[i].Page
		pageHeld := s.glm.Holding(c, lock.PageName(pid)) != lock.None
		sh := s.shardOf(pid)
		sh.mu.Lock()
		var psn page.PSN
		if e, ok := sh.dct[dctKey{pg: pid, c: c}]; ok {
			psn = e.psn
		}
		for ; i < len(names) && names[i].Page == pid; i++ {
			if n := names[i]; !n.IsPage && (pageHeld || s.glm.Holding(c, n) != lock.None) {
				sh.keepOrigin(msg.CallbackOrigin{Object: n.Object(), Responder: c, PSN: psn})
			}
		}
		sh.mu.Unlock()
	}
	for _, n := range names {
		s.glm.Release(c, n)
	}
}

// enforceDirtyLimit plays background disk writer: while the pool holds
// more dirty pages than the configured limit, dirty pages are forced to
// disk.  Runs without holding any shard mutex; each force takes its
// page's shard.
func (s *Server) enforceDirtyLimit() {
	if s.cfg.ServerDirtyLimit <= 0 {
		return
	}
	s.poolMu.Lock()
	dirty := s.pool.DirtyIDs()
	s.poolMu.Unlock()
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
	cur, ok := s.cachedPage(pid)
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
	s.putPage(merged, true)
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
	sh.landing.Broadcast() // a force may wait for this copy (Force)
	return nil
}

// evict brings the pool back under capacity, forcing dirty victims to
// disk (steal policy).  It runs without holding any shard mutex:
// victims are peeked first, then removed under their own shard so a
// concurrent merge cannot update a copy already on its way to disk.
func (s *Server) evict() {
	for {
		s.poolMu.Lock()
		over := s.pool.NeedsEviction()
		pid, ok := page.ID(0), false
		if over {
			pid, ok = s.pool.EvictCandidate()
		}
		s.poolMu.Unlock()
		if !over {
			break
		}
		if !ok {
			return // everything pinned; let the pool run over capacity
		}
		sh := s.shardOf(pid)
		sh.mu.Lock()
		s.poolMu.Lock()
		victim, dirty, removed := s.pool.Remove(pid)
		s.poolMu.Unlock()
		if removed && dirty {
			s.forceImageShard(sh, victim)
		}
		sh.mu.Unlock()
		if !removed {
			// Lost the race (re-gotten or pinned meanwhile); try the next
			// candidate rather than spinning on this one.
			break
		}
	}
	s.reclaimLog()
}

// reclaimLog checkpoints (Checkpoint), reclaiming the server log, once
// the log it retains (End − Horizon) reaches half of logBound and has
// grown by as much since the last such checkpoint: each of the pool's
// forces appends a replacement record, which would otherwise pile up
// with the commits run.  The log then retains less than logBound unless
// a DCT row pins its horizon.  At most one runs at a time, none during
// restart recovery.  Called with no shard mutex held.
func (s *Server) reclaimLog() {
	end, half := s.slog.End(), s.logBound()/2
	if end-s.slog.Horizon() < half || end-wal.LSN(s.ckptEnd.Load()) < half || !s.ckpt.CompareAndSwap(false, true) {
		return
	}
	defer s.ckpt.Store(false)
	if s.Checkpoint() == nil {
		s.Metrics.LogCheckpoints.Add(1)
	}
	s.ckptEnd.Store(uint64(s.slog.End()))
}

// logBound is reclaimLog's bound: a server pool's worth of page bytes.
func (s *Server) logBound() wal.LSN {
	return wal.LSN(max(s.cfg.ServerPool, 1) * max(s.cfg.PageSize, 1))
}

// forcePageShard forces the current copy of pid to disk.  Called with
// sh.mu held.
func (s *Server) forcePageShard(sh *pageShard, pid page.ID) (page.PSN, error) {
	s.poolMu.Lock()
	p, ok := s.pool.Get(pid)
	dirty := s.pool.IsDirty(pid)
	s.poolMu.Unlock()
	if !ok {
		// Nothing cached: the disk version is current.
		psn := s.currentPSN(sh, pid)
		s.queueNotifyShard(sh, pid, psn)
		return psn, nil
	}
	if !dirty {
		s.queueNotifyShard(sh, pid, p.PSN())
		return p.PSN(), nil
	}
	if err := s.forceImageShard(sh, p); err != nil {
		return 0, err
	}
	s.poolMu.Lock()
	s.pool.Clean(pid)
	s.poolMu.Unlock()
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
			// Nothing of the client's on the page awaits redo now.
			setList(sh.rebuilt, pid, slices.DeleteFunc(sh.rebuilt[pid], func(c ident.ClientID) bool { return c == k.c }))
		}
	}
	s.queueNotifyShard(sh, pid, p.PSN())
	return nil
}

// queueNotifyShard queues flush notes for the clients that shipped
// the page since the last force, tracing each.  A client the server
// holds crashed gets none: read under notifyMu, since ClientCrashed
// sets the flag before it drops the client's notes.  Called with sh.mu
// held; notifyMu nests below the shard mutex.
func (s *Server) queueNotifyShard(sh *pageShard, pid page.ID, psn page.PSN) {
	set := sh.shippedBy[pid]
	if len(set) == 0 {
		return
	}
	delete(sh.shippedBy, pid)
	s.notifyMu.Lock()
	for c := range set {
		if !s.glm.Crashed(c) {
			s.notes[c] = append(s.notes[c], msg.FlushedNote{Page: pid, PSN: psn})
			if s.tracing {
				s.tracer.Record(trace.FlushNotify, c, pid, fmt.Sprintf("psn=%d", psn))
			}
		}
	}
	s.notifyMu.Unlock()
}

// takeNotes hands over client c's pending flush notes (nil: none).
func (s *Server) takeNotes(c ident.ClientID) []msg.FlushedNote {
	s.notifyMu.Lock()
	notes := s.notes[c]
	delete(s.notes, c)
	s.notifyMu.Unlock()
	return notes
}

// sendNotes sends notes to client c as one-way NotifyFlushed messages
// on the caller's goroutine: the paths that reply with no lock reply
// (Force, FlushAll) deliver them before they return.
func (s *Server) sendNotes(c ident.ClientID, notes []msg.FlushedNote) {
	if len(notes) == 0 {
		return
	}
	if conn := s.conn(c); conn != nil {
		for _, n := range notes {
			conn.NotifyFlushed(n.Page, n.PSN)
		}
	}
}

// Force implements msg.Server: §3.6 — a client out of log space asks
// the server to force a page so its min RedoLSN can advance.  The force
// is ordered after the copy it must cover (DESIGN §6 item 8): it waits
// for the carrier the request names, then, while a callback
// conversation with the client about the page is in flight, until the
// client's DCT row reaches the request's PSN.  Otherwise it forces what
// the server has.  The reply carries the forced copy's PSN, and the
// client's pending flush notes are sent ahead of it (sendNotes): a
// client short of log space may hold every lock it needs cached and
// send no lock request to take them with.
func (s *Server) Force(req msg.ForceReq) (msg.ForceReply, error) {
	if s.awaitLanded(req.Client, req.Page, req.Carried) {
		k := dctKey{pg: req.Page, c: req.Client}
		s.awaitShard(req.Client, req.Page, func(sh *pageShard) bool {
			e, ok := sh.dct[k]
			return !ok || e.psn >= req.PSN
		}, func() bool {
			s.Metrics.ForceWaits.Add(1)
			return !s.conversing(req.Client, req.Page)
		})
	}
	sh := s.shardOf(req.Page)
	sh.mu.Lock()
	psn, err := s.forcePageShard(sh, req.Page)
	sh.mu.Unlock()
	s.sendNotes(req.Client, s.takeNotes(req.Client))
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
	s.putPage(p, false)
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
	if p, ok := s.cachedPage(req.Page); ok {
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
	s.poolMu.Lock()
	s.pool.Drop(req.Page)
	s.poolMu.Unlock()
	for k := range sh.dct {
		if k.pg == req.Page {
			delete(sh.dct, k)
		}
	}
	for k := range sh.landed {
		if k.pg == req.Page {
			delete(sh.landed, k)
		}
	}
	delete(sh.shippedBy, req.Page)
	delete(sh.tokens, req.Page)
	delete(sh.released, req.Page)
	delete(sh.rebuilt, req.Page)
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
	carry := msg.Carry{Pages: make([]msg.PageImage, len(req.Pages))}
	for i, img := range req.Pages {
		carry.Pages[i].Image = img
	}
	return s.landCarry(req.Client, msg.ShipCommit, &carry)
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
				carry := msg.Carry{Pages: []msg.PageImage{{Page: req.Page, Image: reply.Image}}}
				if err := s.landCarry(owner, msg.ShipCallback, &carry); err != nil {
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
		s.complexWait.Broadcast()
	}
	s.complexMu.Unlock()
	return nil
}

// waitComplexRecovered blocks new grants until every client that
// crashed with the server has recovered, failing with lock.ErrTimeout
// at LockTimeout: a grant could show a value an acknowledged commit
// superseded (a client never restarted must be SurrogateRecovered).
// Recovering clients are not blocked; only a waiting request reads the clock.
func (s *Server) waitComplexRecovered(requester ident.ClientID) error {
	var deadline time.Time
	s.complexMu.Lock()
	for {
		if len(s.complexPending) == 0 || s.complexPending[requester] {
			s.complexMu.Unlock()
			return nil
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(s.cfg.LockTimeout)
		}
		w := s.complexWait.Add()
		s.complexMu.Unlock()
		if !w.Wait(deadline) {
			return lock.ErrTimeout
		}
		s.complexMu.Lock()
	}
}

// Disconnect implements msg.Server: a cleanly departing client (it must
// have shipped its dirty pages first) gives up all its locks, and its
// pending flush notes are dropped.
func (s *Server) Disconnect(c ident.ClientID) error {
	s.glm.ReleaseAll(c)
	s.regMu.Lock()
	delete(s.clients, c)
	s.regMu.Unlock()
	s.forgetLanded(c)
	s.takeNotes(c)
	return nil
}

// ClientCrashed implements the §3.3 server-side reaction: shared locks
// of the crashed client are released, exclusive locks retained, and
// callbacks against them queued until the client recovers.  Its
// pending flush notes are dropped with the crashed incarnation.
func (s *Server) ClientCrashed(c ident.ClientID) {
	s.glm.ClientCrashed(c)
	s.forgetLanded(c)
	s.takeNotes(c)
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
// and by tests that want a clean disk state).  Every pending flush
// note is sent before it returns (sendNotes).
func (s *Server) FlushAll() error {
	s.poolMu.Lock()
	dirty := s.pool.DirtyIDs()
	s.poolMu.Unlock()
	for _, pid := range dirty {
		sh := s.shardOf(pid)
		sh.mu.Lock()
		_, err := s.forcePageShard(sh, pid)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	s.notifyMu.Lock()
	all := s.notes
	s.notes = make(map[ident.ClientID][]msg.FlushedNote)
	s.notifyMu.Unlock()
	for c, notes := range all {
		s.sendNotes(c, notes)
	}
	return nil
}

// Crash simulates a server crash: the pool, DCT, GLM and token table
// evaporate; stable storage and the server log (its durable prefix)
// survive.  The cluster then constructs a fresh Server over the same
// store/log and runs RecoverServer.
func (s *Server) Crash() {
	s.glm.Stop()
	// Its connections die with it: a callback goroutine of this instance
	// that runs late must not reach a client, which would hand its dirty
	// page to a server that no longer exists.
	s.regMu.Lock()
	s.clients = make(map[ident.ClientID]msg.Client)
	s.regMu.Unlock()
	s.wakeLandingAll()
	// Any store that models volatility (a MemStore, or a decorator
	// forwarding to one) drops its unforced tail.
	if st, ok := s.slog.Store().(interface{ Crash() }); ok {
		st.Crash()
	}
	s.poolMu.Lock()
	s.pool.Clear()
	s.poolMu.Unlock()
}

// PagePSN returns the server's current PSN for the page: the pooled
// copy's when cached, else the disk copy's (0 when the page does not
// exist).  The chaos harness samples it to assert PSN monotonicity.
func (s *Server) PagePSN(pid page.ID) page.PSN {
	sh := s.shardOf(pid)
	sh.mu.Lock()
	if p, ok := s.cachedPage(pid); ok {
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

// DebugPage renders the server's view of a page — pool copy, dirty
// flag, per-slot PSNs and the DCT rows (debug tooling).
func (s *Server) DebugPage(pid page.ID) string {
	sh := s.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := ""
	s.poolMu.Lock()
	p, ok := s.pool.Get(pid)
	dirty := s.pool.IsDirty(pid)
	s.poolMu.Unlock()
	if ok {
		out += fmt.Sprintf("server pool: psn=%d dirty=%v slots:", p.PSN(), dirty)
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
