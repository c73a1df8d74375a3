package core

import (
	"errors"
	"fmt"
	"sync"

	"clientlog/internal/fleet"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/trace"
	"clientlog/internal/wal"
)

// serverHandle lets client-side transports survive a server restart:
// it is the Caller at the bottom of every loopback conn to a partition,
// forwarding each call to whatever engine currently backs it.
type serverHandle struct {
	mu    sync.RWMutex
	inner *Server
}

func (h *serverHandle) set(s *Server) {
	h.mu.Lock()
	h.inner = s
	h.mu.Unlock()
}

// Call implements msg.Caller.
func (h *serverHandle) Call(m msg.Method, req any) (any, error) {
	h.mu.RLock()
	s := h.inner
	h.mu.RUnlock()
	return msg.ServeServer(s, m, req)
}

// ErrUnknownClient reports an operation addressed to a client id the
// cluster does not track (never joined, or already removed by churn).
var ErrUnknownClient = errors.New("core: unknown client")

// clientSlot tracks one client's engine and durable log device across
// crashes.  opMu serializes whole membership operations (crash,
// restart, remove, surrogate recovery) on this client: churn drives
// them concurrently for the same id, and the loser of a race must see
// the winner's completed state (ErrCrashed, ErrUnknownClient), not a
// half-performed transition.  Cluster.mu still guards the clients map
// and slot field access; opMu is always acquired first and never held
// while taking another slot's opMu.
type clientSlot struct {
	opMu     sync.Mutex
	engine   *Client
	logStore wal.Store
	crashed  bool
}

// slotFor fetches the slot for id, or nil.
func (cl *Cluster) slotFor(id ident.ClientID) *clientSlot {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.clients[id]
}

// stillTracked reports whether slot is still the cluster's entry for
// id (a concurrent RemoveClient/SurrogateRecover may have won).
func (cl *Cluster) stillTracked(id ident.ClientID, slot *clientSlot) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.clients[id] == slot
}

// fleetPart is one server partition: its stable storage, server log
// device and handle are fixed for the cluster's lifetime; the engine is
// replaced on restart (guarded by Cluster.mu).
type fleetPart struct {
	store  storage.Store
	slog   wal.Store
	handle *serverHandle
	server *Server // guarded by Cluster.mu
}

// Cluster assembles a server fleet (one partition by default) and a set
// of clients over the in-process loopback transport, with crash/restart
// orchestration.  It is the substrate of the integration tests, the
// simulator, the benchmarks and the public API.
//
// With cfg.Partitions > 1 the page space is hash-partitioned across
// that many server engines: each client's conn is a fleet.Router over
// one loopback conn per partition, and a fleet.Detector resolves
// cross-partition deadlocks in the background (call Close when done
// with a fleet cluster to stop it).
type Cluster struct {
	cfg   Config
	Stats *msg.Stats
	// Reg is the cluster-wide metrics registry: every engine (including
	// post-restart incarnations) binds its counters here, and Stats is a
	// façade over the msg_* families in it.
	Reg        *obs.Registry
	remoteLogs *RemoteLogHost
	parts      []*fleetPart // immutable slice; .server under mu
	detector   *fleet.Detector

	mu      sync.Mutex
	clients map[ident.ClientID]*clientSlot
	tracer  trace.Recorder

	// wrapServer/wrapClient intercept the loopback conns (fault
	// injection); see WrapConns.
	wrapServer func(part, n int, conn msg.Server) msg.Server
	wrapClient func(id ident.ClientID, conn msg.Client) msg.Client
	connSeq    int
}

// NewCluster builds a memory-backed cluster (the "disks" survive
// simulated crashes).
func NewCluster(cfg Config) *Cluster {
	return NewClusterWithStores(cfg, memPageStore(cfg), memLogStore(cfg, 0))
}

// memPageStore builds the in-memory page store with the configured
// simulated device latency.
func memPageStore(cfg Config) *storage.MemStore {
	st := storage.NewMemStore(cfg.PageSize)
	st.SetLatency(cfg.DiskLatency)
	return st
}

// memLogStore builds an in-memory log device with the configured
// simulated fsync latency.
func memLogStore(cfg Config, capacity uint64) *wal.MemStore {
	st := wal.NewMemStore(capacity)
	st.SetFlushLatency(cfg.FsyncLatency)
	return st
}

// NewClusterIn is NewCluster with the engines bound into an existing
// metrics registry (nil means a private one), so a caller that serves
// /metrics can watch the cluster it is about to run.
func NewClusterIn(cfg Config, reg *obs.Registry) *Cluster {
	return NewClusterWithStoresIn(cfg, memPageStore(cfg), memLogStore(cfg, 0), reg)
}

// NewClusterWithStores builds a cluster over explicit stable storage
// and a server log device (e.g. file-backed, for the cmd tools).
func NewClusterWithStores(cfg Config, store storage.Store, slog wal.Store) *Cluster {
	return NewClusterWithStoresIn(cfg, store, slog, nil)
}

// NewClusterWithStoresIn is NewClusterWithStores with an explicit
// registry (nil means a private one).  The supplied store/slog back
// partition 0; with cfg.Partitions > 1 the remaining fleet members get
// their own memory-backed devices, and every partition's store is
// stride-restricted so it only mints page ids it owns.
func NewClusterWithStoresIn(cfg Config, store storage.Store, slog wal.Store, reg *obs.Registry) *Cluster {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cl := &Cluster{
		cfg:     cfg,
		Reg:     reg,
		Stats:   msg.NewStatsIn(reg),
		clients: make(map[ident.ClientID]*clientSlot),
	}
	cl.remoteLogs = NewRemoteLogHost(cfg.ClientLogCapacity)
	n := cfg.partitions()
	for i := 0; i < n; i++ {
		pst, plog := store, slog
		if i > 0 {
			pst, plog = memPageStore(cfg), memLogStore(cfg, 0)
		}
		if n > 1 {
			if s, ok := pst.(interface{ SetAllocStride(int, int) }); ok {
				s.SetAllocStride(n, i)
			}
		}
		pcfg := cfg
		pcfg.PartitionIndex = i
		part := &fleetPart{store: pst, slog: plog, handle: &serverHandle{}}
		part.server = NewServer(pcfg, pst, plog)
		if i == 0 {
			// The home partition hosts diskless clients' private logs and
			// assigns fleet-wide client ids (fleet.Router routes both).
			part.server.HostRemoteLogs(cl.remoteLogs)
		}
		srv := part.server
		reg.Lazy(func() { srv.RegisterObs(reg) })
		part.handle.set(part.server)
		cl.parts = append(cl.parts, part)
	}
	if n > 1 {
		cl.detector = fleet.NewDetector(cl.fleetMembers)
		cl.detector.RegisterObs(reg)
		cl.detector.Start(0)
	}
	return cl
}

// fleetMembers snapshots the current server engines for the detector.
func (cl *Cluster) fleetMembers() []fleet.Member {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	ms := make([]fleet.Member, 0, len(cl.parts))
	for _, p := range cl.parts {
		ms = append(ms, p.server)
	}
	return ms
}

// Close stops the cluster's background machinery (the fleet's
// distributed deadlock detector).  Engines, stores and clients are
// untouched; single-partition clusters have nothing to stop.
func (cl *Cluster) Close() {
	if cl.detector != nil {
		cl.detector.Stop()
	}
}

// Registry returns the cluster-wide metrics registry.
func (cl *Cluster) Registry() *obs.Registry { return cl.Reg }

// SetTracer installs a protocol-event recorder on the current server
// engines (and future incarnations after RestartServer).
func (cl *Cluster) SetTracer(r trace.Recorder) {
	cl.mu.Lock()
	cl.tracer = r
	servers := make([]*Server, 0, len(cl.parts))
	for _, p := range cl.parts {
		servers = append(servers, p.server)
	}
	cl.mu.Unlock()
	for _, s := range servers {
		s.SetTracer(r)
	}
}

// Server returns the current home-partition (index 0) server engine.
// Single-partition callers see the only server; fleet-aware callers use
// PartServer/Servers.
func (cl *Cluster) Server() *Server { return cl.PartServer(0) }

// PartServer returns partition i's current server engine.
func (cl *Cluster) PartServer(i int) *Server {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.parts[i].server
}

// Servers returns every partition's current server engine, in
// partition order.
func (cl *Cluster) Servers() []*Server {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*Server, 0, len(cl.parts))
	for _, p := range cl.parts {
		out = append(out, p.server)
	}
	return out
}

// Partitions returns the fleet size (1 for a classic single server).
func (cl *Cluster) Partitions() int { return len(cl.parts) }

// Owner returns the partition owning a page.
func (cl *Cluster) Owner(pid page.ID) int { return fleet.Owner(pid, len(cl.parts)) }

// Detector returns the fleet's distributed deadlock detector (nil for
// a single-partition cluster).  Tests call its Sweep directly for
// deterministic resolution.
func (cl *Cluster) Detector() *fleet.Detector { return cl.detector }

// WaitsFor returns the fleet-wide waits-for snapshot: the partitions'
// views merged, every entry tagged with its partition of origin.
func (cl *Cluster) WaitsFor() lock.WaitsForSnapshot {
	servers := cl.Servers()
	snaps := make([]lock.WaitsForSnapshot, 0, len(servers))
	for _, s := range servers {
		snaps = append(snaps, s.WaitsFor())
	}
	return fleet.MergeSnapshots(snaps)
}

// CheckInvariants runs every partition's cross-table consistency check
// and returns the first violation.
func (cl *Cluster) CheckInvariants() error {
	for i, s := range cl.Servers() {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}

// Config returns the cluster configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// WrapConns installs interceptors around every loopback conn built
// from now on: sw around each client's view of each partition server
// (one call per client join/restart and partition; part is the
// partition index, n increases per client conn), cw around the server
// side's view of each client.  A conn arrives as a msg.ServerConn or
// msg.ClientConn over a msg.Loopback, so an interceptor either
// decorates the typed interface or stacks a msg.Caller middleware on
// msg.ServerCaller(conn) / msg.ClientCaller(conn) — the chaos harness
// splices in msg.Faulty that way, tests park single messages.  Either
// may be nil.
func (cl *Cluster) WrapConns(sw func(part, n int, conn msg.Server) msg.Server, cw func(id ident.ClientID, conn msg.Client) msg.Client) {
	cl.mu.Lock()
	cl.wrapServer = sw
	cl.wrapClient = cw
	cl.mu.Unlock()
}

// serverConn builds the client's view of the server tier: a single
// loopback conn for one partition, a fleet.Router over per-partition
// conns otherwise.
func (cl *Cluster) serverConn() msg.Server {
	cl.mu.Lock()
	wrap := cl.wrapServer
	cl.connSeq++
	n := cl.connSeq
	cl.mu.Unlock()
	conns := make([]msg.Server, len(cl.parts))
	for i, part := range cl.parts {
		var conn msg.Server = msg.ServerConn{Caller: &msg.Loopback{Next: part.handle, Latency: cl.cfg.Latency, Stats: cl.Stats}}
		if wrap != nil {
			conn = wrap(i, n, conn)
		}
		conns[i] = conn
	}
	if len(conns) == 1 {
		return conns[0]
	}
	return fleet.NewRouter(conns)
}

// clientConn builds the server side's view of a client; in a fleet the
// same conn is attached to every partition.
func (cl *Cluster) clientConn(id ident.ClientID, c *Client) msg.Client {
	var conn msg.Client = msg.ClientConn{Caller: &msg.Loopback{Next: msg.ClientCaller(c), Latency: cl.cfg.Latency, Stats: cl.Stats}}
	cl.mu.Lock()
	wrap := cl.wrapClient
	cl.mu.Unlock()
	if wrap != nil {
		conn = wrap(id, conn)
	}
	return conn
}

// attachAll attaches a client conn to every partition server.
func (cl *Cluster) attachAll(id ident.ClientID, conn msg.Client) {
	for _, s := range cl.Servers() {
		s.Attach(id, conn)
	}
}

// AddClient joins a new client with a memory-backed private log.
func (cl *Cluster) AddClient() (*Client, error) {
	return cl.AddClientWithLog(memLogStore(cl.cfg, cl.cfg.ClientLogCapacity))
}

// AddDisklessClient joins a client without a local log disk: its
// private log lives at the home partition (Section 2's remote-log
// option) and every append/force is a protocol round trip.
func (cl *Cluster) AddDisklessClient() (*Client, error) {
	srv := cl.serverConn()
	reply, err := srv.Register(msg.RegisterReq{})
	if err != nil {
		return nil, err
	}
	logStore := NewRemoteLogStore(srv, reply.ID)
	c, err := NewClientWithID(cl.cfg, srv, logStore, reply.ID)
	if err != nil {
		return nil, err
	}
	cl.Reg.Lazy(func() { c.RegisterObs(cl.Reg) })
	conn := cl.clientConn(c.ID(), c)
	cl.mu.Lock()
	cl.clients[c.ID()] = &clientSlot{engine: c, logStore: logStore}
	cl.mu.Unlock()
	cl.attachAll(c.ID(), conn)
	return c, nil
}

// AddClientWithLog joins a new client over an explicit log device.
func (cl *Cluster) AddClientWithLog(logStore wal.Store) (*Client, error) {
	c, err := NewClient(cl.cfg, cl.serverConn(), logStore)
	if err != nil {
		return nil, err
	}
	cl.Reg.Lazy(func() { c.RegisterObs(cl.Reg) })
	conn := cl.clientConn(c.ID(), c)
	cl.mu.Lock()
	cl.clients[c.ID()] = &clientSlot{engine: c, logStore: logStore}
	cl.mu.Unlock()
	cl.attachAll(c.ID(), conn)
	return c, nil
}

// Client returns the current engine for a client id.
func (cl *Cluster) Client(id ident.ClientID) *Client {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if slot := cl.clients[id]; slot != nil {
		return slot.engine
	}
	return nil
}

// CrashClient simulates a client crash: the engine loses its volatile
// state and every partition server reacts per §3.3.
func (cl *Cluster) CrashClient(id ident.ClientID) {
	slot := cl.slotFor(id)
	if slot == nil {
		return
	}
	slot.opMu.Lock()
	defer slot.opMu.Unlock()
	if !cl.stillTracked(id, slot) {
		return // departed while we waited
	}
	cl.mu.Lock()
	engine := slot.engine
	slot.crashed = true
	cl.mu.Unlock()
	engine.Crash()
	for _, s := range cl.Servers() {
		s.ClientCrashed(id)
	}
}

// RestartClient runs §3.3 restart recovery for a crashed client and
// returns the fresh engine.
func (cl *Cluster) RestartClient(id ident.ClientID) (*Client, error) {
	slot := cl.slotFor(id)
	if slot == nil {
		return nil, fmt.Errorf("%w %s", ErrUnknownClient, id)
	}
	slot.opMu.Lock()
	defer slot.opMu.Unlock()
	if !cl.stillTracked(id, slot) {
		return nil, fmt.Errorf("%w %s", ErrUnknownClient, id)
	}
	c, err := RecoverClient(cl.cfg, cl.serverConn(), slot.logStore, id)
	if err != nil {
		return nil, err
	}
	cl.Reg.Lazy(func() { c.RegisterObs(cl.Reg) })
	conn := cl.clientConn(id, c)
	cl.attachAll(id, conn)
	cl.mu.Lock()
	slot.engine = c
	slot.crashed = false
	cl.mu.Unlock()
	return c, nil
}

// RemoveClient cleanly departs a client (churn "leave"): the engine
// must be quiescent (no transaction in flight).  The server releases
// the client's locks and forgets it, and the cluster stops tracking the
// slot, so the departed client no longer participates in server restart
// recovery.  Removing a crashed client is an error — crashed clients
// hold retained X locks that only RestartClient or SurrogateRecover may
// release.
func (cl *Cluster) RemoveClient(id ident.ClientID) error {
	slot := cl.slotFor(id)
	if slot == nil {
		return fmt.Errorf("%w %s", ErrUnknownClient, id)
	}
	slot.opMu.Lock()
	defer slot.opMu.Unlock()
	if !cl.stillTracked(id, slot) {
		return fmt.Errorf("%w %s", ErrUnknownClient, id)
	}
	cl.mu.Lock()
	crashed := slot.crashed
	engine := slot.engine
	cl.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	// Orderly shutdown: ship every dirty page, force every page still
	// covered by this client's log, then have the server release the
	// locks and drop the connection.
	if err := engine.Disconnect(); err != nil {
		return err
	}
	// Neutralize the departed engine so a stale handle gets ErrCrashed
	// instead of issuing RPCs as an unregistered client.
	engine.Crash()
	cl.mu.Lock()
	delete(cl.clients, id)
	cl.mu.Unlock()
	return nil
}

// SurrogateRecover recovers a crashed client's updates from its log
// without bringing the client back: the surrogate redoes/undoes per
// §3.3, ships the result, releases the locks and removes the client.
func (cl *Cluster) SurrogateRecover(id ident.ClientID) error {
	slot := cl.slotFor(id)
	if slot == nil {
		return fmt.Errorf("%w %s", ErrUnknownClient, id)
	}
	slot.opMu.Lock()
	defer slot.opMu.Unlock()
	if !cl.stillTracked(id, slot) {
		return fmt.Errorf("%w %s", ErrUnknownClient, id)
	}
	if err := SurrogateRecover(cl.cfg, cl.serverConn(), slot.logStore, id); err != nil {
		return err
	}
	cl.mu.Lock()
	delete(cl.clients, id)
	cl.mu.Unlock()
	return nil
}

// CrashServer simulates a crash of the whole server tier (every
// partition), optionally taking clients down with it (§3.5 complex
// crash).  RestartServer must follow.
func (cl *Cluster) CrashServer(alsoClients ...ident.ClientID) {
	cl.mu.Lock()
	servers := make([]*Server, 0, len(cl.parts))
	for _, p := range cl.parts {
		servers = append(servers, p.server)
	}
	var engines []*Client
	for _, id := range alsoClients {
		if slot := cl.clients[id]; slot != nil {
			slot.crashed = true
			engines = append(engines, slot.engine)
		}
	}
	cl.mu.Unlock()
	for _, s := range servers {
		s.Crash()
	}
	// The hosted remote logs lose their unflushed tails with the server.
	cl.remoteLogs.Crash()
	for _, engine := range engines {
		engine.Crash()
	}
}

// RestartServer reconstructs every partition over its surviving store
// and log and runs §3.4 restart recovery with the operational clients,
// partition by partition in ascending order.  Clients that crashed
// along with the server recover afterwards via RestartClient (§3.5).
func (cl *Cluster) RestartServer() error {
	for i := range cl.parts {
		if err := cl.RestartPartition(i); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}

// CrashPartition crashes one fleet member; the other partitions and
// the clients keep running.  RestartPartition must follow.  Crashing
// the home partition (0) also loses the hosted remote logs' unflushed
// tails, exactly as a whole-tier crash would.
func (cl *Cluster) CrashPartition(i int) {
	cl.mu.Lock()
	server := cl.parts[i].server
	cl.mu.Unlock()
	server.Crash()
	if i == 0 {
		cl.remoteLogs.Crash()
	}
}

// RestartPartition reconstructs partition i over its surviving store
// and log and runs §3.4 restart recovery against the operational
// clients.  Clients currently crashed are reported as §3.5 complex
// crashes to the new engine; harnesses avoid pairing an independent
// partition crash with a client crash (see DESIGN.md §12) because the
// client-side lock test cannot distinguish which partition's state was
// lost.
func (cl *Cluster) RestartPartition(i int) error {
	pcfg := cl.cfg
	pcfg.PartitionIndex = i
	cl.mu.Lock()
	part := cl.parts[i]
	server := NewServer(pcfg, part.store, part.slog)
	if i == 0 {
		server.HostRemoteLogs(cl.remoteLogs)
	}
	cl.Reg.Lazy(func() { server.RegisterObs(cl.Reg) })
	if cl.tracer != nil {
		server.SetTracer(cl.tracer)
	}
	part.server = server
	type survivor struct {
		id     ident.ClientID
		engine *Client
	}
	var survivors []survivor
	var crashed []ident.ClientID
	for id, slot := range cl.clients {
		if slot.crashed {
			crashed = append(crashed, id)
			continue
		}
		survivors = append(survivors, survivor{id: id, engine: slot.engine})
	}
	cl.mu.Unlock()
	operational := make(map[ident.ClientID]msg.Client)
	for _, sv := range survivors {
		operational[sv.id] = cl.clientConn(sv.id, sv.engine)
	}
	// Reconnect the transports first: the recovery protocol itself makes
	// the clients ship pages back to the new engine.
	part.handle.set(server)
	return server.RecoverServer(operational, crashed)
}

// SeedPages creates n pages with objsPerPage objects of objSize bytes
// directly in stable storage, before any client joins; it returns the
// page ids.  In a fleet the allocations round-robin across the
// partitions' stores (each minting only ids it owns).  The initial
// object bytes are deterministic (pageID/slot-derived) so tests can
// predict them.
func (cl *Cluster) SeedPages(n, objsPerPage, objSize int) ([]page.ID, error) {
	ids := make([]page.ID, 0, n)
	for i := 0; i < n; i++ {
		st := cl.parts[i%len(cl.parts)].store
		p, err := st.Allocate()
		if err != nil {
			return nil, err
		}
		for s := 0; s < objsPerPage; s++ {
			data := make([]byte, objSize)
			for b := range data {
				data[b] = byte(uint64(p.ID())*31 + uint64(s)*7 + uint64(b))
			}
			if _, _, err := p.Insert(data); err != nil {
				return nil, fmt.Errorf("core: seeding page %d: %w", p.ID(), err)
			}
		}
		if err := st.Write(p); err != nil {
			return nil, err
		}
		ids = append(ids, p.ID())
	}
	return ids, nil
}

// ownerPart returns the partition owning a page.
func (cl *Cluster) ownerPart(pid page.ID) *fleetPart {
	return cl.parts[fleet.Owner(pid, len(cl.parts))]
}

// PagePSNs returns the page's PSN on disk and the owning server's
// current (cached-or-disk) PSN.  Disk PSNs only ever advance (in-place
// writes are guarded by replacement records); the chaos harness asserts
// that.
func (cl *Cluster) PagePSNs(pid page.ID) (disk, current page.PSN) {
	part := cl.ownerPart(pid)
	cl.mu.Lock()
	server := part.server
	cl.mu.Unlock()
	if p, err := part.store.Read(pid); err == nil {
		disk = p.PSN()
	}
	return disk, server.PagePSN(pid)
}

// DebugPage renders every tier's view of a page (debug tooling).
func (cl *Cluster) DebugPage(pid page.ID) string {
	part := cl.ownerPart(pid)
	cl.mu.Lock()
	server := part.server
	var clientIDs []ident.ClientID
	for id := range cl.clients {
		clientIDs = append(clientIDs, id)
	}
	cl.mu.Unlock()
	out := server.DebugPage(pid)
	if disk, err := part.store.Read(pid); err == nil {
		out += fmt.Sprintf("disk: psn=%d slots:", disk.PSN())
		for _, sl := range disk.UsedSlotIDs() {
			d, _ := disk.Read(sl)
			out += fmt.Sprintf(" %d@%d=%x", sl, disk.SlotPSN(sl), d[:4])
		}
		out += "\n"
	}
	for _, id := range clientIDs {
		if c := cl.Client(id); c != nil {
			out += c.DebugPage(pid) + "\n"
		}
	}
	return out
}

// ReadObject reads an object's current durable-or-cached state through
// the owning server (test/verification helper; it does not take locks).
func (cl *Cluster) ReadObject(obj page.ObjectID) ([]byte, error) {
	part := cl.ownerPart(obj.Page)
	cl.mu.Lock()
	server := part.server
	cl.mu.Unlock()
	reply, err := server.Fetch(msg.FetchReq{Page: obj.Page})
	if err != nil {
		return nil, err
	}
	p := new(page.Page)
	if err := p.UnmarshalBinary(reply.Image); err != nil {
		return nil, err
	}
	data, ok := p.Read(obj.Slot)
	if !ok {
		return nil, page.ErrBadSlot
	}
	return data, nil
}
