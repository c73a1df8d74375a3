package main

import (
	"fmt"
	"net"

	"clientlog/internal/core"
	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/netrpc"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// instance is one built system under test: a server and numClients
// clients over benchmark-held memory devices, on the loopback transport
// (core.Cluster) or on real TCP, with or without the tracing decorators.
//
// Device model: storage.MemStore and wal.MemStore with Latency,
// DiskLatency and FsyncLatency all zero.  Every number is the program's CPU
// and protocol path on this machine, not a device's.
type instance struct {
	w   *workload
	cfg core.Config
	ids []page.ID // page id by page index
	tr  *tracer   // nil when untraced

	pageStore  *storage.MemStore
	serverLog  *wal.MemStore
	clientLogs [numClients]*wal.MemStore
	clients    [numClients]*core.Client
	cs         [numClients]*clientState
	led        *ledger

	// loopback
	cluster *core.Cluster
	// connOwner is the client index the next loopback conn is built for:
	// Cluster.WrapConns names a conn only by a running number.
	connOwner int

	// tcp
	engine     *core.Server
	rpc        *netrpc.Server
	transports [numClients]*netrpc.Transport

	// Counters of engines that have since crashed (their successors start
	// from zero).
	carriedLogBytes uint64
	carriedMerges   uint64
}

// build assembles a workload's system and primes it, with the tracing
// decorators installed when tr is not nil.  It is everything setup_s times.
func build(w *workload, seed int64, tr *tracer) (*instance, error) {
	cfg := core.DefaultConfig()
	cfg.PageSize = pageSize
	cfg.ClientPool = w.clientPool
	cfg.ServerPool = w.serverPool
	cfg.Granularity = core.GranAdaptive
	cfg.Logging = core.LogLocal
	cfg.Update = core.UpdateMerge
	cfg.LockTimeout = lockTimeout
	cfg.ClientLogCapacity = w.logCapacity
	cfg.CheckpointEvery = w.checkpointEvery
	cfg.Spans = nil

	in := &instance{w: w, cfg: cfg, tr: tr}
	in.pageStore = storage.NewMemStore(pageSize)
	in.serverLog = wal.NewMemStore(0)
	if err := in.seed(); err != nil {
		return nil, err
	}
	var err error
	if w.tcp {
		err = in.buildTCP()
	} else {
		err = in.buildLoopback()
	}
	if err != nil {
		in.close()
		return nil, err
	}
	if err := in.prime(seed); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// seed writes the database straight into stable storage: every object
// starts as the value of client 0, sequence 0.
func (in *instance) seed() error {
	val := make([]byte, objSize)
	putValue(val, 0, 0)
	for i := 0; i < in.w.pages; i++ {
		p, err := in.pageStore.Allocate()
		if err != nil {
			return fmt.Errorf("seed: allocate page %d: %w", i, err)
		}
		for s := 0; s < objsPerPage; s++ {
			if _, _, err := p.Insert(val); err != nil {
				return fmt.Errorf("seed: page %d slot %d: %w", i, s, err)
			}
		}
		if err := in.pageStore.Write(p); err != nil {
			return fmt.Errorf("seed: write page %d: %w", i, err)
		}
		in.ids = append(in.ids, p.ID())
	}
	return nil
}

func (in *instance) store() storage.Store {
	if in.tr == nil {
		return in.pageStore
	}
	return &tracedStore{inner: in.pageStore, b: in.tr.server}
}

func (in *instance) serverLogStore() wal.Store {
	if in.tr == nil {
		return in.serverLog
	}
	return &tracedLog{inner: in.serverLog, b: in.tr.server, lay: layServerWAL, reads: &in.tr.logReads}
}

func (in *instance) clientLogStore(i int) wal.Store {
	in.clientLogs[i] = wal.NewMemStore(in.cfg.ClientLogCapacity)
	if in.tr == nil {
		return in.clientLogs[i]
	}
	return &tracedLog{inner: in.clientLogs[i], b: in.tr.client[i], lay: layClientWAL, reads: &in.tr.logReads}
}

func (in *instance) buildLoopback() error {
	in.cluster = core.NewClusterWithStores(in.cfg, in.store(), in.serverLogStore())
	if in.tr != nil {
		in.cluster.WrapConns(
			func(_, _ int, conn msg.Server) msg.Server {
				return &tracedServer{inner: conn, b: in.tr.client[in.connOwner]}
			},
			func(id ident.ClientID, conn msg.Client) msg.Client {
				self, ok := in.tr.ids[id]
				if !ok {
					self = in.connOwner
					in.tr.ids[id] = self
				}
				return &tracedClient{inner: conn, t: in.tr, self: self}
			})
	}
	for i := range in.clients {
		in.connOwner = i
		c, err := in.cluster.AddClientWithLog(in.clientLogStore(i))
		if err != nil {
			return fmt.Errorf("add client %d: %w", i, err)
		}
		in.clients[i] = c
	}
	return nil
}

func (in *instance) buildTCP() error {
	in.engine = core.NewServer(in.cfg, in.store(), in.serverLogStore())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	in.rpc = netrpc.Serve(in.engine, ln)
	for i := range in.clients {
		t, err := netrpc.Dial(in.rpc.Addr().String())
		if err != nil {
			return fmt.Errorf("dial client %d: %w", i, err)
		}
		in.transports[i] = t
		if v := t.NegotiatedVersion(); v != netrpc.ProtocolVersion {
			return fmt.Errorf("client %d negotiated protocol v%d, want v%d", i, v, netrpc.ProtocolVersion)
		}
		var srv msg.Server = t
		if in.tr != nil {
			srv = &tracedServer{inner: t, b: in.tr.client[i]}
		}
		c, err := core.NewClient(in.cfg, srv, in.clientLogStore(i))
		if err != nil {
			return fmt.Errorf("register client %d: %w", i, err)
		}
		in.clients[i] = c
		var local msg.Client = c
		if in.tr != nil {
			in.tr.ids[c.ID()] = i
			local = &tracedClient{inner: c, t: in.tr, self: i}
		}
		t.SetLocal(local)
	}
	return nil
}

// close releases the sockets of a TCP instance; a loopback instance is
// plain garbage once dropped.
func (in *instance) close() {
	for _, t := range in.transports {
		if t != nil {
			t.Close()
		}
	}
	if in.rpc != nil {
		in.rpc.Close()
	}
	if in.cluster != nil {
		in.cluster.Close()
	}
}

// server returns the current server engine.
func (in *instance) server() *core.Server {
	if in.cluster != nil {
		return in.cluster.Server()
	}
	return in.engine
}

// traffic returns the program's always-on message and byte counters:
// Cluster.Stats on loopback, netrpc.Metrics frames and bytes sent on TCP
// (both ends of every connection are in this process, so "sent" counts
// each frame once).
func (in *instance) traffic() (msgs, bytes uint64) {
	if in.cluster != nil {
		return in.cluster.Stats.Messages(), in.cluster.Stats.Bytes()
	}
	return netrpc.Metrics.FramesSent.Load(), netrpc.Metrics.BytesSent.Load()
}

// logBytes returns the bytes appended to every log, client and server,
// over the instance's life.
func (in *instance) logBytes() uint64 {
	n := in.carriedLogBytes + in.server().Log().BytesAppended()
	for _, c := range in.clients {
		n += c.Log().BytesAppended()
	}
	return n
}

// merges returns the page-copy merges performed so far, at the server and
// at the clients.
func (in *instance) merges() uint64 {
	n := in.carriedMerges + in.server().Metrics.Merges.Load()
	for _, c := range in.clients {
		n += c.Metrics.ClientMerges.Load()
	}
	return n
}

// crashClient crashes client i.  The engine's own Crash discards the
// unforced log tail only when its store is a bare *wal.MemStore; the
// benchmark crashes the device it holds itself, so a decorated log dies
// exactly like a bare one.
func (in *instance) crashClient(i int) {
	c := in.clients[i]
	in.carriedLogBytes += c.Log().BytesAppended()
	in.carriedMerges += c.Metrics.ClientMerges.Load()
	in.cluster.CrashClient(c.ID())
	in.clientLogs[i].Crash()
}

// restartClient runs §3.3 restart recovery for client i.
func (in *instance) restartClient(i int) error {
	in.connOwner = i
	c, err := in.cluster.RestartClient(in.clients[i].ID())
	if err != nil {
		return err
	}
	in.clients[i] = c
	return nil
}

// crashServer crashes the server engine and its log device.
func (in *instance) crashServer() {
	s := in.server()
	in.carriedLogBytes += s.Log().BytesAppended()
	in.carriedMerges += s.Metrics.Merges.Load()
	in.cluster.CrashServer()
	in.serverLog.Crash()
}

// restartServer runs §3.4 restart recovery with both clients operational.
func (in *instance) restartServer() error { return in.cluster.RestartServer() }
