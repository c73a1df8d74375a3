package main

// surface lists every symbol of the program the benchmark depends on, so a
// later seam refactor (ROADMAP item 3: one Call seam for msg.Server, no v2
// wire, one recorder) knows exactly which benchmark follow-up it needs.
// symbol is a package-level name of clientlog/internal/<pkg>; uses names the
// methods and fields reached through it and the file that does so.
// TestSurfaceIsComplete fails when a source file names a program symbol that
// is missing here, or when an entry is no longer used.
type surfaceEntry struct {
	symbol string
	uses   string
}

var surface = []surfaceEntry{
	// core: the system under test (instance.go, drive.go, check.go, run.go)
	{"core.Config", "fields PageSize, ClientPool, ServerPool, Granularity, Logging, Update, LockTimeout, ClientLogCapacity, CheckpointEvery, Spans"},
	{"core.DefaultConfig", "starting point of every workload's configuration"},
	{"core.GranAdaptive", "the paper's locking scheme"},
	{"core.LogLocal", "the paper's logging scheme"},
	{"core.UpdateMerge", "the paper's update scheme"},
	{"core.Cluster", "AddClientWithLog, WrapConns, CrashClient, RestartClient, CrashServer, RestartServer, Server, Stats.Messages, Stats.Bytes, Close"},
	{"core.NewClusterWithStores", "loopback workloads, over benchmark-held devices"},
	{"core.Server", "Log().BytesAppended, Metrics.Merges"},
	{"core.NewServer", "shared-tcp and the RTT microbenchmark"},
	{"core.Client", "Begin, ID, Log().BytesAppended, Log().ForceAll (test), Metrics.ClientMerges, ReplacePage; Txn.Read, Overwrite, Commit, Abort"},
	{"core.NewClient", "shared-tcp and the RTT microbenchmark"},
	// msg: both transport interfaces, wrapped whole by the decorators (trace.go)
	{"msg.Server", "all 19 methods, decorated by tracedServer"},
	{"msg.Client", "all 9 methods, decorated by tracedClient"},
	{"msg.RegisterReq", "decorator signature"}, {"msg.RegisterReply", "decorator signature"},
	{"msg.LockReq", "decorator signature; AppendWire, DecodeWire in the codec microbenchmark; fields Client, Name, Mode, HasCached, CachedPSN"},
	{"msg.LockReply", "decorator signature; fields Name, Mode"},
	{"msg.LockBatchReq", "decorator signature; field Items"}, {"msg.LockBatchReply", "decorator signature"},
	{"msg.UnlockReq", "decorator signature"},
	{"msg.FetchReq", "decorator signature"},
	{"msg.FetchReply", "decorator signature; AppendWire, DecodeWire, fields Image, DCTPSN in the codec microbenchmark"},
	{"msg.FetchBatchReq", "decorator signature; field Pages"}, {"msg.FetchBatchReply", "decorator signature"},
	{"msg.ShipReq", "decorator signature"},
	{"msg.ForceReq", "decorator signature"}, {"msg.ForceReply", "decorator signature"},
	{"msg.AllocReq", "decorator signature"}, {"msg.FreeReq", "decorator signature"},
	{"msg.CommitShipReq", "decorator signature"},
	{"msg.TokenReq", "decorator signature"}, {"msg.TokenReply", "decorator signature"},
	{"msg.RecoveryFetchReq", "decorator signature"},
	{"msg.DCTRow", "decorator signature"},
	{"msg.LogReq", "decorator signature"}, {"msg.LogReply", "decorator signature"},
	{"msg.CallbackReq", "decorator signature; field Requester"}, {"msg.CallbackReply", "decorator signature"},
	{"msg.DeescReq", "decorator signature; field Requester"}, {"msg.DeescReply", "decorator signature"},
	{"msg.RecoveryInfoReply", "decorator signature"},
	{"msg.CallbackListReq", "decorator signature"}, {"msg.CallbackListReply", "decorator signature"},
	{"msg.RecoverPageReq", "decorator signature"},
	{"msg.WireDec", "Reset, Err in the codec microbenchmark"},
	// netrpc: real TCP (instance.go, micro.go, drive.go)
	{"netrpc.Serve", "shared-tcp and the RTT microbenchmark"},
	{"netrpc.Server", "Addr, Close"},
	{"netrpc.Dial", "one connection per client"},
	{"netrpc.Transport", "as msg.Server; NegotiatedVersion, SetLocal, Close, Lock"},
	{"netrpc.ProtocolVersion", "shared-tcp insists on the current wire"},
	{"netrpc.Metrics", "FramesSent, BytesSent"},
	// lock (trace.go, drive.go, micro.go)
	{"lock.ErrDeadlock", "retried, counted"}, {"lock.ErrTimeout", "retried, counted"},
	{"lock.Holding", "decorator signature"},
	{"lock.Name", "decorator signature; field Page"}, {"lock.Mode", "stub callbacker signature"},
	{"lock.ObjName", "microbenchmarks"}, {"lock.S", "microbenchmarks"}, {"lock.X", "microbenchmarks"},
	{"lock.NewLLM", "microbenchmark; LLM.InstallCached, AcquireLocal, ReleaseTxn"},
	{"lock.Granted", "microbenchmark"},
	{"lock.NewGLM", "microbenchmark"},
	{"lock.GLM", "SetCallbacker, Acquire, Release, Deescalate, Stop; the Callbacker interface through the stub"},
	{"lock.Request", "fields Client, Name, Mode"},
	// wal (trace.go, instance.go, micro.go)
	{"wal.Store", "all 8 methods, decorated by tracedLog"},
	{"wal.HeadroomAppender", "AppendHeadroom, kept working through tracedLog"},
	{"wal.LSN", "decorator signature"},
	{"wal.MemStore", "the log device; Crash, End, Durable, ReadAt"},
	{"wal.NewMemStore", "the log device, bounded by the workload's logCapacity"},
	{"wal.NewLog", "microbenchmarks; Log.Append, AppendAndForce"},
	{"wal.Encode", "microbenchmark"}, {"wal.Update", "microbenchmark record"}, {"wal.OpOverwrite", "microbenchmark record"},
	// storage (trace.go, instance.go, micro.go)
	{"storage.Store", "all 8 methods, decorated by tracedStore"},
	{"storage.Stats", "decorator signature"},
	{"storage.MemStore", "the page device; Allocate, Write"},
	{"storage.NewMemStore", "the page device"},
	// page, buffer, ident, fleet, obs
	{"page.ID", "everywhere a page is named"}, {"page.ObjectID", "fields Page, Slot"}, {"page.PSN", "decorator signature"},
	{"page.Page", "Insert, ID, Overwrite, Clone, MarshalBinary, UnmarshalBinary"},
	{"page.New", "microbenchmark pages"}, {"page.Merge", "microbenchmark"},
	{"buffer.New", "microbenchmark; Pool.Put, Get, EvictVictim"},
	{"ident.ClientID", "decorator signature; tracer.ids"}, {"ident.MakeTxnID", "microbenchmark"},
	{"fleet.NewRouter", "microbenchmark; Router.Lock"},
	{"obs.Counter", "microbenchmark; Add"}, {"obs.Histogram", "microbenchmark; Observe"},
}
