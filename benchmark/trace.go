package main

import (
	"errors"
	"sync/atomic"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// Tracing lives entirely in the benchmark: decorators around the layer
// boundaries that can be reached from outside the program record one span
// per call into preallocated buffers.  The program's own tracing
// (Config.Spans, internal/trace) stays off.

// layer says which boundary a span was recorded at.
type layer uint8

const (
	layCore      layer = iota // Txn API calls made by the driver
	layMsg                    // msg.Server calls: client -> server RPCs
	layCallback               // msg.Client calls: server -> client
	layClientWAL              // wal.Store under a client's private log
	layServerWAL              // wal.Store under the server log
	layStorage                // storage.Store under the server
	numLayers
)

var layerNames = [numLayers]string{"core", "msg", "callback", "client-wal", "server-wal", "storage"}

// spanName enumerates the calls spans are recorded for.
type spanName uint8

const (
	// core
	nmTxn spanName = iota
	nmBegin
	nmRead
	nmWrite
	nmCommit
	nmAbort
	nmBackoff
	nmRestartClient
	nmRestartServer
	// msg.Server
	nmRegister
	nmLock
	nmLockBatch
	nmUnlock
	nmFetch
	nmFetchBatch
	nmShip
	nmForce
	nmAlloc
	nmFree
	nmCommitShip
	nmToken
	nmRecoveryFetch
	nmReinstall
	nmRecoverQuery
	nmLogOp
	nmRecoverEnd
	nmDisconnect
	// msg.Client
	nmCallbackObject
	nmDeescalatePage
	nmRecallToken
	nmRecoveryShipUpTo
	nmNotifyFlushed
	nmRecoveryInfo
	nmFetchCached
	nmCallbackList
	nmRecoverPage
	// wal.Store
	nmAppend
	nmFlush
	nmReclaim
	// storage.Store
	nmStoreRead
	nmStoreWrite
	nmStoreAllocate
	nmStoreFree
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "begin", "read", "write", "commit", "abort", "backoff", "restart-client", "restart-server",
	"Register", "Lock", "LockBatch", "Unlock", "Fetch", "FetchBatch", "Ship", "Force", "Alloc", "Free",
	"CommitShip", "Token", "RecoveryFetch", "Reinstall", "RecoverQuery", "LogOp", "RecoverEnd", "Disconnect",
	"CallbackObject", "DeescalatePage", "RecallToken", "RecoveryShipUpTo", "NotifyFlushed", "RecoveryInfo",
	"FetchCached", "CallbackList", "RecoverPage",
	"Append", "Flush", "Reclaim",
	"Read", "Write", "Allocate", "Free",
}

// Outcome flags of a span.
const (
	flagOK uint8 = iota
	flagDeadlock
	flagTimeout
	flagError
)

func errFlag(err error) uint8 {
	switch {
	case err == nil:
		return flagOK
	case errors.Is(err, lock.ErrDeadlock):
		return flagDeadlock
	case errors.Is(err, lock.ErrTimeout):
		return flagTimeout
	default:
		return flagError
	}
}

// span is one recorded call.  parent is the index, in the same buffer, of
// the span that was current when this one started (-1 for none): spans of
// one client nest by client index, because a client runs one transaction
// at a time.
type span struct {
	start  int64 // ns since the tracer's epoch
	dur    int64 // ns
	parent int32
	n      int32 // bytes appended / pages carried / items, by name
	layer  layer
	name   spanName
	flag   uint8
}

// spanBuf is one preallocated span buffer.  Slots are reserved with an
// atomic add, so the goroutines that share a buffer (a client's
// transaction loop and a callback handled on its behalf) never lock.
type spanBuf struct {
	epoch time.Time
	// flat buffers (the server's) are written by many goroutines at once,
	// so "the current span" means nothing there and parents stay -1.
	flat bool
	// paused buffers record nothing: the benchmark's own read-backs are
	// not part of the workload.
	paused  atomic.Bool
	n       atomic.Int64
	cur     atomic.Int32 // index of the span new spans are children of
	dropped atomic.Int64
	spans   []span
}

func newSpanBuf(epoch time.Time, capacity int) *spanBuf {
	b := &spanBuf{epoch: epoch, spans: make([]span, capacity)}
	b.cur.Store(-1)
	return b
}

// reset discards every span; call it only while nothing records.
func (b *spanBuf) reset() {
	b.n.Store(0)
	b.cur.Store(-1)
	b.dropped.Store(0)
}

// recorded returns the spans recorded so far.
func (b *spanBuf) recorded() []span {
	n := b.n.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

// open is a span in progress.
type open struct {
	idx   int32 // -1 when the buffer is full
	prev  int32
	start time.Time
}

// enter starts a span and makes it the current parent.  A nil buffer (an
// untraced run) and a paused one record nothing.
func (b *spanBuf) enter() open {
	if b == nil || b.paused.Load() {
		return open{idx: -1}
	}
	o := open{prev: -1, start: time.Now()}
	i := b.n.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		o.idx = -1
		return o
	}
	o.idx = int32(i)
	if !b.flat {
		o.prev = b.cur.Swap(o.idx)
	}
	return o
}

// leave ends a span and restores its parent as current.
func (b *spanBuf) leave(o open, lay layer, name spanName, n int, err error) {
	if o.idx < 0 { // nothing was entered: nil, paused or full buffer
		return
	}
	end := time.Now()
	b.spans[o.idx] = span{
		start:  int64(o.start.Sub(b.epoch)),
		dur:    int64(end.Sub(o.start)),
		parent: o.prev,
		n:      int32(n),
		layer:  lay,
		name:   name,
		flag:   errFlag(err),
	}
	if !b.flat {
		b.cur.Store(o.prev)
	}
}

// tracer owns the buffers of one traced instance: one per client for
// everything that happens on that client's behalf, one for the server's
// stores.
type tracer struct {
	client [numClients]*spanBuf
	server *spanBuf
	// ids maps a program client id to the benchmark's client index, for
	// the callbacks whose request names the requester.
	ids map[ident.ClientID]int
	// logReads counts ReadAt calls on every log of the instance.
	logReads atomic.Int64
}

func newTracer(clientSpans, serverSpans int) *tracer {
	epoch := time.Now()
	t := &tracer{server: newSpanBuf(epoch, serverSpans), ids: make(map[ident.ClientID]int)}
	t.server.flat = true
	for i := range t.client {
		t.client[i] = newSpanBuf(epoch, clientSpans)
	}
	return t
}

// A nil tracer is an untraced run: its buffers are nil and record nothing.

func (t *tracer) clientBuf(i int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.client[i]
}

func (t *tracer) serverBuf() *spanBuf {
	if t == nil {
		return nil
	}
	return t.server
}

// reads returns the log records read so far through the decorated logs.
func (t *tracer) reads() int64 {
	if t == nil {
		return 0
	}
	return t.logReads.Load()
}

// reset discards every span; call it only while nothing records.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	for _, b := range t.client {
		b.reset()
	}
	t.server.reset()
}

// pause stops (or resumes) recording on every buffer.
func (t *tracer) pause(on bool) {
	if t == nil {
		return
	}
	for _, b := range t.client {
		b.paused.Store(on)
	}
	t.server.paused.Store(on)
}

func (t *tracer) dropped() int64 {
	d := t.server.dropped.Load()
	for _, b := range t.client {
		d += b.dropped.Load()
	}
	return d
}

// --- msg.Server decorator: the RPCs one client sends ---

type tracedServer struct {
	inner msg.Server
	b     *spanBuf
}

func (t *tracedServer) Register(r msg.RegisterReq) (msg.RegisterReply, error) {
	o := t.b.enter()
	rep, err := t.inner.Register(r)
	t.b.leave(o, layMsg, nmRegister, 0, err)
	return rep, err
}

func (t *tracedServer) Lock(r msg.LockReq) (msg.LockReply, error) {
	o := t.b.enter()
	rep, err := t.inner.Lock(r)
	t.b.leave(o, layMsg, nmLock, 1, err)
	return rep, err
}

func (t *tracedServer) LockBatch(r msg.LockBatchReq) (msg.LockBatchReply, error) {
	o := t.b.enter()
	rep, err := t.inner.LockBatch(r)
	t.b.leave(o, layMsg, nmLockBatch, len(r.Items), err)
	return rep, err
}

func (t *tracedServer) Unlock(r msg.UnlockReq) error {
	o := t.b.enter()
	err := t.inner.Unlock(r)
	t.b.leave(o, layMsg, nmUnlock, 0, err)
	return err
}

func (t *tracedServer) Fetch(r msg.FetchReq) (msg.FetchReply, error) {
	o := t.b.enter()
	rep, err := t.inner.Fetch(r)
	t.b.leave(o, layMsg, nmFetch, 1, err)
	return rep, err
}

func (t *tracedServer) FetchBatch(r msg.FetchBatchReq) (msg.FetchBatchReply, error) {
	o := t.b.enter()
	rep, err := t.inner.FetchBatch(r)
	t.b.leave(o, layMsg, nmFetchBatch, len(r.Pages), err)
	return rep, err
}

func (t *tracedServer) Ship(r msg.ShipReq) error {
	o := t.b.enter()
	err := t.inner.Ship(r)
	t.b.leave(o, layMsg, nmShip, 1, err)
	return err
}

func (t *tracedServer) Force(r msg.ForceReq) (msg.ForceReply, error) {
	o := t.b.enter()
	rep, err := t.inner.Force(r)
	t.b.leave(o, layMsg, nmForce, 0, err)
	return rep, err
}

func (t *tracedServer) Alloc(r msg.AllocReq) (msg.FetchReply, error) {
	o := t.b.enter()
	rep, err := t.inner.Alloc(r)
	t.b.leave(o, layMsg, nmAlloc, 0, err)
	return rep, err
}

func (t *tracedServer) Free(r msg.FreeReq) error {
	o := t.b.enter()
	err := t.inner.Free(r)
	t.b.leave(o, layMsg, nmFree, 0, err)
	return err
}

func (t *tracedServer) CommitShip(r msg.CommitShipReq) error {
	o := t.b.enter()
	err := t.inner.CommitShip(r)
	t.b.leave(o, layMsg, nmCommitShip, 0, err)
	return err
}

func (t *tracedServer) Token(r msg.TokenReq) (msg.TokenReply, error) {
	o := t.b.enter()
	rep, err := t.inner.Token(r)
	t.b.leave(o, layMsg, nmToken, 0, err)
	return rep, err
}

func (t *tracedServer) RecoveryFetch(r msg.RecoveryFetchReq) (msg.FetchReply, error) {
	o := t.b.enter()
	rep, err := t.inner.RecoveryFetch(r)
	t.b.leave(o, layMsg, nmRecoveryFetch, 1, err)
	return rep, err
}

func (t *tracedServer) Reinstall(c ident.ClientID, holds []lock.Holding) error {
	o := t.b.enter()
	err := t.inner.Reinstall(c, holds)
	t.b.leave(o, layMsg, nmReinstall, len(holds), err)
	return err
}

func (t *tracedServer) RecoverQuery(c ident.ClientID, pages []page.ID) ([]msg.DCTRow, error) {
	o := t.b.enter()
	rows, err := t.inner.RecoverQuery(c, pages)
	t.b.leave(o, layMsg, nmRecoverQuery, len(pages), err)
	return rows, err
}

func (t *tracedServer) LogOp(r msg.LogReq) (msg.LogReply, error) {
	o := t.b.enter()
	rep, err := t.inner.LogOp(r)
	t.b.leave(o, layMsg, nmLogOp, 0, err)
	return rep, err
}

func (t *tracedServer) RecoverEnd(c ident.ClientID) error {
	o := t.b.enter()
	err := t.inner.RecoverEnd(c)
	t.b.leave(o, layMsg, nmRecoverEnd, 0, err)
	return err
}

func (t *tracedServer) Disconnect(c ident.ClientID) error {
	o := t.b.enter()
	err := t.inner.Disconnect(c)
	t.b.leave(o, layMsg, nmDisconnect, 0, err)
	return err
}

// --- msg.Client decorator: what the server asks of one client ---

// tracedClient records the calls the server makes to client `self`.  A
// callback or de-escalation names its requester; its span goes into the
// requester's buffer, under the lock RPC that is waiting for it, because
// that is the transaction the time is charged to.  The restart-recovery
// calls name nobody and stay with the client that serves them.
type tracedClient struct {
	inner msg.Client
	t     *tracer
	self  int
}

func (t *tracedClient) bufFor(requester ident.ClientID) *spanBuf {
	if i, ok := t.t.ids[requester]; ok {
		return t.t.client[i]
	}
	return t.t.client[t.self]
}

func (t *tracedClient) CallbackObject(r msg.CallbackReq) (msg.CallbackReply, error) {
	b := t.bufFor(r.Requester)
	o := b.enter()
	rep, err := t.inner.CallbackObject(r)
	b.leave(o, layCallback, nmCallbackObject, 0, err)
	return rep, err
}

func (t *tracedClient) DeescalatePage(r msg.DeescReq) (msg.DeescReply, error) {
	b := t.bufFor(r.Requester)
	o := b.enter()
	rep, err := t.inner.DeescalatePage(r)
	b.leave(o, layCallback, nmDeescalatePage, 0, err)
	return rep, err
}

func (t *tracedClient) RecallToken(p page.ID) (msg.TokenReply, error) {
	b := t.t.client[t.self]
	o := b.enter()
	rep, err := t.inner.RecallToken(p)
	b.leave(o, layCallback, nmRecallToken, 0, err)
	return rep, err
}

func (t *tracedClient) RecoveryShipUpTo(p page.ID, psn page.PSN) error {
	b := t.t.client[t.self]
	o := b.enter()
	err := t.inner.RecoveryShipUpTo(p, psn)
	b.leave(o, layCallback, nmRecoveryShipUpTo, 0, err)
	return err
}

func (t *tracedClient) NotifyFlushed(p page.ID, psn page.PSN) {
	b := t.t.client[t.self]
	o := b.enter()
	t.inner.NotifyFlushed(p, psn)
	b.leave(o, layCallback, nmNotifyFlushed, 0, nil)
}

func (t *tracedClient) RecoveryInfo() (msg.RecoveryInfoReply, error) {
	b := t.t.client[t.self]
	o := b.enter()
	rep, err := t.inner.RecoveryInfo()
	b.leave(o, layCallback, nmRecoveryInfo, 0, err)
	return rep, err
}

func (t *tracedClient) FetchCached(ids []page.ID) ([][]byte, error) {
	b := t.t.client[t.self]
	o := b.enter()
	rep, err := t.inner.FetchCached(ids)
	b.leave(o, layCallback, nmFetchCached, len(ids), err)
	return rep, err
}

func (t *tracedClient) CallbackList(r msg.CallbackListReq) (msg.CallbackListReply, error) {
	b := t.t.client[t.self]
	o := b.enter()
	rep, err := t.inner.CallbackList(r)
	b.leave(o, layCallback, nmCallbackList, 0, err)
	return rep, err
}

func (t *tracedClient) RecoverPage(r msg.RecoverPageReq) error {
	b := t.t.client[t.self]
	o := b.enter()
	err := t.inner.RecoverPage(r)
	b.leave(o, layCallback, nmRecoverPage, 1, err)
	return err
}

// --- wal.Store decorator ---

// tracedLog records the device calls under one log.  It wraps every
// wal.Store method, so the program cannot tell that the device is a
// *wal.MemStore: Client.Crash and Server.Crash discard the unforced tail
// only after a type switch on that type, and would leave a wrapped log
// intact.  The benchmark therefore keeps the inner store and crashes it
// itself (see instance.crashClient / crashServer).
type tracedLog struct {
	inner wal.Store
	b     *spanBuf
	lay   layer
	// reads counts ReadAt calls.  A restart reads log records by the
	// million, far too many to keep a span each, so reads are only counted
	// and the restarts take the difference.
	reads *atomic.Int64
}

func (t *tracedLog) Append(payload []byte) (wal.LSN, error) {
	o := t.b.enter()
	lsn, err := t.inner.Append(payload)
	t.b.leave(o, t.lay, nmAppend, len(payload)+8, err)
	return lsn, err
}

// AppendHeadroom keeps the undo reservation of a bounded log working
// through the decorator (wal.HeadroomAppender).
func (t *tracedLog) AppendHeadroom(payload []byte, headroom uint64) (wal.LSN, error) {
	ha, ok := t.inner.(wal.HeadroomAppender)
	if !ok {
		return t.Append(payload)
	}
	o := t.b.enter()
	lsn, err := ha.AppendHeadroom(payload, headroom)
	t.b.leave(o, t.lay, nmAppend, len(payload)+8, err)
	return lsn, err
}

func (t *tracedLog) Flush(upTo wal.LSN) error {
	o := t.b.enter()
	err := t.inner.Flush(upTo)
	t.b.leave(o, t.lay, nmFlush, 0, err)
	return err
}

func (t *tracedLog) ReadAt(lsn wal.LSN) ([]byte, wal.LSN, error) {
	if !t.b.paused.Load() {
		t.reads.Add(1)
	}
	return t.inner.ReadAt(lsn)
}

func (t *tracedLog) Reclaim(upTo wal.LSN) error {
	o := t.b.enter()
	err := t.inner.Reclaim(upTo)
	t.b.leave(o, t.lay, nmReclaim, 0, err)
	return err
}

func (t *tracedLog) Durable() wal.LSN { return t.inner.Durable() }
func (t *tracedLog) End() wal.LSN     { return t.inner.End() }
func (t *tracedLog) Horizon() wal.LSN { return t.inner.Horizon() }
func (t *tracedLog) Close() error     { return t.inner.Close() }

// --- storage.Store decorator ---

type tracedStore struct {
	inner storage.Store
	b     *spanBuf
}

func (t *tracedStore) Allocate() (*page.Page, error) {
	o := t.b.enter()
	p, err := t.inner.Allocate()
	t.b.leave(o, layStorage, nmStoreAllocate, 0, err)
	return p, err
}

func (t *tracedStore) Free(id page.ID) error {
	o := t.b.enter()
	err := t.inner.Free(id)
	t.b.leave(o, layStorage, nmStoreFree, 0, err)
	return err
}

func (t *tracedStore) Read(id page.ID) (*page.Page, error) {
	o := t.b.enter()
	p, err := t.inner.Read(id)
	t.b.leave(o, layStorage, nmStoreRead, 1, err)
	return p, err
}

func (t *tracedStore) Write(p *page.Page) error {
	o := t.b.enter()
	err := t.inner.Write(p)
	t.b.leave(o, layStorage, nmStoreWrite, 1, err)
	return err
}

func (t *tracedStore) Allocated() []page.ID { return t.inner.Allocated() }
func (t *tracedStore) PageSize() int        { return t.inner.PageSize() }
func (t *tracedStore) Stats() storage.Stats { return t.inner.Stats() }
func (t *tracedStore) Close() error         { return t.inner.Close() }
