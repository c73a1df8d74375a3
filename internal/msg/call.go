package msg

import (
	"fmt"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/page"
)

// Method names one protocol call.  Every transport moves calls as a
// (Method, request) pair through a Caller; the typed interfaces Server
// and Client are spelled out exactly twice, in the stubs (ServerConn,
// ClientConn) and the dispatchers (ServeServer, ServeClient).
type Method uint8

// The protocol's calls.  Values are process-local: the TCP wire names
// the hot calls by binary tag and the cold ones by String.
const (
	MNone Method = iota

	// Server methods: client to server.
	MRegister
	MLock
	MLockBatch
	MUnlock
	MFetch
	MFetchBatch
	MShip
	MForce
	MAlloc
	MFree
	MCommitShip
	MToken
	MRecoveryFetch
	MReinstall
	MRecoverQuery
	MLogOp
	MRecoverEnd
	MDisconnect

	// Client methods: server to client.
	MCallbackObject
	MDeescalatePage
	MRecallToken
	MRecoveryShipUpTo
	MNotifyFlushed
	MRecoveryInfo
	MFetchCached
	MCallbackList
	MRecoverPage

	// MHello opens every TCP session (internal/netrpc).  Neither
	// interface carries it, so both dispatchers refuse it.
	MHello

	NumMethods
)

// methodInfo is one row of the method table.
type methodInfo struct {
	// name labels the call on the wire, in metrics and in errors.
	name string
	// oneWay marks a notification: one message, no reply, no retry.
	oneWay bool
	// payload approximates the bytes one exchange carries beyond the
	// fixed per-message overhead, for the loopback accounting (nil: none).
	// reply is nil when the call failed.
	payload func(req, reply any) int
}

// as is a checked conversion that yields the zero value for a nil or
// foreign reply.
func as[T any](v any) T {
	t, _ := v.(T)
	return t
}

func imagesLen(images [][]byte) int {
	n := 0
	for _, im := range images {
		n += len(im)
	}
	return n
}

func replyImage(_, reply any) int { return len(as[FetchReply](reply).Image) }

// carried returns the bytes of the page images a lock request carries.
func carried(c *Carry) int {
	n := 0
	if c != nil {
		for _, p := range c.Pages {
			n += len(p.Image)
		}
	}
	return n
}

var methods = [NumMethods]methodInfo{
	MRegister: {name: "register"},
	MLock: {name: "lock", payload: func(req, reply any) int {
		r := as[LockReply](reply)
		return 16 + len(r.Image) + 16*len(r.Flushed) + carried(req.(LockReq).Carry)
	}},
	MLockBatch: {name: "lock-batch", payload: func(req, reply any) int {
		r := as[LockBatchReply](reply)
		n := 16*len(req.(LockBatchReq).Items) + 16*len(r.Flushed) + carried(req.(LockBatchReq).Carry)
		for _, g := range r.Grants {
			n += len(g.Image)
		}
		return n
	}},
	MUnlock: {name: "unlock", payload: func(req, _ any) int { return 8 * len(req.(UnlockReq).Objs) }},
	MFetch:  {name: "fetch", payload: replyImage},
	MFetchBatch: {name: "fetch-batch", payload: func(_, reply any) int {
		return imagesLen(as[FetchBatchReply](reply).Images)
	}},
	MShip:  {name: "ship", payload: func(req, _ any) int { r := req.(ShipReq); return carried(&r.Carry) }},
	MForce: {name: "force"},
	MAlloc: {name: "alloc", payload: replyImage},
	MFree:  {name: "free"},
	MCommitShip: {name: "commit-ship", payload: func(req, _ any) int {
		r := req.(CommitShipReq)
		return imagesLen(r.Records) + imagesLen(r.Pages)
	}},
	MToken:         {name: "token", payload: func(_, reply any) int { return len(as[TokenReply](reply).Image) }},
	MRecoveryFetch: {name: "recovery-fetch", payload: replyImage},
	MReinstall:     {name: "reinstall", payload: func(req, _ any) int { return 16 * len(req.(ReinstallReq).Holds) }},
	MRecoverQuery: {name: "recover-query", payload: func(req, reply any) int {
		return 8*len(req.(RecoverQueryReq).Pages) + 16*len(as[[]DCTRow](reply))
	}},
	MLogOp: {name: "log-op", payload: func(req, reply any) int {
		return len(req.(LogReq).Payload) + len(as[LogReply](reply).Payload)
	}},
	MRecoverEnd: {name: "recover-end"},
	MDisconnect: {name: "disconnect"},

	MCallbackObject: {name: "cb.object", payload: func(_, reply any) int {
		return len(as[CallbackReply](reply).Image)
	}},
	MDeescalatePage: {name: "cb.deescalate", payload: func(_, reply any) int {
		r := as[DeescReply](reply)
		return len(r.Image) + 8*len(r.Objs)
	}},
	MRecallToken:      {name: "cb.recall-token", payload: func(_, reply any) int { return len(as[TokenReply](reply).Image) }},
	MRecoveryShipUpTo: {name: "cb.ship-up-to"},
	MNotifyFlushed:    {name: "cb.flushed", oneWay: true},
	MRecoveryInfo: {name: "cb.recovery-info", payload: func(_, reply any) int {
		r := as[RecoveryInfoReply](reply)
		return 16 * (len(r.DPT) + len(r.Cached) + len(r.Locks))
	}},
	MFetchCached:  {name: "cb.fetch-cached", payload: func(_, reply any) int { return imagesLen(as[[][]byte](reply)) }},
	MCallbackList: {name: "cb.callback-list", payload: func(_, reply any) int { return 24 * len(as[CallbackListReply](reply).Entries) }},
	MRecoverPage: {name: "cb.recover-page", payload: func(req, _ any) int {
		r := req.(RecoverPageReq)
		return len(r.Image) + 24*len(r.Callbacks)
	}},

	MHello: {name: "hello"},
}

// String returns the method's name as the wire and the metrics spell it.
func (m Method) String() string {
	if m < NumMethods {
		return methods[m].name
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// OneWay reports whether the call is a notification without a reply.
func (m Method) OneWay() bool { return m < NumMethods && methods[m].oneWay }

// MethodNamed maps a name back to its method, MNone when unknown.
func MethodNamed(name string) Method {
	for m := MNone + 1; m < NumMethods; m++ {
		if methods[m].name == name {
			return m
		}
	}
	return MNone
}

// Caller is the one seam every transport implements: deliver req as
// call m and return its reply.  Requests and replies are the typed
// structs of this package (see the stubs for each method's pair); a
// one-way call returns a nil reply.  Middleware — latency and
// accounting, fault injection, a test that parks a message — is a
// Caller wrapping another Caller.
type Caller interface {
	Call(m Method, req any) (any, error)
}

// ReinstallReq is the request of Server.Reinstall.
type ReinstallReq struct {
	Client ident.ClientID
	Holds  []lock.Holding
}

// RecoverQueryReq is the request of Server.RecoverQuery; the reply is a
// []DCTRow.
type RecoverQueryReq struct {
	Client ident.ClientID
	Pages  []page.ID
}

// call runs one two-way call through c and unboxes its reply.
func call[R any](c Caller, m Method, req any) (R, error) {
	body, err := c.Call(m, req)
	return as[R](body), err
}

func callErr(c Caller, m Method, req any) error {
	_, err := c.Call(m, req)
	return err
}

// ServerConn implements Server over a Caller.
type ServerConn struct{ Caller }

// Register implements Server.
func (c ServerConn) Register(r RegisterReq) (RegisterReply, error) {
	return call[RegisterReply](c.Caller, MRegister, r)
}

// Lock implements Server.
func (c ServerConn) Lock(r LockReq) (LockReply, error) { return call[LockReply](c.Caller, MLock, r) }

// LockBatch implements Server.
func (c ServerConn) LockBatch(r LockBatchReq) (LockBatchReply, error) {
	return call[LockBatchReply](c.Caller, MLockBatch, r)
}

// Unlock implements Server.
func (c ServerConn) Unlock(r UnlockReq) error { return callErr(c.Caller, MUnlock, r) }

// Fetch implements Server.
func (c ServerConn) Fetch(r FetchReq) (FetchReply, error) {
	return call[FetchReply](c.Caller, MFetch, r)
}

// FetchBatch implements Server.
func (c ServerConn) FetchBatch(r FetchBatchReq) (FetchBatchReply, error) {
	return call[FetchBatchReply](c.Caller, MFetchBatch, r)
}

// Ship implements Server.
func (c ServerConn) Ship(r ShipReq) error { return callErr(c.Caller, MShip, r) }

// Force implements Server.
func (c ServerConn) Force(r ForceReq) (ForceReply, error) {
	return call[ForceReply](c.Caller, MForce, r)
}

// Alloc implements Server.
func (c ServerConn) Alloc(r AllocReq) (FetchReply, error) {
	return call[FetchReply](c.Caller, MAlloc, r)
}

// Free implements Server.
func (c ServerConn) Free(r FreeReq) error { return callErr(c.Caller, MFree, r) }

// CommitShip implements Server.
func (c ServerConn) CommitShip(r CommitShipReq) error { return callErr(c.Caller, MCommitShip, r) }

// Token implements Server.
func (c ServerConn) Token(r TokenReq) (TokenReply, error) {
	return call[TokenReply](c.Caller, MToken, r)
}

// RecoveryFetch implements Server.
func (c ServerConn) RecoveryFetch(r RecoveryFetchReq) (FetchReply, error) {
	return call[FetchReply](c.Caller, MRecoveryFetch, r)
}

// Reinstall implements Server.
func (c ServerConn) Reinstall(id ident.ClientID, holds []lock.Holding) error {
	return callErr(c.Caller, MReinstall, ReinstallReq{Client: id, Holds: holds})
}

// RecoverQuery implements Server.
func (c ServerConn) RecoverQuery(id ident.ClientID, pages []page.ID) ([]DCTRow, error) {
	return call[[]DCTRow](c.Caller, MRecoverQuery, RecoverQueryReq{Client: id, Pages: pages})
}

// LogOp implements Server.
func (c ServerConn) LogOp(r LogReq) (LogReply, error) { return call[LogReply](c.Caller, MLogOp, r) }

// RecoverEnd implements Server.
func (c ServerConn) RecoverEnd(id ident.ClientID) error { return callErr(c.Caller, MRecoverEnd, id) }

// Disconnect implements Server.
func (c ServerConn) Disconnect(id ident.ClientID) error { return callErr(c.Caller, MDisconnect, id) }

// ClientConn implements Client over a Caller.
type ClientConn struct{ Caller }

// CallbackObject implements Client.
func (c ClientConn) CallbackObject(r CallbackReq) (CallbackReply, error) {
	return call[CallbackReply](c.Caller, MCallbackObject, r)
}

// DeescalatePage implements Client.
func (c ClientConn) DeescalatePage(r DeescReq) (DeescReply, error) {
	return call[DeescReply](c.Caller, MDeescalatePage, r)
}

// RecallToken implements Client.
func (c ClientConn) RecallToken(p page.ID) (TokenReply, error) {
	return call[TokenReply](c.Caller, MRecallToken, p)
}

// RecoveryShipUpTo implements Client.
func (c ClientConn) RecoveryShipUpTo(p page.ID, psn page.PSN) error {
	return callErr(c.Caller, MRecoveryShipUpTo, FlushedNote{Page: p, PSN: psn})
}

// NotifyFlushed implements Client.
func (c ClientConn) NotifyFlushed(p page.ID, psn page.PSN) {
	c.Call(MNotifyFlushed, FlushedNote{Page: p, PSN: psn}) //nolint:errcheck // one-way
}

// RecoveryInfo implements Client.
func (c ClientConn) RecoveryInfo() (RecoveryInfoReply, error) {
	return call[RecoveryInfoReply](c.Caller, MRecoveryInfo, nil)
}

// FetchCached implements Client.
func (c ClientConn) FetchCached(ids []page.ID) ([][]byte, error) {
	return call[[][]byte](c.Caller, MFetchCached, ids)
}

// CallbackList implements Client.
func (c ClientConn) CallbackList(r CallbackListReq) (CallbackListReply, error) {
	return call[CallbackListReply](c.Caller, MCallbackList, r)
}

// RecoverPage implements Client.
func (c ClientConn) RecoverPage(r RecoverPageReq) error { return callErr(c.Caller, MRecoverPage, r) }

// ServeServer executes call m against s.  It is the receiving end of
// every transport to a server.
func ServeServer(s Server, m Method, req any) (any, error) {
	switch m {
	case MRegister:
		return s.Register(req.(RegisterReq))
	case MLock:
		return s.Lock(req.(LockReq))
	case MLockBatch:
		return s.LockBatch(req.(LockBatchReq))
	case MUnlock:
		return nil, s.Unlock(req.(UnlockReq))
	case MFetch:
		return s.Fetch(req.(FetchReq))
	case MFetchBatch:
		return s.FetchBatch(req.(FetchBatchReq))
	case MShip:
		return nil, s.Ship(req.(ShipReq))
	case MForce:
		return s.Force(req.(ForceReq))
	case MAlloc:
		return s.Alloc(req.(AllocReq))
	case MFree:
		return nil, s.Free(req.(FreeReq))
	case MCommitShip:
		return nil, s.CommitShip(req.(CommitShipReq))
	case MToken:
		return s.Token(req.(TokenReq))
	case MRecoveryFetch:
		return s.RecoveryFetch(req.(RecoveryFetchReq))
	case MReinstall:
		r := req.(ReinstallReq)
		return nil, s.Reinstall(r.Client, r.Holds)
	case MRecoverQuery:
		r := req.(RecoverQueryReq)
		return s.RecoverQuery(r.Client, r.Pages)
	case MLogOp:
		return s.LogOp(req.(LogReq))
	case MRecoverEnd:
		return nil, s.RecoverEnd(req.(ident.ClientID))
	case MDisconnect:
		return nil, s.Disconnect(req.(ident.ClientID))
	}
	return nil, fmt.Errorf("msg: %v is not a server call", m)
}

// ServeClient executes call m against c.  It is the receiving end of
// every transport to a client.
func ServeClient(c Client, m Method, req any) (any, error) {
	switch m {
	case MCallbackObject:
		return c.CallbackObject(req.(CallbackReq))
	case MDeescalatePage:
		return c.DeescalatePage(req.(DeescReq))
	case MRecallToken:
		return c.RecallToken(req.(page.ID))
	case MRecoveryShipUpTo:
		n := req.(FlushedNote)
		return nil, c.RecoveryShipUpTo(n.Page, n.PSN)
	case MNotifyFlushed:
		n := req.(FlushedNote)
		c.NotifyFlushed(n.Page, n.PSN)
		return nil, nil
	case MRecoveryInfo:
		return c.RecoveryInfo()
	case MFetchCached:
		return c.FetchCached(req.([]page.ID))
	case MCallbackList:
		return c.CallbackList(req.(CallbackListReq))
	case MRecoverPage:
		return nil, c.RecoverPage(req.(RecoverPageReq))
	}
	return nil, fmt.Errorf("msg: %v is not a client call", m)
}

// ServerCaller returns a Caller that executes calls against s in
// process.  A ServerConn yields the Caller it already wraps, so
// stacking middleware on a conn adds no second boxing.
func ServerCaller(s Server) Caller {
	if sc, ok := s.(ServerConn); ok {
		return sc.Caller
	}
	return serverCaller{s}
}

// ClientCaller is ServerCaller for a Client.
func ClientCaller(c Client) Caller {
	if cc, ok := c.(ClientConn); ok {
		return cc.Caller
	}
	return clientCaller{c}
}

type serverCaller struct{ s Server }

func (c serverCaller) Call(m Method, req any) (any, error) { return ServeServer(c.s, m, req) }

type clientCaller struct{ c Client }

func (c clientCaller) Call(m Method, req any) (any, error) { return ServeClient(c.c, m, req) }
