package netrpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fault"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// DefaultCallTimeout bounds one request-reply round trip.  It sits
// well above the engine's lock timeout so that a slow-but-answered
// lock wait is never misread as a dead connection.
const DefaultCallTimeout = 30 * time.Second

// DefaultTCPRetry is the reconnect-and-retry budget for calls over
// TCP: a handful of attempts with millisecond backoff, enough to ride
// out a connection swap without stretching a real outage.
func DefaultTCPRetry() msg.RetryPolicy {
	return msg.RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
}

// Transport is the client side of a TCP session: it implements
// msg.Server (requests travel to the remote server) and serves the
// server's callbacks against the local msg.Client handler installed
// with SetLocal.
//
// A Transport survives its connection: if the conn dies (or a fault
// plan kills it), the next call redials, resumes the session with its
// token, and retransmits under the original sequence number — the
// server's reply cache makes the retry idempotent.  Only when the
// server has already declared the session crashed does the Transport
// fail permanently with ErrSessionExpired.
type Transport struct {
	addr        string
	retry       msg.RetryPolicy
	callTimeout time.Duration

	seq       atomic.Uint64    // session-scoped request numbers
	cbReplies *core.ReplyCache // server->client duplicate suppression

	inj    *fault.Injector
	stream string

	wireStats atomic.Pointer[WireStats] // per-instance accounting; nil = Wire

	local      msg.Client
	localReady chan struct{}
	localOnce  sync.Once

	mu     sync.Mutex
	conn   *rpcConn
	token  uint64
	closed bool
}

// Dial connects to a server started with Serve and opens a session.  A
// server that refuses the hello (it speaks another protocol version)
// fails the dial with the server's reason.
func Dial(addr string) (*Transport, error) {
	t := &Transport{
		addr:        addr,
		retry:       DefaultTCPRetry(),
		callTimeout: DefaultCallTimeout,
		cbReplies:   core.NewReplyCache(0),
		localReady:  make(chan struct{}),
	}
	if _, err := t.getConn(); err != nil {
		return nil, err
	}
	return t, nil
}

// NegotiatedVersion reports the protocol version of the session.  There
// is nothing left to negotiate — both ends refuse a hello naming any
// version but their own — so a dialed Transport always speaks
// ProtocolVersion.
func (t *Transport) NegotiatedVersion() uint32 { return ProtocolVersion }

// SetWireStats points future connections (including redials) at ws
// instead of the process-wide Wire accounting sink.
func (t *Transport) SetWireStats(ws *WireStats) { t.wireStats.Store(ws) }

// SetRetry replaces the retry budget (before issuing calls).
func (t *Transport) SetRetry(p msg.RetryPolicy) { t.retry = p }

// SetCallTimeout replaces the per-request deadline (before issuing
// calls).  Zero disables deadlines; a dead connection still fails
// pending calls fast.
func (t *Transport) SetCallTimeout(d time.Duration) { t.callTimeout = d }

// InjectFaults wires a deterministic fault injector into this
// transport: each attempt draws a decision from the named stream, and
// disconnect decisions kill the real TCP connection so retries
// exercise the actual resume path.
func (t *Transport) InjectFaults(inj *fault.Injector, stream string) {
	t.inj = inj
	t.stream = stream
}

// SetLocal installs the local client engine as the handler for
// server-initiated callbacks.  It must be called right after the engine
// is constructed; callbacks arriving earlier wait.
func (t *Transport) SetLocal(local msg.Client) {
	t.local = local
	t.localOnce.Do(func() { close(t.localReady) })
}

// Close drops the session permanently (no reconnect); the server will
// declare the client crashed once the grace window passes.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	conn := t.conn
	t.conn = nil
	t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return nil
}

// getConn returns the live connection, redialing and resuming the
// session if the previous one died.
func (t *Transport) getConn() (*rpcConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if t.conn != nil && !t.conn.isClosed() {
		return t.conn, nil
	}
	c, err := net.Dial("tcp", t.addr)
	if err != nil {
		return nil, err
	}
	rc := newRPCConn(c)
	if ws := t.wireStats.Load(); ws != nil {
		rc.stats = ws
	}
	rc.setHandler(t.dispatch)
	go rc.serve()
	body, err := rc.call("hello", 0, helloBody{Token: t.token, Version: ProtocolVersion}, t.callTimeout)
	if err != nil {
		rc.Close()
		if isRemote(err) && err.Error() == sessionExpiredMsg {
			return nil, ErrSessionExpired
		}
		return nil, err
	}
	hr, ok := body.(helloReply)
	if !ok || hr.Version != ProtocolVersion {
		rc.Close()
		return nil, remoteError{s: fmt.Sprintf("netrpc: protocol version mismatch: server speaks v%d, client v%d",
			hr.Version, ProtocolVersion)}
	}
	t.token = hr.Token
	t.conn = rc
	return rc, nil
}

// killConn force-closes the current connection (fault injection's
// disconnect-mid-RPC) without marking the transport closed.
func (t *Transport) killConn() {
	t.mu.Lock()
	conn := t.conn
	t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// errInjectedDrop stands in for a request or reply the fault plan ate.
var errInjectedDrop = errors.New("netrpc: injected message drop")

// call runs one logical request with retry: transport failures
// (connection death, deadline, injected faults) redial and retransmit
// under the same sequence number; the peer's reply cache guarantees
// at-most-once execution, so a retried request that did execute gets
// its original answer.  Remote application errors return immediately.
func (t *Transport) call(method string, body interface{}) (interface{}, error) {
	seq := t.seq.Add(1)
	pol := t.retry
	if pol.MaxAttempts <= 0 {
		pol = DefaultTCPRetry()
	}
	var last error
	backoff := pol.BaseBackoff
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
		}
		d := t.inj.Next(t.stream)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Disconnect {
			t.killConn()
		}
		if d.DropRequest {
			last = errInjectedDrop
			continue
		}
		rc, err := t.getConn()
		if err != nil {
			// A refused hello is the server's answer, not a transport
			// failure: redialing would only be refused again.
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrSessionExpired) || isRemote(err) {
				return nil, err
			}
			last = err
			continue
		}
		if d.CorruptReply {
			// The next frame this connection reads — normally our reply
			// — arrives with flipped bytes and fails its checksum.
			rc.armCorrupt()
		}
		if d.Duplicate || d.Replay {
			// Retransmit the same seq out of band; the server's reply
			// cache absorbs it.
			go rc.call(method, seq, body, t.callTimeout)
		}
		reply, err := rc.call(method, seq, body, t.callTimeout)
		if err == nil {
			if d.DropReply {
				last = errInjectedDrop
				continue
			}
			return reply, nil
		}
		if isRemote(err) {
			return nil, err
		}
		last = err
	}
	return nil, fmt.Errorf("netrpc: %s after %d attempts: %w (last: %v)",
		method, pol.MaxAttempts, msg.ErrUnavailable, last)
}

// dispatch serves one server-initiated callback, suppressing
// retransmitted duplicates by sequence number.
func (t *Transport) dispatch(method string, seq uint64, body interface{}) (interface{}, error) {
	<-t.localReady
	if seq != 0 {
		return t.cbReplies.Do(seq, func() (interface{}, error) { return t.serveCallback(method, body) })
	}
	return t.serveCallback(method, body)
}

func (t *Transport) serveCallback(method string, body interface{}) (interface{}, error) {
	local := t.local
	switch method {
	case "cb.object":
		return local.CallbackObject(body.(msg.CallbackReq))
	case "cb.deescalate":
		return local.DeescalatePage(body.(msg.DeescReq))
	case "cb.recall-token":
		return local.RecallToken(body.(pageIDBody).P)
	case "cb.ship-up-to":
		b := body.(shipUpToBody)
		return nil, local.RecoveryShipUpTo(b.P, b.PSN)
	case "cb.flushed":
		b := body.(shipUpToBody)
		local.NotifyFlushed(b.P, b.PSN)
		return nil, nil
	case "cb.recovery-info":
		return local.RecoveryInfo()
	case "cb.fetch-cached":
		images, err := local.FetchCached(body.(fetchCachedBody).IDs)
		if err != nil {
			return nil, err
		}
		return imagesBody{Images: images}, nil
	case "cb.callback-list":
		return local.CallbackList(body.(msg.CallbackListReq))
	case "cb.recover-page":
		return nil, local.RecoverPage(body.(msg.RecoverPageReq))
	default:
		return nil, fmt.Errorf("netrpc: unknown callback %q", method)
	}
}

// --- msg.Server implementation ---

// Register implements msg.Server.
func (t *Transport) Register(req msg.RegisterReq) (msg.RegisterReply, error) {
	body, err := t.call("register", req)
	if err != nil {
		return msg.RegisterReply{}, err
	}
	return body.(msg.RegisterReply), nil
}

// Lock implements msg.Server.
func (t *Transport) Lock(req msg.LockReq) (msg.LockReply, error) {
	body, err := t.call("lock", req)
	if err != nil {
		return msg.LockReply{}, mapLockErr(err)
	}
	return body.(msg.LockReply), nil
}

// mapLockErr restores the typed lock errors that string-travelled over
// the wire so errors.Is keeps working at the client.
func mapLockErr(err error) error {
	switch err.Error() {
	case lock.ErrDeadlock.Error():
		return lock.ErrDeadlock
	case lock.ErrTimeout.Error():
		return lock.ErrTimeout
	case lock.ErrStopped.Error():
		return lock.ErrStopped
	default:
		return err
	}
}

// LockBatch implements msg.Server.  Per-item errors travel as strings
// inside the reply (msg.LockErrFromString restores them at the caller);
// only transport failures surface as the RPC error.
func (t *Transport) LockBatch(req msg.LockBatchReq) (msg.LockBatchReply, error) {
	body, err := t.call("lock-batch", req)
	if err != nil {
		return msg.LockBatchReply{}, err
	}
	return body.(msg.LockBatchReply), nil
}

// Unlock implements msg.Server.
func (t *Transport) Unlock(req msg.UnlockReq) error {
	_, err := t.call("unlock", req)
	return err
}

// Fetch implements msg.Server.
func (t *Transport) Fetch(req msg.FetchReq) (msg.FetchReply, error) {
	body, err := t.call("fetch", req)
	if err != nil {
		return msg.FetchReply{}, err
	}
	return body.(msg.FetchReply), nil
}

// FetchBatch implements msg.Server.
func (t *Transport) FetchBatch(req msg.FetchBatchReq) (msg.FetchBatchReply, error) {
	body, err := t.call("fetch-batch", req)
	if err != nil {
		return msg.FetchBatchReply{}, err
	}
	return body.(msg.FetchBatchReply), nil
}

// Ship implements msg.Server.
func (t *Transport) Ship(req msg.ShipReq) error {
	_, err := t.call("ship", req)
	return err
}

// Force implements msg.Server.
func (t *Transport) Force(req msg.ForceReq) (msg.ForceReply, error) {
	body, err := t.call("force", req)
	if err != nil {
		return msg.ForceReply{}, err
	}
	return body.(msg.ForceReply), nil
}

// Alloc implements msg.Server.
func (t *Transport) Alloc(req msg.AllocReq) (msg.FetchReply, error) {
	body, err := t.call("alloc", req)
	if err != nil {
		return msg.FetchReply{}, err
	}
	return body.(msg.FetchReply), nil
}

// Free implements msg.Server.
func (t *Transport) Free(req msg.FreeReq) error {
	_, err := t.call("free", req)
	return err
}

// CommitShip implements msg.Server.
func (t *Transport) CommitShip(req msg.CommitShipReq) error {
	_, err := t.call("commit-ship", req)
	return err
}

// Token implements msg.Server.
func (t *Transport) Token(req msg.TokenReq) (msg.TokenReply, error) {
	body, err := t.call("token", req)
	if err != nil {
		return msg.TokenReply{}, err
	}
	return body.(msg.TokenReply), nil
}

// RecoveryFetch implements msg.Server.
func (t *Transport) RecoveryFetch(req msg.RecoveryFetchReq) (msg.FetchReply, error) {
	body, err := t.call("recovery-fetch", req)
	if err != nil {
		return msg.FetchReply{}, err
	}
	return body.(msg.FetchReply), nil
}

// Reinstall implements msg.Server.
func (t *Transport) Reinstall(c ident.ClientID, holds []lock.Holding) error {
	_, err := t.call("reinstall", reinstallBody{C: c, Holds: holds})
	return err
}

// RecoverQuery implements msg.Server.
func (t *Transport) RecoverQuery(c ident.ClientID, pages []page.ID) ([]msg.DCTRow, error) {
	body, err := t.call("recover-query", recoverQueryBody{C: c, Pages: pages})
	if err != nil {
		return nil, err
	}
	return body.(dctRowsBody).Rows, nil
}

// LogOp implements msg.Server.
func (t *Transport) LogOp(req msg.LogReq) (msg.LogReply, error) {
	body, err := t.call("log-op", req)
	if err != nil {
		return msg.LogReply{}, err
	}
	return body.(msg.LogReply), nil
}

// RecoverEnd implements msg.Server.
func (t *Transport) RecoverEnd(c ident.ClientID) error {
	_, err := t.call("recover-end", clientIDBody{C: c})
	return err
}

// Disconnect implements msg.Server.
func (t *Transport) Disconnect(c ident.ClientID) error {
	_, err := t.call("disconnect", clientIDBody{C: c})
	return err
}
