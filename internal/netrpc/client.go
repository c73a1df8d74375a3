package netrpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/fault"
	"clientlog/internal/msg"
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

// Transport is the client side of a TCP session: a msg.Caller whose
// embedded ServerConn makes it a msg.Server (requests travel to the
// remote server), serving the server's callbacks against the local
// msg.Client handler installed with SetLocal.
//
// A Transport survives its connection: if the conn dies (or a fault
// plan kills it), the next call redials, resumes the session with its
// token, and retransmits under the original sequence number — the
// server's reply cache makes the retry idempotent.  Only when the
// server has already declared the session crashed does the Transport
// fail permanently with ErrSessionExpired.
type Transport struct {
	msg.ServerConn // every msg.Server method, over Call

	addr  string
	retry msg.RetryPolicy

	seq       atomic.Uint64   // session-scoped request numbers
	cbReplies *msg.ReplyCache // server->client duplicate suppression

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
		addr:       addr,
		retry:      DefaultTCPRetry(),
		cbReplies:  msg.NewReplyCache(0),
		localReady: make(chan struct{}),
	}
	t.ServerConn = msg.ServerConn{Caller: t}
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
	body, err := rc.call(msg.MHello, 0, helloBody{Token: t.token, Version: ProtocolVersion}, DefaultCallTimeout)
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

// Call implements msg.Caller: one logical request with retry.
// Transport failures (connection death, deadline, injected faults)
// redial and retransmit under the same sequence number; the peer's
// reply cache guarantees at-most-once execution, so a retried request
// that did execute gets its original answer.  Remote application errors
// return immediately, the typed lock errors restored.
func (t *Transport) Call(m msg.Method, body any) (any, error) {
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
			// The next reply frame this connection reads — normally
			// ours — arrives with flipped bytes and fails its checksum.
			rc.armCorrupt()
		}
		if d.Duplicate || d.Replay {
			// Retransmit the same seq out of band; the server's reply
			// cache absorbs it.
			go rc.call(m, seq, body, DefaultCallTimeout)
		}
		reply, err := rc.call(m, seq, body, DefaultCallTimeout)
		if err == nil {
			if d.DropReply {
				last = errInjectedDrop
				continue
			}
			return reply, nil
		}
		if isRemote(err) {
			return nil, msg.LockErrFromString(err.Error())
		}
		last = err
	}
	return nil, fmt.Errorf("netrpc: %v after %d attempts: %w (last: %v)",
		m, pol.MaxAttempts, msg.ErrUnavailable, last)
}

// dispatch serves one server-initiated callback, suppressing
// retransmitted duplicates by sequence number.  The answers below the
// request's floor leave the reply cache first: the server has them all,
// and the page images some of them carry would stay pinned otherwise.
func (t *Transport) dispatch(m msg.Method, seq, floor uint64, body any) (any, error) {
	<-t.localReady
	if floor != 0 {
		t.cbReplies.ForgetBelow(floor)
	}
	if seq != 0 {
		return t.cbReplies.Do(seq, func() (any, error) { return msg.ServeClient(t.local, m, body) })
	}
	return msg.ServeClient(t.local, m, body)
}
