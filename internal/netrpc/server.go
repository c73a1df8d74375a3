package netrpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/msg"
)

// DefaultGrace is how long a session outlives its connection.  A client
// that reconnects with its token inside the window resumes — same
// identity, same reply cache, no crash declared.  Past it the server
// declares the client crashed (Section 3.3) and the token dies.
const DefaultGrace = 250 * time.Millisecond

// sessionExpiredMsg travels the wire when a resume token is unknown or
// already expired; the client maps it back to ErrSessionExpired.
const sessionExpiredMsg = "netrpc: session expired"

// ErrSessionExpired reports a reconnect whose session the server has
// already declared crashed.  The transport is permanently dead: the
// application must run client crash recovery under a fresh connection.
var ErrSessionExpired = errors.New(sessionExpiredMsg)

// Engine is the server side a TCP listener exposes: a msg.Server that
// also learns each session's conn back to its client and each client's
// crash.  *core.Server implements it.
type Engine interface {
	msg.Server
	Attach(ident.ClientID, msg.Client)
	ClientCrashed(ident.ClientID)
}

// Server exposes an Engine on a TCP listener.
type Server struct {
	engine    Engine
	ln        net.Listener
	grace     time.Duration
	wireStats atomic.Pointer[WireStats] // per-instance accounting; nil = Wire

	mu        sync.Mutex
	conns     map[*rpcConn]bool
	owners    map[*rpcConn]*session
	sessions  map[uint64]*session
	nextToken uint64
	done      chan struct{}
}

// Serve wraps the engine and accepts connections on ln until Close,
// with the default reconnect grace window.
func Serve(engine Engine, ln net.Listener) *Server {
	return ServeGrace(engine, ln, DefaultGrace)
}

// ServeGrace is Serve with an explicit reconnect grace window (chaos
// tests stretch it so injected disconnects stay transparent).
func ServeGrace(engine Engine, ln net.Listener, grace time.Duration) *Server {
	if grace <= 0 {
		grace = DefaultGrace
	}
	s := &Server{
		engine:   engine,
		ln:       ln,
		grace:    grace,
		conns:    make(map[*rpcConn]bool),
		owners:   make(map[*rpcConn]*session),
		sessions: make(map[uint64]*session),
		done:     make(chan struct{}),
	}
	go s.acceptLoop()
	return s
}

// SetWireStats points newly accepted connections at ws instead of the
// process-wide Wire sink, so fleets hosted in one process keep
// per-partition wire accounting.  Existing connections are unaffected.
func (s *Server) SetWireStats(ws *WireStats) { s.wireStats.Store(ws) }

// Addr returns the listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and tears down every session.
func (s *Server) Close() error {
	close(s.done)
	err := s.ln.Close()
	s.mu.Lock()
	conns := make([]*rpcConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	// Kill sessions first so their grace timers don't fire
	// ClientCrashed into an engine that is being shut down too.
	for _, sess := range sessions {
		sess.kill()
	}
	for _, c := range conns {
		c.Close() // onClose re-locks s.mu; must not hold it here
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		rc := newRPCConn(c)
		if ws := s.wireStats.Load(); ws != nil {
			rc.stats = ws
		}
		s.mu.Lock()
		s.conns[rc] = true
		s.mu.Unlock()
		rc.onClose = func() { s.connClosed(rc) }
		go s.greet(rc)
	}
}

// greet runs a connection from its first frame, which must be a hello
// this server accepts; only then does the connection get a session and
// a read loop.  Anything else closes it at once: a refused hello is
// answered with the reason first, while a frame that does not decode
// (a peer not framing in v3, or garbage) gets no answer because no
// framing is known in which the peer would read one.
func (s *Server) greet(rc *rpcConn) {
	env, err := rc.readOne()
	if err != nil {
		var corrupt corruptFrameError
		if errors.As(err, &corrupt) {
			Metrics.CorruptFrames.Inc()
		}
		rc.shutdown()
		return
	}
	reply, err := s.handleHello(rc, &env)
	if err != nil {
		rc.refuse(env.ID, err)
		return
	}
	rc.send(envelope{ID: env.ID, Reply: true, Body: reply})
	rc.serve()
}

// connClosed removes the conn and notifies its owning session, if the
// hello ever completed.
func (s *Server) connClosed(rc *rpcConn) {
	s.mu.Lock()
	delete(s.conns, rc)
	sess := s.owners[rc]
	delete(s.owners, rc)
	s.mu.Unlock()
	if sess != nil {
		sess.disconnected(rc)
	}
}

// handleHello opens a new session (token zero) or resumes one inside
// its grace window, for a peer announcing exactly ProtocolVersion.
func (s *Server) handleHello(rc *rpcConn, env *envelope) (helloReply, error) {
	hb, ok := env.Body.(helloBody)
	if !ok || env.Reply || env.Method != msg.MHello {
		return helloReply{}, errors.New("netrpc: first frame is not a hello")
	}
	if hb.Version != ProtocolVersion {
		return helloReply{}, fmt.Errorf("netrpc: protocol version mismatch: client speaks v%d, server v%d",
			hb.Version, ProtocolVersion)
	}
	var sess *session
	if hb.Token == 0 {
		sess = &session{srv: s, replies: msg.NewReplyCache(0)}
		s.mu.Lock()
		s.nextToken++
		sess.token = s.nextToken
		s.sessions[sess.token] = sess
		s.mu.Unlock()
	} else {
		s.mu.Lock()
		sess = s.sessions[hb.Token]
		s.mu.Unlock()
		if sess == nil {
			return helloReply{}, errors.New(sessionExpiredMsg)
		}
		Metrics.Resumes.Inc()
	}
	if !sess.bind(rc) {
		return helloReply{}, errors.New(sessionExpiredMsg)
	}
	s.mu.Lock()
	s.owners[rc] = sess
	s.mu.Unlock()
	rc.setHandler(sess.handle)
	return helloReply{Token: sess.token, Version: ProtocolVersion}, nil
}

// session is the server side of one logical client, across however
// many TCP connections it takes.
type session struct {
	srv     *Server
	token   uint64
	replies *msg.ReplyCache // client->server duplicate suppression
	cbSeq   atomic.Uint64   // server->client request numbers

	mu    sync.Mutex
	conn  *rpcConn // nil while disconnected
	id    ident.ClientID
	grace *time.Timer
	dead  bool
}

// bind attaches a fresh connection, cancelling any running grace
// timer.  It fails if the session already expired.
func (s *session) bind(rc *rpcConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return false
	}
	if s.grace != nil {
		s.grace.Stop()
		s.grace = nil
	}
	if s.conn != nil && s.conn != rc {
		// A resume raced the old conn's death: the new conn wins.
		go s.conn.Close()
	}
	s.conn = rc
	return true
}

// disconnected reacts to a dropped connection by arming the grace
// timer; only if no resume lands before it fires is the client
// declared crashed.
func (s *session) disconnected(rc *rpcConn) {
	s.mu.Lock()
	if s.dead || s.conn != rc {
		s.mu.Unlock()
		return
	}
	s.conn = nil
	s.grace = time.AfterFunc(s.srv.grace, s.expire)
	s.mu.Unlock()
}

// expire fires when the grace window closes without a resume: the
// session dies and the engine runs client-crash handling (§3.3).
func (s *session) expire() {
	s.mu.Lock()
	if s.dead || s.conn != nil {
		s.mu.Unlock()
		return
	}
	s.dead = true
	id := s.id
	s.mu.Unlock()
	s.srv.mu.Lock()
	delete(s.srv.sessions, s.token)
	s.srv.mu.Unlock()
	if id != 0 {
		s.srv.engine.ClientCrashed(id)
	}
}

// kill marks the session dead without declaring a client crash; used on
// server shutdown.
func (s *session) kill() {
	s.mu.Lock()
	s.dead = true
	if s.grace != nil {
		s.grace.Stop()
		s.grace = nil
	}
	s.mu.Unlock()
}

// currentConn returns the live conn (nil while disconnected) and
// whether the session is dead.
func (s *session) currentConn() (*rpcConn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn, s.dead
}

// Call implements msg.Caller for the engine's view of this session's
// client.  A callback rides out connection swaps: while the session is
// inside its grace window the call waits for the resumed connection and
// retransmits under the same sequence number (the client's reply cache
// absorbs duplicates); it fails once the session dies.  A notification
// goes out only if a connection is live — notifications are advisory
// and may be lost across reconnects.
func (s *session) Call(m msg.Method, body any) (any, error) {
	if m.OneWay() {
		if rc, _ := s.currentConn(); rc != nil {
			rc.notify(m, body)
		}
		return nil, nil
	}
	seq := s.cbSeq.Add(1)
	for {
		rc, dead := s.currentConn()
		if dead {
			return nil, ErrClosed
		}
		if rc == nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		reply, err := rc.call(m, seq, body, 0)
		if err == nil {
			return reply, nil
		}
		if isRemote(err) {
			return nil, msg.LockErrFromString(err.Error())
		}
		// Transport failure: the conn died mid-call.  Loop; either a
		// resume rebinds or the grace timer kills the session.
		time.Sleep(2 * time.Millisecond)
	}
}

// handle dispatches one client request.  Requests carrying a sequence
// number go through the session's reply cache, so a retransmission of
// an already-executed request returns the cached reply instead of
// executing twice.  fetch is the exception: it is a read with no
// server-side effect a retry could double, so a retransmission simply
// re-executes and the cache never pins page images.
func (s *session) handle(m msg.Method, seq uint64, body any) (any, error) {
	if seq != 0 && m != msg.MFetch {
		return s.replies.Do(seq, func() (any, error) { return s.exec(m, body) })
	}
	return s.exec(m, body)
}

// exec runs one request against the engine.  A registration also binds
// the session to the client id and attaches it as the engine's conn to
// that client.
func (s *session) exec(m msg.Method, body any) (any, error) {
	e := s.srv.engine
	if m != msg.MRegister {
		return msg.ServeServer(e, m, body)
	}
	reply, err := e.Register(body.(msg.RegisterReq))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.id = reply.ID
	s.mu.Unlock()
	e.Attach(reply.ID, msg.ClientConn{Caller: s})
	return reply, nil
}
