package netrpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/msg"
)

// ErrClosed reports use of a closed RPC connection.
var ErrClosed = errors.New("netrpc: connection closed")

// ErrDeadline reports a request that did not receive its reply within
// the per-request deadline.  It is a transport-level error: the request
// may or may not have executed, so callers retry it under the same
// sequence number and let the peer's reply cache disambiguate.
var ErrDeadline = errors.New("netrpc: request deadline exceeded")

// ErrCorruptReply reports a reply frame that failed its integrity
// check.  Like ErrDeadline it is transport-level: the request executed
// (an answer came back, just unreadable), so callers retransmit under
// the same sequence number and the peer's reply cache returns the
// original answer.
var ErrCorruptReply = errors.New("netrpc: corrupt reply frame")

// remoteError carries an application-level error string returned by the
// peer.  It is the only error kind a call returns that must NOT be
// retried: the request executed and this is its answer.
type remoteError struct{ s string }

func (e remoteError) Error() string { return e.s }

// isRemote reports whether err is the peer's answer rather than a
// transport failure.
func isRemote(err error) bool {
	var re remoteError
	return errors.As(err, &re)
}

// writeTimeout bounds a single frame write; a peer that stops draining
// its socket for this long is dead.  The write deadline is re-armed
// only once less than half of it remains, so a write starts with
// between half of writeTimeout and all of it before it fails.
const writeTimeout = 30 * time.Second

// handlerFunc serves one incoming request; floor is the envelope's
// (see envelope.Floor).
type handlerFunc func(m msg.Method, seq, floor uint64, body any) (any, error)

// rpcConn is a duplex RPC endpoint over one TCP connection: both sides
// issue requests and serve the peer's.
//
// Requests run on reused workers, whose stacks have already grown.
// Senders encode into pooled buffers and queue them; the sender that
// finds no write in progress writes everything queued, one vectored
// write per batch, until the queue is empty.  The first write error
// marks the connection dead — after a short or failed write the byte
// stream is desynced and no further frame may be attempted on it.
type rpcConn struct {
	c  net.Conn
	br *bufio.Reader

	corruptNext atomic.Bool // fault hook: corrupt the next incoming reply frame

	work  chan envelope // requests handed to an idle worker (unbuffered)
	wquit chan struct{} // closed on shutdown; parked workers exit

	wmu     sync.Mutex
	wqueue  []*wbuf     // encoded frames awaiting the writer
	wspare  []*wbuf     // the writer's last batch, reused as the next queue
	bufs    net.Buffers // the writer's vector; wv is WriteTo's view of it
	wv      net.Buffers // (both for the writing sender only)
	wdue    time.Time   // the write deadline armed last (writing sender only)
	writing bool        // a sender is writing the queue
	wdead   bool        // shut down or a write failed: nothing more is sent

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan envelope
	closed  bool
	onClose func()
	handler handlerFunc

	hset   chan struct{} // closed once a handler is installed
	hsetMu sync.Mutex
	hdone  bool

	rbuf []byte // reusable frame payload buffer (reader goroutine only)

	// stats is the per-{method, version} accounting sink; Wire unless
	// the owning Server/Transport injected its own.  Assigned before
	// serve() starts, read-only afterwards.
	stats *WireStats
}

func newRPCConn(c net.Conn) *rpcConn {
	return &rpcConn{
		c:       c,
		br:      bufio.NewReaderSize(c, 32<<10),
		work:    make(chan envelope),
		wquit:   make(chan struct{}),
		pending: make(map[uint64]chan envelope),
		hset:    make(chan struct{}),
		stats:   Wire,
	}
}

// armCorrupt makes the reader flip bytes in the next incoming reply
// frame's payload before decoding it, simulating wire corruption caught
// by the frame checksum (fault injection only).  Requests pass
// untouched: a skipped request is never answered.
func (r *rpcConn) armCorrupt() { r.corruptNext.Store(true) }

// setHandler installs (or replaces) the incoming-request handler;
// requests arriving before the first installation wait.  Replacement
// is what rebinds a resumed session's handler onto a fresh connection.
func (r *rpcConn) setHandler(h handlerFunc) {
	r.mu.Lock()
	r.handler = h
	r.mu.Unlock()
	r.hsetMu.Lock()
	if !r.hdone {
		r.hdone = true
		close(r.hset)
	}
	r.hsetMu.Unlock()
}

func (r *rpcConn) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// readOne reads and decodes the next frame.  The payload buffer is
// reused across frames (decoders copy what they keep).
func (r *rpcConn) readOne() (envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return envelope{}, err
	}
	n := int(uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3]))
	if n > MaxFrame {
		return envelope{}, ErrFrameTooLarge
	}
	if cap(r.rbuf) < n {
		r.rbuf = make([]byte, n)
	}
	payload := r.rbuf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return envelope{}, err
	}
	if n > 5 && payload[5]&v3FlagReply != 0 && r.corruptNext.CompareAndSwap(true, false) {
		payload[n/2] ^= 0xA5
		payload[n-1] ^= 0x5A
	}
	t0 := r.stats.now()
	env, err := decodeEnvelopeV3(payload)
	if err == nil { // a decoded payload has a full header
		if tag := payload[4]; tag != tagGob {
			r.stats.recordV3(tag, n+4, t0, false)
		} else {
			r.stats.recordGob(env.Method, env.Reply, n+4, t0, false)
		}
	}
	return env, err
}

// serve runs the read loop until the connection dies.  A corrupt frame
// is counted and — when the envelope ID is recoverable and names a
// pending call — fails that call immediately with ErrCorruptReply
// instead of letting it hang until its deadline.  Framing is
// length-delimited, so the stream stays in sync and the connection
// keeps working; an oversized or short frame tears it down.
func (r *rpcConn) serve() {
	for {
		env, err := r.readOne()
		if err != nil {
			var corrupt corruptFrameError
			if errors.As(err, &corrupt) {
				Metrics.CorruptFrames.Inc()
				if corrupt.reply && corrupt.id != 0 {
					r.failPendingCorrupt(corrupt.id)
				}
				continue
			}
			r.shutdown()
			return
		}
		if env.Reply {
			r.mu.Lock()
			ch := r.pending[env.ID]
			delete(r.pending, env.ID)
			r.mu.Unlock()
			if ch != nil {
				ch <- env
			}
			continue
		}
		// Never run a handler here: handlers wait on callbacks whose
		// answers this loop delivers.
		select {
		case r.work <- env:
		default:
			go r.worker(env)
		}
	}
}

// worker serves env, then parks for the next request until shutdown.
func (r *rpcConn) worker(env envelope) {
	for {
		r.dispatch(env)
		select {
		case env = <-r.work:
		case <-r.wquit:
			return
		}
	}
}

// failPendingCorrupt fails the pending call whose reply frame arrived
// corrupt.  A garbage ID that happens to collide with another pending
// call costs that call one retry — safe, since corrupt-reply failures
// are retried under the same sequence number.
func (r *rpcConn) failPendingCorrupt(id uint64) {
	r.mu.Lock()
	ch := r.pending[id]
	delete(r.pending, id)
	r.mu.Unlock()
	if ch != nil {
		ch <- envelope{ID: id, Reply: true, corrupt: true}
	}
}

func (r *rpcConn) dispatch(env envelope) {
	<-r.hset
	r.mu.Lock()
	h := r.handler
	r.mu.Unlock()
	body, err := h(env.Method, env.Seq, env.Floor, env.Body)
	if env.ID == 0 {
		return // one-way
	}
	reply := envelope{ID: env.ID, Reply: true, Body: body}
	if err != nil {
		reply.Err = err.Error()
	}
	if reply.Body == nil {
		reply.Body = emptyBody{}
	}
	r.send(reply)
}

// send encodes env into a pooled buffer and queues it; the sender that
// finds no write in progress writes the queue itself.  Encoding errors
// (oversized frames) surface here; write errors surface as connection
// death failing every pending call.
func (r *rpcConn) send(env envelope) error {
	hint := 256
	tag, size, binaryV3 := v3Tag(&env)
	if binaryV3 {
		hint = 4 + v3HeaderSize + size
	}
	w := getBuf(hint)
	t0 := r.stats.now()
	if err := encodeEnvelopeV3(w, &env); err != nil {
		putBuf(w)
		return fmt.Errorf("netrpc: send %v: %w", env.Method, err)
	}
	if binaryV3 {
		r.stats.recordV3(tag, len(w.b), t0, true)
	} else {
		r.stats.recordGob(env.Method, env.Reply, len(w.b), t0, true)
	}
	r.wmu.Lock()
	if r.wdead {
		r.wmu.Unlock()
		putBuf(w)
		return ErrClosed
	}
	r.wqueue = append(r.wqueue, w)
	if r.writing {
		r.wmu.Unlock()
		return nil
	}
	r.writing = true
	r.flush()
	return nil
}

// flush writes queued frames, one vectored write per batch, until the
// queue is empty; frames queued during a write join the next batch.
// The caller holds wmu and has set writing; flush releases wmu.  Frame
// and byte accounting reflect what actually reached the socket — under
// a partial write only the fully-written frames count.  The first
// write error (including a short write) shuts the connection down, and
// the frames still queued are dropped unsent.
func (r *rpcConn) flush() {
	for len(r.wqueue) > 0 && !r.wdead {
		batch := r.wqueue
		r.wqueue = r.wspare[:0]
		r.wmu.Unlock()
		r.bufs = r.bufs[:0]
		for _, w := range batch {
			r.bufs = append(r.bufs, w.b)
		}
		if now := time.Now(); r.wdue.Sub(now) < writeTimeout/2 {
			r.wdue = now.Add(writeTimeout)
			r.c.SetWriteDeadline(r.wdue)
		}
		// WriteTo consumes its receiver; a second header over the same
		// array keeps the vector's capacity, and a field, unlike a
		// local, does not escape anew on every batch.
		r.wv = r.bufs
		n, err := r.wv.WriteTo(r.c)
		Metrics.BytesSent.Add(uint64(n))
		for _, w := range batch {
			if n >= int64(len(w.b)) {
				Metrics.FramesSent.Inc()
			}
			n -= int64(len(w.b))
			putBuf(w)
		}
		r.wmu.Lock()
		r.wspare = batch[:0]
		r.wdead = r.wdead || err != nil
	}
	for _, w := range r.wqueue {
		putBuf(w)
	}
	r.wqueue = r.wqueue[:0]
	r.writing = false
	dead := r.wdead
	r.wmu.Unlock()
	if dead {
		r.shutdown()
	}
}

// call issues a request and blocks for the reply, at most timeout
// (zero means no deadline; the connection dying still fails the call
// fast).  seq is the caller's session-scoped request number, zero for
// calls outside duplicate tracking.
func (r *rpcConn) call(m msg.Method, seq uint64, body any, timeout time.Duration) (any, error) {
	return r.callFloor(m, seq, 0, body, timeout)
}

// callFloor is call stamped with the lowest sequence number the caller
// may still retransmit (envelope.Floor).
func (r *rpcConn) callFloor(m msg.Method, seq, floor uint64, body any, timeout time.Duration) (any, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.nextID++
	id := r.nextID
	ch := replyChans.Get().(chan envelope)
	r.pending[id] = ch
	r.mu.Unlock()

	if err := r.send(envelope{ID: id, Seq: seq, Floor: floor, Method: m, Body: body}); err != nil {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return nil, err // a shutdown may have closed ch: it is not reused
	}
	var timer *time.Timer
	var timeC <-chan time.Time
	if timeout > 0 {
		timer = getTimer(timeout)
		defer putTimer(timer)
		timeC = timer.C
	}
	select {
	case env, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		// The reader took ch out of pending before its one send, which
		// this receive consumed: no later reply can land in it.
		replyChans.Put(ch)
		if env.corrupt {
			return nil, fmt.Errorf("%w: %v", ErrCorruptReply, m)
		}
		if env.Err != "" {
			return nil, remoteError{s: env.Err}
		}
		if _, empty := env.Body.(emptyBody); empty {
			return nil, nil // a call without a reply
		}
		return env.Body, nil
	case <-timeC:
		// A reply the reader already took out of pending may still land
		// in ch, so it is not reused.
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %v after %v", ErrDeadline, m, timeout)
	}
}

// replyChans and callTimers recycle callFloor's reply channels and
// deadline timers.  A channel returns only after its call received the
// reply, never after a deadline or a shutdown, so a late reply cannot
// land in a reused one.
var (
	replyChans = sync.Pool{New: func() any { return make(chan envelope, 1) }}
	callTimers sync.Pool
)

// getTimer returns a timer running for d.
func getTimer(d time.Duration) *time.Timer {
	if t, ok := callTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops t, drains a tick it left, and keeps it for reuse.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	callTimers.Put(t)
}

// notify issues a one-way message.
func (r *rpcConn) notify(m msg.Method, body any) {
	r.send(envelope{Method: m, Body: body})
}

// refuse answers request id with err and closes the connection.  The
// sender writes its own frame, so the answer is on the wire before the
// close, provided no other sender is writing — true where Server.greet
// calls it, before serve() starts.  Best effort: the connection closes
// either way.
func (r *rpcConn) refuse(id uint64, err error) {
	r.send(envelope{ID: id, Reply: true, Err: err.Error(), Body: emptyBody{}})
	r.shutdown()
}

// shutdown fails every pending call fast (callers see ErrClosed, they
// do not hang waiting for replies that will never arrive), stops
// further writes and the parked workers, and runs the close hook once.
func (r *rpcConn) shutdown() {
	r.wmu.Lock()
	r.wdead = true // a writer in progress drops what is still queued
	r.wmu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.wquit)
	for id, ch := range r.pending {
		close(ch)
		delete(r.pending, id)
	}
	onClose := r.onClose
	r.mu.Unlock()
	r.c.Close()
	if onClose != nil {
		onClose()
	}
}

// Close tears the connection down.
func (r *rpcConn) Close() error {
	r.shutdown()
	return nil
}
