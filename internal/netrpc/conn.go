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
// its socket for this long is dead.
const writeTimeout = 30 * time.Second

// maxCoalesce bounds how many queued frames the write loop folds into
// one writev call.
const maxCoalesce = 32

// sendQueueLen is the outbound frame queue depth; senders block (with
// shutdown wakeup) when the writer falls this far behind.
const sendQueueLen = 256

// handlerFunc serves one incoming request.
type handlerFunc func(m msg.Method, seq uint64, body any) (any, error)

// rpcConn is a duplex RPC endpoint over one TCP connection: both sides
// issue requests and serve the peer's.
//
// Writes are pipelined: senders encode into pooled buffers and enqueue;
// a per-connection write loop coalesces whatever is queued into a
// single vectored write.  The first write error marks the connection
// dead — after a short or failed write the byte stream is desynced and
// no further frame may be attempted on it.
type rpcConn struct {
	c  net.Conn
	br *bufio.Reader

	corruptNext atomic.Bool // fault hook: corrupt the next incoming frame

	wq    chan *wbuf    // encoded frames awaiting the write loop
	wquit chan struct{} // closed on shutdown; unblocks senders and writer

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
	r := &rpcConn{
		c:       c,
		br:      bufio.NewReaderSize(c, 32<<10),
		wq:      make(chan *wbuf, sendQueueLen),
		wquit:   make(chan struct{}),
		pending: make(map[uint64]chan envelope),
		hset:    make(chan struct{}),
		stats:   Wire,
	}
	go r.writeLoop()
	return r
}

// armCorrupt makes the reader flip bytes in the next incoming frame's
// payload before decoding it, simulating wire corruption caught by the
// frame checksum (fault injection only).
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
	Metrics.FramesRecv.Inc()
	Metrics.BytesRecv.Add(uint64(n) + 4)
	if r.corruptNext.CompareAndSwap(true, false) && n > 0 {
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
		go r.dispatch(env)
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
	body, err := h(env.Method, env.Seq, env.Body)
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

// send encodes env into a pooled buffer and hands it to the write
// loop.  Encoding errors (oversized frames) surface here; write errors
// surface as connection death failing every pending call.
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
	select {
	case r.wq <- w:
		return nil
	case <-r.wquit:
		putBuf(w)
		return ErrClosed
	}
}

// writeLoop is the connection's only writer: it drains the send queue,
// coalescing queued frames into one vectored write per syscall.  Frame
// and byte accounting reflect what actually reached the socket — under
// a partial write only the fully-written frames count.  The first write
// error (including a short write) shuts the connection down; no further
// frames are attempted on a desynced stream.
func (r *rpcConn) writeLoop() {
	batch := make([]*wbuf, 0, maxCoalesce)
	var bufs net.Buffers
	for {
		select {
		case <-r.wquit:
			r.drainSendQueue()
			return
		case w := <-r.wq:
			batch = append(batch[:0], w)
		coalesce:
			for len(batch) < maxCoalesce {
				select {
				case w2 := <-r.wq:
					batch = append(batch, w2)
				default:
					break coalesce
				}
			}
			bufs = bufs[:0]
			for _, w := range batch {
				bufs = append(bufs, w.b)
			}
			r.c.SetWriteDeadline(time.Now().Add(writeTimeout))
			n, err := bufs.WriteTo(r.c)
			Metrics.BytesSent.Add(uint64(n))
			rem := n
			for _, w := range batch {
				if rem < int64(len(w.b)) {
					break
				}
				rem -= int64(len(w.b))
				Metrics.FramesSent.Inc()
			}
			for _, w := range batch {
				putBuf(w)
			}
			if err != nil {
				r.shutdown()
				r.drainSendQueue()
				return
			}
		}
	}
}

// drainSendQueue recycles frames the write loop will never send.
func (r *rpcConn) drainSendQueue() {
	for {
		select {
		case w := <-r.wq:
			putBuf(w)
		default:
			return
		}
	}
}

// call issues a request and blocks for the reply, at most timeout
// (zero means no deadline; the connection dying still fails the call
// fast).  seq is the caller's session-scoped request number, zero for
// calls outside duplicate tracking.
func (r *rpcConn) call(m msg.Method, seq uint64, body any, timeout time.Duration) (any, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.nextID++
	id := r.nextID
	ch := make(chan envelope, 1)
	r.pending[id] = ch
	r.mu.Unlock()

	if err := r.send(envelope{ID: id, Seq: seq, Method: m, Body: body}); err != nil {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return nil, err
	}
	var timeC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeC = timer.C
	}
	select {
	case env, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
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
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %v after %v", ErrDeadline, m, timeout)
	}
}

// notify issues a one-way message.
func (r *rpcConn) notify(m msg.Method, body any) {
	r.send(envelope{Method: m, Body: body})
}

// refuse answers request id with err and closes the connection.  The
// answer bypasses the write loop, which would drop a queued frame on
// shutdown; that is safe only where Server.greet calls it — before
// serve() starts, when nothing else has been queued on this connection.
func (r *rpcConn) refuse(id uint64, err error) {
	w := getBuf(bufSmall)
	if encodeEnvelopeV3(w, &envelope{ID: id, Reply: true, Err: err.Error(), Body: emptyBody{}}) == nil {
		r.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if n, werr := r.c.Write(w.b); werr == nil { // best effort: the connection closes either way
			Metrics.FramesSent.Inc()
			Metrics.BytesSent.Add(uint64(n))
		}
	}
	putBuf(w)
	r.shutdown()
}

// shutdown fails every pending call fast (callers see ErrClosed, they
// do not hang waiting for replies that will never arrive), stops the
// write loop, and runs the close hook once.
func (r *rpcConn) shutdown() {
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
