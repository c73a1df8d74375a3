package core

import (
	"fmt"
	"sync"

	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/wal"
)

// RemoteLogStore is a wal.Store whose records live at the server: the
// paper's Section 2 option for clients without local disk space, which
// "ship their log records to the server".  The log is still private to
// the client — the server hosts one store per diskless client and never
// merges them.
//
// Appends are write-behind: records buffer locally with locally-minted
// LSNs (the hosted log has a single appender, so offsets are
// deterministic) and travel to the server in one batch when the WAL
// protocol forces the log.  Commit therefore costs one round trip —
// the honest price of having no local log disk — instead of one per
// record.
type RemoteLogStore struct {
	srv msg.Server
	id  ident.ClientID

	mu      sync.Mutex
	pending []pendingRec
	end     wal.LSN
	durable wal.LSN // conservative local view of the flushed horizon
	lastRec wal.LSN // last reclaim horizon sent (dedupes no-op RPCs)
	primed  bool    // end initialized from the server
}

type pendingRec struct {
	lsn     wal.LSN
	payload []byte
}

// NewRemoteLogStore builds the client-side proxy.  The id must be the
// client's registered id.
func NewRemoteLogStore(srv msg.Server, id ident.ClientID) *RemoteLogStore {
	return &RemoteLogStore{srv: srv, id: id}
}

func (r *RemoteLogStore) op(req msg.LogReq) (msg.LogReply, error) {
	req.Client = r.id
	return r.srv.LogOp(req)
}

// primeLocked fetches the server's current end once.  Called with r.mu
// held.
func (r *RemoteLogStore) primeLocked() error {
	if r.primed {
		return nil
	}
	reply, err := r.op(msg.LogReq{Op: msg.LogEnd})
	if err != nil {
		return err
	}
	r.end = reply.LSN
	r.durable = reply.LSN // everything hosted so far was flushed by Flush
	r.primed = true
	return nil
}

// Append implements wal.Store: the record buffers locally until the
// next Flush.
func (r *RemoteLogStore) Append(payload []byte) (wal.LSN, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.primeLocked(); err != nil {
		return wal.NilLSN, err
	}
	lsn := r.end
	cp := make([]byte, len(payload))
	copy(cp, payload)
	r.pending = append(r.pending, pendingRec{lsn: lsn, payload: cp})
	r.end += wal.LSN(len(payload) + 8) // mirror the store's framing
	return lsn, nil
}

// Flush implements wal.Store: the buffered batch and the force travel
// in a single request/reply exchange — a diskless commit costs exactly
// one round trip.
func (r *RemoteLogStore) Flush(upTo wal.LSN) error {
	r.mu.Lock()
	batch := r.pending
	r.pending = nil
	end := r.end
	r.mu.Unlock()
	payloads := make([][]byte, len(batch))
	for i, p := range batch {
		payloads[i] = p.payload
	}
	reply, err := r.op(msg.LogReq{Op: msg.LogAppendBatch, Batch: payloads, LSN: end})
	if err != nil {
		return err
	}
	if len(batch) > 0 && reply.LSN != batch[0].lsn {
		return fmt.Errorf("core: remote log diverged: server assigned %v, client predicted %v",
			reply.LSN, batch[0].lsn)
	}
	r.mu.Lock()
	if end > r.durable {
		r.durable = end
	}
	r.mu.Unlock()
	return nil
}

// Durable implements wal.Store: the local (conservative) view; no
// round trip.
func (r *RemoteLogStore) Durable() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.durable
}

// End implements wal.Store.
func (r *RemoteLogStore) End() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.primeLocked(); err != nil {
		return wal.NilLSN
	}
	return r.end
}

// ReadAt implements wal.Store: the write-behind buffer is consulted
// before the server (rollback reads records the transaction just
// wrote).
func (r *RemoteLogStore) ReadAt(lsn wal.LSN) ([]byte, wal.LSN, error) {
	r.mu.Lock()
	for _, p := range r.pending {
		if p.lsn == lsn {
			out := make([]byte, len(p.payload))
			copy(out, p.payload)
			next := lsn + wal.LSN(len(p.payload)+8)
			r.mu.Unlock()
			return out, next, nil
		}
	}
	r.mu.Unlock()
	reply, err := r.op(msg.LogReq{Op: msg.LogRead, LSN: lsn})
	if err != nil {
		return nil, wal.NilLSN, err
	}
	return reply.Payload, reply.Next, nil
}

// Reclaim implements wal.Store; unchanged horizons are dropped locally
// so the per-commit bookkeeping costs no round trip.
func (r *RemoteLogStore) Reclaim(upTo wal.LSN) error {
	r.mu.Lock()
	if upTo <= r.lastRec {
		r.mu.Unlock()
		return nil
	}
	r.lastRec = upTo
	r.mu.Unlock()
	_, err := r.op(msg.LogReq{Op: msg.LogReclaim, LSN: upTo})
	return err
}

// Horizon implements wal.Store.
func (r *RemoteLogStore) Horizon() wal.LSN {
	reply, _ := r.op(msg.LogReq{Op: msg.LogHorizon})
	return reply.LSN
}

// Crash discards the write-behind buffer and the cached end position (a
// client crash loses exactly that state; the hosted durable prefix is
// untouched).
func (r *RemoteLogStore) Crash() {
	r.mu.Lock()
	r.pending = nil
	r.primed = false
	r.end = wal.NilLSN
	r.mu.Unlock()
}

// Close implements wal.Store.
func (r *RemoteLogStore) Close() error { return nil }

// remoteLogHost is the server-side home of the diskless clients' logs.
// It survives server restarts the same way stable storage does: the
// cluster owns it and hands it to each server incarnation.  A server
// crash loses the unflushed tails (the appends lived in server memory),
// exactly like a local log disk losing its write cache.
type remoteLogHost struct {
	mu       sync.Mutex
	logs     map[ident.ClientID]*wal.MemStore
	capacity uint64
}

// NewRemoteLogHost builds an empty host; capacity bounds each hosted
// log (0 = unbounded).
func NewRemoteLogHost(capacity uint64) *RemoteLogHost {
	return &RemoteLogHost{inner: &remoteLogHost{logs: make(map[ident.ClientID]*wal.MemStore), capacity: capacity}}
}

// RemoteLogHost is the shareable handle (cluster-owned, server-used).
type RemoteLogHost struct {
	inner *remoteLogHost
}

func (h *RemoteLogHost) store(c ident.ClientID) *wal.MemStore {
	h.inner.mu.Lock()
	defer h.inner.mu.Unlock()
	st, ok := h.inner.logs[c]
	if !ok {
		st = wal.NewMemStore(h.inner.capacity)
		h.inner.logs[c] = st
	}
	return st
}

// Crash drops the unflushed tail of every hosted log (server crash).
func (h *RemoteLogHost) Crash() {
	h.inner.mu.Lock()
	defer h.inner.mu.Unlock()
	for _, st := range h.inner.logs {
		st.Crash()
	}
}

// LogOp implements msg.Server for the remote-log protocol.
func (s *Server) LogOp(req msg.LogReq) (msg.LogReply, error) {
	if s.remoteLogs == nil {
		return msg.LogReply{}, fmt.Errorf("core: server hosts no remote logs")
	}
	st := s.remoteLogs.store(req.Client)
	switch req.Op {
	case msg.LogAppend:
		lsn, err := st.Append(req.Payload)
		return msg.LogReply{LSN: lsn}, err
	case msg.LogAppendBatch:
		var first wal.LSN
		for i, payload := range req.Batch {
			lsn, err := st.Append(payload)
			if err != nil {
				return msg.LogReply{}, err
			}
			if i == 0 {
				first = lsn
			}
		}
		// A non-zero LSN piggybacks the force on the same exchange.
		if req.LSN != wal.NilLSN {
			if err := st.Flush(req.LSN); err != nil {
				return msg.LogReply{LSN: first}, err
			}
		}
		return msg.LogReply{LSN: first}, nil
	case msg.LogFlush:
		return msg.LogReply{}, st.Flush(req.LSN)
	case msg.LogRead:
		payload, next, err := st.ReadAt(req.LSN)
		return msg.LogReply{Payload: payload, Next: next}, err
	case msg.LogEnd:
		return msg.LogReply{LSN: st.End()}, nil
	case msg.LogDurable:
		return msg.LogReply{LSN: st.Durable()}, nil
	case msg.LogReclaim:
		return msg.LogReply{}, st.Reclaim(req.LSN)
	case msg.LogHorizon:
		return msg.LogReply{LSN: st.Horizon()}, nil
	default:
		return msg.LogReply{}, fmt.Errorf("core: unknown log op %d", req.Op)
	}
}

// HostRemoteLogs attaches the remote-log host (set once at
// construction by the cluster or the cmd server).
func (s *Server) HostRemoteLogs(h *RemoteLogHost) { s.remoteLogs = h }
