package wal

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the byte-level log device under a Log.  Records are framed by
// the Log; the store only sees opaque payloads addressed by the LSN of
// their frame.
//
// Two implementations exist: MemStore, whose "disk" survives a simulated
// crash while the unflushed tail is lost (used by tests, benchmarks and
// the simulator), and FileStore, backed by a real file (used by the cmd/
// tools and the examples).
type Store interface {
	// Append stores a payload and returns the LSN assigned to it.  It
	// must not retain payload: the Log reuses that buffer for its next
	// record.
	Append(payload []byte) (LSN, error)
	// Flush makes every record with LSN <= upTo durable.
	Flush(upTo LSN) error
	// Durable returns the LSN boundary below which records survive a
	// crash (exclusive: every record starting before it is durable).
	Durable() LSN
	// End returns the LSN that the next appended record will receive.
	End() LSN
	// ReadAt returns the payload of the record at lsn and the LSN of the
	// following record.  The payload belongs to the caller: decoded
	// records alias it.
	ReadAt(lsn LSN) (payload []byte, next LSN, err error)
	// Reclaim tells the store that no record before upTo will ever be
	// read again, allowing a bounded (circular) log to reuse the space.
	Reclaim(upTo LSN) error
	// Horizon returns the earliest LSN still readable.
	Horizon() LSN
	// Close releases resources.
	Close() error
}

// Store errors.
var (
	ErrLogFull    = errors.New("wal: log capacity exhausted")
	ErrOutOfRange = errors.New("wal: LSN out of range")
	ErrReclaimed  = errors.New("wal: LSN already reclaimed")
)

// HeadroomAppender is an optional Store capability backing the client's
// undo reservation (§3.6 on bounded logs): the append is refused with
// ErrLogFull unless headroom bytes of capacity remain free after it, so
// a transaction can always log the CLRs and the abort record needed to
// roll itself back even when forward appends are being refused.  Stores
// that do not track capacity simply don't implement it.
type HeadroomAppender interface {
	AppendHeadroom(payload []byte, headroom uint64) (LSN, error)
}

// firstLSN is the LSN of the first real record.  Offset zero is reserved
// so that NilLSN never collides with a record address.
const firstLSN LSN = 16

// MemStore is an in-memory Store with crash semantics: Crash discards
// the records that were appended but never flushed, exactly what losing
// the contents of an OS buffer cache would do.  A non-zero capacity
// bounds the live log span (End - reclaim horizon) to model the bounded
// client log disks of §3.6.
//
// Payloads are copied back to back into chunks and located through an
// index that holds no pointers, so the collector never scans the log
// however long it grows, and Reclaim costs only the records it drops.
type MemStore struct {
	mu sync.Mutex
	// chunks[i] is chunk number first+i; appends fill the last one.
	chunks [][]byte
	first  uint32
	// idx locates the live records, ascending by lsn.  Reclaim slices
	// it from the front; the next growth copies only what is live.
	idx       []memRec
	end       LSN
	durable   LSN
	reclaimed LSN
	capacity  uint64 // 0 = unbounded

	// flushLatency is the simulated fsync time (nanoseconds).  The sleep
	// happens outside mu so that what serializes flushes is the caller's
	// locking, not the model: the Log layer's group commit coalesces
	// concurrent forces onto one Flush and therefore one sleep.
	flushLatency atomic.Int64
}

// memRec locates one record's payload: n bytes at off in its chunk.
type memRec struct {
	lsn   LSN
	chunk uint32
	off   uint32
	n     uint32
}

// next returns the LSN of the record after r (its frame counts 8 bytes).
func (r memRec) next() LSN { return r.lsn + LSN(r.n) + 8 }

// memChunk is the chunk size (a larger payload gets a chunk of its own).
const memChunk = 16 << 10

// NewMemStore returns an empty in-memory store.  capacity bounds the
// live log span in bytes; zero means unbounded.
func NewMemStore(capacity uint64) *MemStore {
	return &MemStore{end: firstLSN, durable: firstLSN, reclaimed: firstLSN, capacity: capacity}
}

// Append implements Store.
func (m *MemStore) Append(payload []byte) (LSN, error) {
	return m.AppendHeadroom(payload, 0)
}

// AppendHeadroom implements HeadroomAppender.
func (m *MemStore) AppendHeadroom(payload []byte, headroom uint64) (LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sz := uint64(len(payload)) + 8 // frame accounting
	if m.capacity != 0 && uint64(m.end)+sz+headroom-uint64(m.reclaimed) > m.capacity {
		return NilLSN, ErrLogFull
	}
	last := len(m.chunks) - 1
	if last < 0 || len(m.chunks[last])+len(payload) > cap(m.chunks[last]) {
		m.chunks = append(m.chunks, make([]byte, 0, max(memChunk, len(payload))))
		last++
	}
	lsn := m.end
	m.idx = append(m.idx, memRec{lsn: lsn, chunk: m.first + uint32(last), off: uint32(len(m.chunks[last])), n: uint32(len(payload))})
	m.chunks[last] = append(m.chunks[last], payload...)
	m.end += LSN(sz)
	return lsn, nil
}

// SetFlushLatency makes every subsequent Flush take at least d of wall
// time, modeling the fsync cost of the disk this store stands in for.
func (m *MemStore) SetFlushLatency(d time.Duration) { m.flushLatency.Store(int64(d)) }

// Flush implements Store.
func (m *MemStore) Flush(upTo LSN) error {
	if d := m.flushLatency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if upTo >= m.end {
		m.durable = m.end
		return nil
	}
	// Durability is frame-aligned: everything up to and including the
	// record containing upTo becomes durable.
	horizon := m.end
	if i := m.find(upTo); i < len(m.idx) {
		horizon = m.idx[i].next()
	}
	if horizon > m.durable {
		m.durable = horizon
	}
	return nil
}

// Durable implements Store.
func (m *MemStore) Durable() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durable
}

// End implements Store.
func (m *MemStore) End() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.end
}

// find returns the index in idx of the record whose frame contains lsn,
// or len(idx) when lsn is at or beyond the end.
func (m *MemStore) find(lsn LSN) int {
	return sort.Search(len(m.idx), func(i int) bool { return m.idx[i].next() > lsn })
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(lsn LSN) ([]byte, LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn < m.reclaimed {
		return nil, NilLSN, ErrReclaimed
	}
	if lsn >= m.end {
		return nil, NilLSN, ErrOutOfRange
	}
	i := m.find(lsn)
	if i >= len(m.idx) || m.idx[i].lsn != lsn {
		return nil, NilLSN, ErrOutOfRange
	}
	r := m.idx[i]
	out := make([]byte, r.n)
	copy(out, m.chunks[r.chunk-m.first][r.off:])
	return out, r.next(), nil
}

// Reclaim implements Store.  Only whole records strictly below upTo are
// dropped.
func (m *MemStore) Reclaim(upTo LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if upTo <= m.reclaimed {
		return nil
	}
	if upTo > m.durable {
		upTo = m.durable
	}
	h := 0
	for h < len(m.idx) && m.idx[h].next() <= upTo {
		h++
	}
	m.idx = m.idx[h:]
	k := len(m.chunks) - 1 // chunks to drop: all but the one being filled
	if len(m.idx) > 0 {
		m.reclaimed, k = m.idx[0].lsn, int(m.idx[0].chunk-m.first)
	} else {
		m.reclaimed = m.end
	}
	if k > 0 {
		clear(m.chunks[:k])
		m.chunks = m.chunks[k:]
		m.first += uint32(k)
	}
	return nil
}

// Horizon implements Store.
func (m *MemStore) Horizon() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reclaimed
}

// Crash simulates a machine crash: records beyond the durable horizon
// are lost; everything else (the "disk") survives.
func (m *MemStore) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The lost payloads' bytes stay in their chunks, unindexed, until
	// a reclaim drops the chunks.
	i := sort.Search(len(m.idx), func(i int) bool { return m.idx[i].lsn >= m.durable })
	m.idx = m.idx[:i]
	m.end = m.durable
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// LiveBytes returns the bytes currently occupied between the reclaim
// horizon and the end of the log; the §3.6 log-space manager watches
// this against the capacity.
func (m *MemStore) LiveBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(m.end - m.reclaimed)
}

// Capacity returns the configured capacity (0 = unbounded).
func (m *MemStore) Capacity() uint64 { return m.capacity }
