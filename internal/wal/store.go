package wal

import (
	"errors"
	"slices"
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
	// must not retain payload: the caller may reuse that buffer.
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

// An Appender is the one append entry point a Log uses: the record is
// encoded straight into the store's memory under the store's one mutex.
// Reserve takes the mutex and returns room for an n-byte payload at the
// end of the log — or, holding nothing, ErrLogFull unless headroom more
// bytes of capacity stay free after it — and Publish makes what was
// written there the next record, returns its LSN and lets the mutex go.
// No record crosses the interface, so one built on the caller's stack
// stays there.  MemStore and FileStore are Appenders; NewLog adapts any
// other Store (payloadAppender).
type Appender interface {
	Reserve(n int, headroom uint64) ([]byte, error)
	Publish() (LSN, error)
}

// HeadroomAppender is an optional capability of a Store that takes
// whole payloads: the append is refused with ErrLogFull unless headroom
// bytes of capacity remain free after it.  It backs the client's undo
// reservation (§3.6 on bounded logs) through a store that is not an
// Appender, such as a decorator forwarding to a MemStore.
type HeadroomAppender interface {
	AppendHeadroom(payload []byte, headroom uint64) (LSN, error)
}

// FrameSize is the bytes a store adds to every record payload: a
// FileStore frame's length and checksum.  MemStore counts them too, so
// LSNs, capacities and Log.BytesAppended agree across stores.
const FrameSize = 8

// firstLSN is the LSN of the first real record.  Offset zero is reserved
// so that NilLSN never collides with a record address.
const firstLSN LSN = 16

// MemStore is an in-memory Store with crash semantics: Crash discards
// the records that were appended but never flushed, exactly what losing
// the contents of an OS buffer cache would do.  A non-zero capacity
// bounds the live log span (End - reclaim horizon) to model the bounded
// client log disks of §3.6.
//
// Records are encoded back to back into chunks (Appender) and located
// through an index that holds no pointers, so the collector never scans
// the log however long it grows, and Reclaim costs only the records it
// drops.  A few reclaimed chunks wait for reuse, so a log cycling
// through a bounded span allocates nothing.
type MemStore struct {
	mu sync.Mutex
	// chunks[i] is chunk number first+i; appends fill the last one.
	// spares holds up to memSpares reclaimed chunks, emptied.
	chunks [][]byte
	first  uint32
	spares [][]byte
	// idx[head:] locates the live records, ascending by lsn.  Reclaim
	// advances head.  An append that finds idx full slides the live
	// records to its front, or, when less than a fifth of it is free or
	// more than three quarters, lets append move them to a new array
	// sized for their number.
	idx  []memRec
	head int
	// end and durable are written under mu and read without it (End,
	// Durable, a Log's Force of a record already durable).
	end       atomic.Uint64
	durable   atomic.Uint64
	reclaimed LSN
	capacity  uint64 // 0 = unbounded
	reserved  int    // the payload size Reserve handed out

	// flushLatency is the simulated fsync time (nanoseconds).  The sleep
	// happens outside mu so that what serializes flushes is the caller's
	// locking, not the model: the Log layer's group commit coalesces
	// concurrent forces onto one Flush and therefore one sleep.
	flushLatency atomic.Int64
}

// memRec locates one record's payload: it starts at off in its chunk
// and ends a frame before the next record's LSN (next), so the index
// spends 16 bytes a record.
type memRec struct {
	lsn   LSN
	chunk uint32
	off   uint32
}

// next returns the LSN of the record after idx[j]: the next record's,
// or the end of the log.  Called with mu held.
func (m *MemStore) next(j int) LSN {
	if j+1 < len(m.idx) {
		return m.idx[j+1].lsn
	}
	return m.End()
}

// memChunk is the chunk size (a larger payload gets a chunk of its own).
const memChunk = 16 << 10

// memSpares is the number of reclaimed chunks a MemStore keeps for
// reuse: enough that a log whose reclaims keep pace with its appends
// allocates no chunk, few enough that the bytes kept stay negligible.
const memSpares = 4

// NewMemStore returns an empty in-memory store.  capacity bounds the
// live log span in bytes; zero means unbounded.
func NewMemStore(capacity uint64) *MemStore {
	m := &MemStore{reclaimed: firstLSN, capacity: capacity}
	m.end.Store(uint64(firstLSN))
	m.durable.Store(uint64(firstLSN))
	return m
}

// live returns the index of the live records.  Called with mu held.
func (m *MemStore) live() []memRec { return m.idx[m.head:] }

// Reserve implements Appender.
func (m *MemStore) Reserve(n int, headroom uint64) ([]byte, error) {
	m.mu.Lock()
	if m.capacity != 0 && m.end.Load()+uint64(n)+FrameSize+headroom-uint64(m.reclaimed) > m.capacity {
		m.mu.Unlock()
		return nil, ErrLogFull
	}
	last := len(m.chunks) - 1
	if last < 0 || len(m.chunks[last])+n > cap(m.chunks[last]) {
		var c []byte
		if k := len(m.spares) - 1; k >= 0 && n <= memChunk {
			c, m.spares = m.spares[k], m.spares[:k]
		} else {
			c = make([]byte, 0, max(memChunk, n))
		}
		m.chunks = append(m.chunks, c)
		last++
	}
	c := m.chunks[last]
	m.reserved = n
	return c[len(c) : len(c)+n : len(c)+n], nil
}

// Publish implements Appender.
func (m *MemStore) Publish() (LSN, error) {
	defer m.mu.Unlock()
	last := len(m.chunks) - 1
	c, n := m.chunks[last], m.reserved
	if len(m.idx) == cap(m.idx) {
		if live := m.live(); 4*m.head < len(live) || len(m.idx) > 4*len(live)+64 {
			m.idx = slices.Clip(live) // the append below moves it
		} else {
			m.idx = m.idx[:copy(m.idx, live)]
		}
		m.head = 0
	}
	lsn := LSN(m.end.Load())
	m.idx = append(m.idx, memRec{lsn: lsn, chunk: m.first + uint32(last), off: uint32(len(c))})
	m.chunks[last] = c[:len(c)+n]
	m.end.Store(uint64(lsn) + uint64(n) + FrameSize)
	return lsn, nil
}

// Append implements Store.
func (m *MemStore) Append(payload []byte) (LSN, error) {
	return m.AppendHeadroom(payload, 0)
}

// AppendHeadroom implements HeadroomAppender.
func (m *MemStore) AppendHeadroom(payload []byte, headroom uint64) (LSN, error) {
	buf, err := m.Reserve(len(payload), headroom)
	if err != nil {
		return NilLSN, err
	}
	copy(buf, payload)
	return m.Publish()
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
	end := LSN(m.end.Load())
	if upTo >= end {
		m.durable.Store(uint64(end))
		return nil
	}
	// Durability is frame-aligned: everything up to and including the
	// record containing upTo becomes durable.
	horizon := end
	if i := m.find(upTo); i < len(m.live()) {
		horizon = m.next(m.head + i)
	}
	if uint64(horizon) > m.durable.Load() {
		m.durable.Store(uint64(horizon))
	}
	return nil
}

// Durable implements Store.
func (m *MemStore) Durable() LSN { return LSN(m.durable.Load()) }

// End implements Store.
func (m *MemStore) End() LSN { return LSN(m.end.Load()) }

// find returns the index in live() of the record whose frame contains
// lsn, or len(live()) when lsn is at or beyond the end.  Called with mu
// held.
func (m *MemStore) find(lsn LSN) int {
	live := m.live()
	if lsn >= m.End() {
		return len(live)
	}
	// The frame holding lsn belongs to the last record starting at or
	// before it (or, below the first, to the first).
	return max(sort.Search(len(live), func(i int) bool { return live[i].lsn > lsn })-1, 0)
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(lsn LSN) ([]byte, LSN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn < m.reclaimed {
		return nil, NilLSN, ErrReclaimed
	}
	if lsn >= m.End() {
		return nil, NilLSN, ErrOutOfRange
	}
	live, i := m.live(), m.find(lsn)
	if i >= len(live) || live[i].lsn != lsn {
		return nil, NilLSN, ErrOutOfRange
	}
	r, next := live[i], m.next(m.head+i)
	out := make([]byte, next-lsn-FrameSize)
	copy(out, m.chunks[r.chunk-m.first][r.off:])
	return out, next, nil
}

// Reclaim implements Store.  Only whole records strictly below upTo are
// dropped, and the chunks that held only them; up to memSpares of those
// wait for reuse.
func (m *MemStore) Reclaim(upTo LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if upTo <= m.reclaimed {
		return nil
	}
	upTo = min(upTo, m.Durable())
	for m.head < len(m.idx) && m.next(m.head) <= upTo {
		m.head++
	}
	k := len(m.chunks) - 1 // chunks to drop: all but the one being filled
	if live := m.live(); len(live) > 0 {
		m.reclaimed, k = live[0].lsn, int(live[0].chunk-m.first)
	} else {
		m.reclaimed = m.End()
	}
	if k > 0 {
		for _, c := range m.chunks[:k] {
			if len(m.spares) < memSpares && cap(c) == memChunk {
				m.spares = append(m.spares, c[:0])
			}
		}
		n := copy(m.chunks, m.chunks[k:]) // in place: appends then reuse the array
		clear(m.chunks[n:])
		m.chunks = m.chunks[:n]
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
	durable := m.Durable()
	live := m.live()
	i := sort.Search(len(live), func(i int) bool { return live[i].lsn >= durable })
	m.idx = m.idx[:m.head+i]
	m.end.Store(uint64(durable))
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// LiveBytes returns the bytes currently occupied between the reclaim
// horizon and the end of the log; the §3.6 log-space manager watches
// this against the capacity.
func (m *MemStore) LiveBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(m.End() - m.reclaimed)
}

// Capacity returns the configured capacity (0 = unbounded).
func (m *MemStore) Capacity() uint64 { return m.capacity }
