package wal

import (
	"slices"
	"sync"

	"clientlog/internal/obs"
	"clientlog/internal/page"
)

// Log is a log manager: a record codec and WAL bookkeeping layered over
// a Store.  One Log instance backs each client's private log and the
// server's log.  It holds no lock of its own on the append path: a
// record is encoded into the store under the store's mutex (Appender).
type Log struct {
	store Store
	app   Appender

	// fmu is held by the flush leader of the group commit: concurrent
	// Force callers queue on it and find their records already durable
	// when the leader, which flushed the whole appended prefix, lets them
	// in, so K committers pay ~1 device flush between them.
	fmu sync.Mutex

	// Metrics, readable concurrently by the benchmark harness and
	// bindable into an obs.Registry via RegisterObs.
	appendedBytes obs.Counter
	appendedRecs  obs.Counter
	forces        obs.Counter
}

// RegisterObs binds the log's counters into reg as the wal_* families,
// tagged with the caller's tags (typically scope=server or
// scope=client:<id>).
func (l *Log) RegisterObs(reg *obs.Registry, tags ...obs.Tag) {
	if reg == nil {
		return
	}
	reg.BindCounter(&l.appendedRecs, "wal_appends_total", tags...)
	reg.BindCounter(&l.forces, "wal_forces_total", tags...)
}

// NewLog wraps a store in a log manager.  A store that is not an
// Appender takes its records as payloads (payloadAppender).
func NewLog(store Store) *Log {
	app, ok := store.(Appender)
	if !ok {
		app = &payloadAppender{store: store}
	}
	return &Log{store: store, app: app}
}

// payloadAppender is the Appender of a Store that takes whole payloads:
// Reserve hands out its buffer under its mutex, and Publish appends the
// buffer with the headroom asked (HeadroomAppender, when the store has
// it and the headroom is not zero).
type payloadAppender struct {
	store    Store
	mu       sync.Mutex
	buf      []byte
	headroom uint64
}

func (p *payloadAppender) Reserve(n int, headroom uint64) ([]byte, error) {
	p.mu.Lock()
	p.buf, p.headroom = slices.Grow(p.buf[:0], n)[:n], headroom
	return p.buf, nil
}

func (p *payloadAppender) Publish() (LSN, error) {
	defer p.mu.Unlock()
	if ha, ok := p.store.(HeadroomAppender); ok && p.headroom > 0 {
		return ha.AppendHeadroom(p.buf, p.headroom)
	}
	return p.store.Append(p.buf)
}

// Store exposes the underlying store (the simulator uses it to crash
// MemStores and to read live-byte accounting).
func (l *Log) Store() Store { return l.store }

// Append encodes and appends a record, returning its LSN.  The record is
// not durable until Force.
func (l *Log) Append(r Record) (LSN, error) {
	return l.AppendWithHeadroom(r, 0)
}

// AppendWithHeadroom appends like Append but, on stores that track
// capacity, fails with ErrLogFull unless headroom bytes remain free
// after the append.  The client's undo reservation rides on this: every
// forward append leaves room for the CLRs and abort records of the
// active transactions, so rollback can always log.  The record is
// encoded straight into the store, which r does not escape to.
func (l *Log) AppendWithHeadroom(r Record, headroom uint64) (LSN, error) {
	n := EncodedSize(r)
	buf, err := l.app.Reserve(n, headroom)
	if err != nil {
		return NilLSN, err
	}
	AppendRecord(buf[:0], r)
	return l.publish(n)
}

// AppendEncoded appends an already-encoded record payload; the server
// uses it to store log records shipped by clients at commit in the
// LogShipCommit baseline without a decode/re-encode round trip.
func (l *Log) AppendEncoded(payload []byte) (LSN, error) {
	buf, err := l.app.Reserve(len(payload), 0)
	if err != nil {
		return NilLSN, err
	}
	copy(buf, payload)
	return l.publish(len(payload))
}

// publish ends an append of an n-byte payload the store reserved.
func (l *Log) publish(n int) (LSN, error) {
	lsn, err := l.app.Publish()
	if err != nil {
		return NilLSN, err
	}
	l.appendedBytes.Add(uint64(n) + FrameSize)
	l.appendedRecs.Add(1)
	return lsn, nil
}

// AppendAndForce appends a record and forces the log through it; used
// for commit records and the server's replacement records.
func (l *Log) AppendAndForce(r Record) (LSN, error) {
	lsn, err := l.Append(r)
	if err != nil {
		return NilLSN, err
	}
	if err := l.Force(lsn); err != nil {
		return NilLSN, err
	}
	return lsn, nil
}

// Force makes all records up to and including upTo durable.
//
// Concurrent callers group-commit: the first becomes the flush leader
// and flushes everything appended so far; the others wait for that
// flush and re-check durability, so a burst of K committers usually
// pays a single device flush.  A caller whose records the leader's
// flush did not cover (appended after the leader captured the end of
// the log, or the flush failed) simply leads the next flush.
func (l *Log) Force(upTo LSN) error {
	if upTo < l.store.Durable() {
		return nil
	}
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if upTo < l.store.Durable() {
		return nil // covered by the flush this caller waited for
	}
	// Flush the whole appended prefix, not just upTo: every waiter
	// whose records landed before this point rides along for free.
	target := l.store.End()
	if target < upTo {
		target = upTo
	}
	l.forces.Add(1)
	return l.store.Flush(target)
}

// ForceAll forces everything appended so far.
func (l *Log) ForceAll() error { return l.Force(l.store.End()) }

// End returns the LSN the next record will receive; the paper's
// "current end of the log" used when seeding DPT RedoLSNs.
func (l *Log) End() LSN { return l.store.End() }

// Durable returns the durability horizon.
func (l *Log) Durable() LSN { return l.store.Durable() }

// Read decodes the record at lsn, also returning the next record's LSN.
func (l *Log) Read(lsn LSN) (Record, LSN, error) { return l.ReadWith(new(Decoder), lsn) }

// ReadWith is Read decoding with d.
func (l *Log) ReadWith(d *Decoder, lsn LSN) (Record, LSN, error) {
	payload, next, err := l.store.ReadAt(lsn)
	if err != nil {
		return nil, NilLSN, err
	}
	rec, err := d.Decode(payload)
	if err != nil {
		return nil, NilLSN, err
	}
	return rec, next, nil
}

// ScanPages walks the records from LSN from up to the end of the log as
// of the call and reports to fn each record that describes one page (an
// update, logical, compensation or callback record) with that page.  It
// peeks at record headers only, so indexing a log by page decodes no
// image.  It returns the LSN the walk stopped at, where a later call
// resumes, and the LSN of the last checkpoint record it passed (NilLSN
// if none).
func (l *Log) ScanPages(from LSN, fn func(lsn LSN, pid page.ID)) (stop, ckpt LSN, err error) {
	end := l.End()
	lsn := from
	for lsn < end {
		payload, next, err := l.store.ReadAt(lsn)
		if err != nil {
			return lsn, ckpt, err
		}
		pid, ok, err := peekPage(payload)
		if err != nil {
			return lsn, ckpt, err
		}
		if ok {
			fn(lsn, pid)
		} else if Kind(payload[0]) == KindCheckpoint {
			ckpt = lsn
		}
		lsn = next
	}
	return lsn, ckpt, nil
}

// Reclaim releases log space below upTo (the client's min RedoLSN; see
// §3.6).
func (l *Log) Reclaim(upTo LSN) error { return l.store.Reclaim(upTo) }

// Horizon returns the LSN of the earliest record still readable (the
// reclaim horizon); full-log scans start here.
func (l *Log) Horizon() LSN { return l.store.Horizon() }

// Close closes the underlying store.
func (l *Log) Close() error { return l.store.Close() }

// BytesAppended returns the cumulative payload+frame bytes appended.
func (l *Log) BytesAppended() uint64 { return l.appendedBytes.Load() }

// RecordsAppended returns the cumulative number of records appended.
func (l *Log) RecordsAppended() uint64 { return l.appendedRecs.Load() }

// Forces returns the number of Force calls that reached the store.
func (l *Log) Forces() uint64 { return l.forces.Load() }

// Scanner iterates over records in LSN order.
type Scanner struct {
	log  *Log
	next LSN
	end  LSN

	lsn LSN
	rec Record
	err error
}

// Scan returns a scanner positioned at from (use firstLSN via
// StartLSN() to scan the whole log) that stops at the current end.
func (l *Log) Scan(from LSN) *Scanner {
	if from == NilLSN {
		from = firstLSN
	}
	return &Scanner{log: l, next: from, end: l.End()}
}

// StartLSN returns the LSN of the first record any log can contain.
func StartLSN() LSN { return firstLSN }

// Next advances to the next record; it returns false at the end of the
// log or on error (check Err).
func (s *Scanner) Next() bool {
	if s.err != nil || s.next >= s.end {
		return false
	}
	rec, next, err := s.log.Read(s.next)
	if err != nil {
		s.err = err
		return false
	}
	s.lsn, s.rec, s.next = s.next, rec, next
	return true
}

// LSN returns the LSN of the current record.
func (s *Scanner) LSN() LSN { return s.lsn }

// Record returns the current record.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the error that stopped the scan, if any.
func (s *Scanner) Err() error { return s.err }
