package msg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/fault"
	"clientlog/internal/obs"
)

// rpcRetries counts retransmissions performed by every faulty conn in
// the process (a retry is process-global behaviour of the simulated
// network, not of one cluster, so the counter is package-level).
var rpcRetries obs.Counter

// Retries returns the total number of RPC retransmissions so far.
func Retries() uint64 { return rpcRetries.Load() }

// RegisterObs binds the package-level transport counters (currently
// the retry count) into reg as msg_rpc_retries_total.
func RegisterObs(reg *obs.Registry, tags ...obs.Tag) {
	if reg == nil {
		return
	}
	reg.BindCounter(&rpcRetries, "msg_rpc_retries_total", tags...)
}

// ErrUnavailable reports that an RPC exhausted its retry budget against
// the simulated network; with a sane plan/retry pairing this only
// happens when the plan is deliberately hostile.
var ErrUnavailable = errors.New("msg: network unavailable (retries exhausted)")

// RetryPolicy bounds the transparent retransmission a faulty conn
// performs.  The total attempt budget must outlast the fault plan's
// partition windows (each attempt consumes one window slot).
type RetryPolicy struct {
	MaxAttempts int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetry pairs with fault.DefaultPlan: 16 attempts ride out a
// 5-message partition with room to spare, and the backoff stays small
// enough for tests.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 16, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 2 * time.Millisecond}
}

func (r RetryPolicy) norm() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 16
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 50 * time.Microsecond
	}
	if r.MaxBackoff < r.BaseBackoff {
		r.MaxBackoff = 100 * r.BaseBackoff
	}
	return r
}

// Faulty is the simulated lossy network as middleware: every call runs
// under the injector's decisions for the stream, lost messages are
// retransmitted with bounded exponential backoff, and the receiving
// side's ReplyCache suppresses re-executions, so drops, duplicates and
// stale replays never execute twice.  Notifications get the fault
// treatment without retry: they may be lost or duplicated outright.
type Faulty struct {
	next   Caller
	inj    *fault.Injector
	dedup  *ReplyCache
	stream string
	retry  RetryPolicy

	seq atomic.Uint64

	mu       sync.Mutex
	lastExec func() (any, error) // previous request, for Replay
}

// NewFaulty wraps next.  dedup is the receiving end's reply cache for
// this connection (one per conn direction).
func NewFaulty(next Caller, inj *fault.Injector, dedup *ReplyCache, stream string, retry RetryPolicy) *Faulty {
	return &Faulty{next: next, inj: inj, dedup: dedup, stream: stream, retry: retry.norm()}
}

// Call implements Caller.
func (f *Faulty) Call(m Method, req any) (any, error) {
	exec := func() (any, error) { return f.next.Call(m, req) }
	if m.OneWay() {
		f.oneway(exec)
		return nil, nil
	}
	seq := f.seq.Add(1)
	deduped := func() (any, error) { return f.dedup.Do(seq, exec) }
	f.mu.Lock()
	prev := f.lastExec
	f.lastExec = deduped
	f.mu.Unlock()

	backoff := f.retry.BaseBackoff
	for attempt := 0; attempt < f.retry.MaxAttempts; attempt++ {
		d := f.inj.Next(f.stream)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Replay && prev != nil {
			// A stale retransmission of the previous request overtakes
			// this one; the receiver must recognize and suppress it.
			prev() //nolint:errcheck // the original call already consumed the result
		}
		if d.DropRequest {
			rpcRetries.Inc()
			time.Sleep(backoff)
			backoff = min(2*backoff, f.retry.MaxBackoff)
			continue
		}
		body, err := deduped()
		if d.Duplicate {
			// The wire delivered the request twice; the second execution
			// must come from the receiver's reply cache.
			deduped() //nolint:errcheck
		}
		if d.DropReply || d.Disconnect {
			// The receiver executed but the reply is lost (or the
			// connection died under it); retransmit.
			rpcRetries.Inc()
			time.Sleep(backoff)
			backoff = min(2*backoff, f.retry.MaxBackoff)
			continue
		}
		return body, err
	}
	return nil, fmt.Errorf("%w: %v (stream %s, %d attempts)", ErrUnavailable, m, f.stream, f.retry.MaxAttempts)
}

// oneway delivers a notification with fault treatment but no retry:
// one-way messages may simply be lost, and the protocol must tolerate
// that (flush notifications are advisory).
func (f *Faulty) oneway(deliver func() (any, error)) {
	d := f.inj.Next(f.stream)
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.DropRequest || d.Disconnect {
		return
	}
	deliver() //nolint:errcheck // one-way
	if d.Duplicate {
		deliver() //nolint:errcheck
	}
}

// ReplyCache gives a transport at-most-once execution of requests: the
// receiving side of a lossy connection executes each request id exactly
// once and answers retransmissions (retries after a lost reply,
// wire-level duplicates, stale replays) from the cached result.
// Without it, a retried Ship would merge a page twice, a retried remote
// LogAppend would write the record twice, and a retried Alloc would
// leak a page — §3 of the paper assumes the network may lose or
// duplicate messages, so suppression is the receiver's job.
//
// Faulty uses one per conn direction; the TCP sessions of
// internal/netrpc use one per session end.
type ReplyCache struct {
	// Suppressed counts duplicate requests answered from the cache.
	Suppressed atomic.Uint64

	mu      sync.Mutex
	entries map[uint64]*replyEntry
	order   []uint64 // insertion order, for bounded eviction
	limit   int
}

// replyEntry is one request's (eventual) result; done closes when the
// first execution finishes, so a duplicate that arrives while the
// original is still executing waits instead of re-executing.
type replyEntry struct {
	done chan struct{}
	body any
	err  error
}

// NewReplyCache returns a cache remembering about limit completed
// requests (0 picks a default).  The window only needs to cover the
// retry horizon of one connection, not the whole session.
func NewReplyCache(limit int) *ReplyCache {
	if limit <= 0 {
		limit = 1024
	}
	return &ReplyCache{entries: make(map[uint64]*replyEntry), limit: limit}
}

// Do executes exec for the first request with this id and returns the
// cached result (blocking on the in-flight execution if necessary) for
// every later request with the same id.
func (rc *ReplyCache) Do(seq uint64, exec func() (any, error)) (any, error) {
	rc.mu.Lock()
	if e, ok := rc.entries[seq]; ok {
		rc.mu.Unlock()
		<-e.done
		rc.Suppressed.Add(1)
		return e.body, e.err
	}
	e := &replyEntry{done: make(chan struct{})}
	rc.entries[seq] = e
	rc.order = append(rc.order, seq)
	rc.evictLocked()
	rc.mu.Unlock()

	e.body, e.err = exec()
	close(e.done)
	return e.body, e.err
}

// evictLocked drops the oldest *completed* entries beyond the limit;
// in-flight entries are never evicted (a duplicate must find them).
func (rc *ReplyCache) evictLocked() {
	for len(rc.entries) > rc.limit && len(rc.order) > 0 {
		seq := rc.order[0]
		e := rc.entries[seq]
		if e != nil {
			select {
			case <-e.done:
			default:
				return // oldest still executing; stop evicting
			}
			delete(rc.entries, seq)
		}
		rc.order = rc.order[1:]
	}
}
