// Package span builds per-transaction causal span trees on top of the
// observability subsystem: every transaction carries a trace identified
// by its ident.TxnID, client-side operations (lock acquire, page fetch,
// WAL force, commit shipping) open spans under a begin→commit root, and
// server-side work (GLM queue wait, callback and de-escalation round
// trips) is recorded against a compact trace context that travels
// inside the RPC messages, so a finished trace attributes every slice
// of a commit's latency to the layer that spent it.
//
// Recording is always on when a Store is attached (span buffers are a
// few slice appends per operation), but *retention* is sampled: a trace
// is published into the store if it was head-sampled (1-in-N, decided
// at Begin so the wire context can propagate) or if it turns out slower
// than the slow cutoff (tail sampling — slow traces are exactly the
// ones worth keeping, though without server-side detail unless they
// were also head-sampled).  Published committed traces feed the
// critical-path analyzer (analyze.go), which maintains the root and
// per-bucket exclusive-time histograms behind the lat_breakdown rollup
// used by cmd/bench and the experiment tables.
package span

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/obs"
)

// Category classifies what a span's time was spent on.
type Category uint8

const (
	// CatTxn is the root span, begin→commit; its exclusive time is
	// client-local work not covered by any child (compute, buffer
	// management, WAL appends).
	CatTxn Category = iota
	// CatLockWait covers a client's remote Lock call end to end; with
	// server-side children stitched in, its exclusive time is transport.
	CatLockWait
	// CatGLMQueue is the server-side wait inside GLM.Acquire (queue
	// wait plus waiting out callbacks, which nest as children).
	CatGLMQueue
	// CatCallback is one server→holder callback round trip.
	CatCallback
	// CatDeesc is one server→holder de-escalation round trip.
	CatDeesc
	// CatFetch covers a page fetch (or alloc) from the server.
	CatFetch
	// CatWALForce is the commit-time force of the client's local WAL —
	// the whole commit-path cost the paper's scheme pays.
	CatWALForce
	// CatCommitShip covers the commit-time CommitShip RPC the baseline
	// schemes issue (log shipping / page shipping / token handoff).
	CatCommitShip
	// CatCommitProc is the server-side processing of a CommitShip
	// (installing records and forcing the server log).
	CatCommitProc

	catCount
)

var catNames = [catCount]string{
	"txn", "lock-wait", "glm-queue", "callback", "deescalate",
	"fetch", "wal-force", "commit-ship", "commit-proc",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "cat(?)"
}

// Rollup bucket names for the lat_breakdown section: every category
// maps into one of these four shares of commit time.
const (
	BucketLockWait = "lock-wait"
	BucketWALForce = "wal-force"
	BucketNet      = "net"
	BucketOther    = "other"
)

// Buckets lists the rollup buckets in reporting order.
var Buckets = [4]string{BucketLockWait, BucketWALForce, BucketNet, BucketOther}

// Bucket maps a category to its lat_breakdown rollup bucket.  The
// client-observed RPC spans (lock, fetch, commit-ship) roll up as net
// because their server-side children are subtracted as exclusive time;
// what remains is transport.  Server-side lock-manager work is
// lock-wait; local WAL force and the server's commit processing (which
// is the baseline schemes' log force) are wal-force.
func (c Category) Bucket() string {
	switch c {
	case CatGLMQueue, CatCallback, CatDeesc:
		return BucketLockWait
	case CatWALForce, CatCommitProc:
		return BucketWALForce
	case CatLockWait, CatFetch, CatCommitShip:
		return BucketNet
	default:
		return BucketOther
	}
}

func bucketIndex(name string) int {
	for i, b := range Buckets {
		if b == name {
			return i
		}
	}
	return len(Buckets) - 1
}

// Context is the compact trace context that travels on the wire (a
// field in the msg request structs and in the netrpc envelope).  The
// zero value means "not sampled": servers record nothing and the
// context costs nothing to encode.
type Context struct {
	// Txn identifies the originating transaction (and thereby the
	// trace).
	Txn ident.TxnID
	// Span is the client-side span the server-side work nests under.
	Span uint64
	// Sampled is set when the originating trace was head-sampled, i.e.
	// the server should record and stage its side of the work.
	Sampled bool
}

// Span is one timed node of a trace tree.
type Span struct {
	ID     uint64
	Parent uint64 // 0 on the root
	Cat    Category
	Label  string
	Start  time.Time
	End    time.Time
	// Origin names the process the span was recorded on when the trace
	// was stitched across a fleet ("p0", "p1", ...); empty for spans
	// local to the store that published the trace.
	Origin string
}

// Duration returns the span's length (zero if it never ended).
func (s Span) Duration() time.Duration {
	if s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Trace is one published transaction trace.  Spans[0] is the root.
type Trace struct {
	Txn    ident.TxnID
	Commit bool // committed (false: aborted)
	// Partial marks a trace synthesized from staged server-side spans
	// only (the owning client never published — e.g. this process is
	// the server tier of a distributed deployment).
	Partial bool
	Spans   []Span
}

// Total returns the root span's duration.
func (t *Trace) Total() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.Spans[0].Duration()
}

// Default sampling policy: head-sample one transaction in 64 and
// always keep traces slower than 20ms, retaining at most 512 traces.
const (
	DefaultSampleEvery = 64
	DefaultSlowCutoff  = 20 * time.Millisecond
	DefaultCapacity    = 512
)

// Options configures a Store.  Zero fields take the defaults above.
type Options struct {
	// SampleEvery head-samples one transaction in N (1 samples every
	// transaction).
	SampleEvery int
	// SlowCutoff publishes any trace at least this slow even when it
	// was not head-sampled.
	SlowCutoff time.Duration
	// Capacity bounds the number of retained traces (and staged
	// server-side entries); oldest are evicted first.
	Capacity int
}

// Store holds published traces, stages server-side spans until their
// trace publishes, and accumulates the critical-path histograms.  All
// methods are safe for concurrent use and safe on a nil *Store (they
// no-op), so engines thread an optional store without branching.
type Store struct {
	every uint64
	slow  time.Duration
	cap   int

	ctr    atomic.Uint64 // head-sampling counter
	srvIDs atomic.Uint64 // server-side span IDs, offset out of client range

	mu          sync.Mutex
	traces      map[ident.TxnID]*Trace
	order       []ident.TxnID // publish order, for eviction
	staged      map[ident.TxnID][]Span
	stagedOrder []ident.TxnID

	// Exclusive-time attribution, fed on publish of committed traces.
	total    obs.Histogram               // root (begin→commit) nanos
	byBucket [len(Buckets)]obs.Histogram // rollup exclusive nanos
}

// NewStore builds a Store with the given sampling policy.
func NewStore(opt Options) *Store {
	if opt.SampleEvery <= 0 {
		opt.SampleEvery = DefaultSampleEvery
	}
	if opt.SlowCutoff <= 0 {
		opt.SlowCutoff = DefaultSlowCutoff
	}
	if opt.Capacity <= 0 {
		opt.Capacity = DefaultCapacity
	}
	s := &Store{
		every:  uint64(opt.SampleEvery),
		slow:   opt.SlowCutoff,
		cap:    opt.Capacity,
		traces: make(map[ident.TxnID]*Trace),
		staged: make(map[ident.TxnID][]Span),
	}
	s.srvIDs.Store(1 << 32) // never collides with per-txn client IDs
	return s
}

// NewDefaultStore builds a Store with the default sampling policy.
func NewDefaultStore() *Store { return NewStore(Options{}) }

// TxnTrace is the per-transaction span recorder.  It is owned by the
// transaction's goroutine (like the Txn itself) and costs a slice
// append per span; publication happens once, at Finish.  All methods
// are safe on a nil receiver, which is how tracing-off code paths stay
// branch-free.
type TxnTrace struct {
	store   *Store
	txn     ident.TxnID
	sampled bool
	spans   []Span
}

// tracePool recycles TxnTrace recorders.  Tracing runs on every
// transaction but almost none publish (1-in-64 head sample plus the
// rare slow tail), so without recycling every commit pays two heap
// allocations (the recorder and its span buffer) just to throw them
// away at Finish.  A recorder must not be touched after Finish — that
// has always been the contract (the txn is done) and is now load
// bearing.
var tracePool = sync.Pool{New: func() any { return new(TxnTrace) }}

// Begin opens the root span for txn and decides head sampling.
func (s *Store) Begin(txn ident.TxnID) *TxnTrace {
	if s == nil {
		return nil
	}
	t := tracePool.Get().(*TxnTrace)
	t.store = s
	t.txn = txn
	t.sampled = s.ctr.Add(1)%s.every == 0
	if cap(t.spans) == 0 {
		t.spans = make([]Span, 1, 8)
	} else {
		t.spans = t.spans[:1]
	}
	t.spans[0] = Span{ID: 1, Cat: CatTxn, Start: time.Now()}
	return t
}

// Start opens a child span of the root and returns its ID.
func (t *TxnTrace) Start(cat Category, label string) uint64 {
	if t == nil {
		return 0
	}
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: 1, Cat: cat, Label: label, Start: time.Now()})
	return id
}

// End closes the span returned by Start.
func (t *TxnTrace) End(id uint64) {
	if t == nil || id < 2 || id > uint64(len(t.spans)) {
		return
	}
	t.spans[id-1].End = time.Now()
}

// Context returns the wire context for server-side work nested under
// span id.  It is the zero Context (nothing propagates, nothing is
// recorded remotely) unless the trace was head-sampled.
func (t *TxnTrace) Context(id uint64) Context {
	if t == nil || !t.sampled {
		return Context{}
	}
	return Context{Txn: t.txn, Span: id, Sampled: true}
}

// Sampled reports whether the trace was head-sampled.
func (t *TxnTrace) Sampled() bool { return t != nil && t.sampled }

// Finish closes the root span and publishes the trace if it was
// head-sampled or slower than the store's slow cutoff.  Committed
// traces also feed the critical-path histograms.
func (t *TxnTrace) Finish(committed bool) {
	if t == nil {
		return
	}
	t.spans[0].End = time.Now()
	dur := t.spans[0].Duration()
	if !t.sampled && dur < t.store.slow {
		// Dropped, not published: the span buffer is still private, so
		// the whole recorder goes back to the pool.  Labels are zeroed
		// so a pooled buffer doesn't pin their strings.
		for i := range t.spans {
			t.spans[i] = Span{}
		}
		t.store = nil
		tracePool.Put(t)
		return
	}
	t.store.publish(&Trace{Txn: t.txn, Commit: committed, Spans: t.spans})
	// Published: the span buffer escaped into the store, so only the
	// recorder struct is recycled.
	t.store = nil
	t.spans = nil
	tracePool.Put(t)
}

// ServerSpan is a server-side span handle: started against an incoming
// Context, staged into the store on End, and merged into the client's
// trace when it publishes.  The zero value (unsampled context, or nil
// store) is inert.
type ServerSpan struct {
	store *Store
	span  Span
	txn   ident.TxnID
}

// ServerStart opens a server-side span for the transaction behind ctx.
// It returns an inert handle when ctx is unsampled.
func (s *Store) ServerStart(ctx Context, cat Category, label string) ServerSpan {
	if s == nil || !ctx.Sampled {
		return ServerSpan{}
	}
	return ServerSpan{
		store: s,
		txn:   ctx.Txn,
		span: Span{
			ID:     s.srvIDs.Add(1),
			Parent: ctx.Span,
			Cat:    cat,
			Label:  label,
			Start:  time.Now(),
		},
	}
}

// WithOrigin stamps the span's fleet provenance ("p1") at record time.
// It is the only stamp: the fleet plane's stitcher keeps it as it
// adopts the span, and an in-process fleet, whose partitions share one
// store, could not tell its servers apart otherwise.
func (p ServerSpan) WithOrigin(origin string) ServerSpan {
	if p.store != nil {
		p.span.Origin = origin
	}
	return p
}

// End closes the span and stages it for its trace's publication.
func (p ServerSpan) End() {
	if p.store == nil {
		return
	}
	p.span.End = time.Now()
	p.store.stage(p.txn, p.span)
}

// Context returns the wire context for work nested under this span
// (e.g. callback round trips under the GLM queue-wait span).
func (p ServerSpan) Context() Context {
	if p.store == nil {
		return Context{}
	}
	return Context{Txn: p.txn, Span: p.span.ID, Sampled: true}
}

func (s *Store) stage(txn ident.TxnID, sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A trace that already published gets late spans appended in place
	// (a callback can finish a hair after the commit publishes).
	if tr, ok := s.traces[txn]; ok && !tr.Partial {
		tr.Spans = append(tr.Spans, sp)
		return
	}
	if _, ok := s.staged[txn]; !ok {
		s.stagedOrder = append(s.stagedOrder, txn)
		for len(s.stagedOrder) > s.cap {
			old := s.stagedOrder[0]
			s.stagedOrder = s.stagedOrder[1:]
			delete(s.staged, old)
		}
	}
	s.staged[txn] = append(s.staged[txn], sp)
}

func (s *Store) publish(tr *Trace) {
	s.mu.Lock()
	if staged, ok := s.staged[tr.Txn]; ok {
		tr.Spans = append(tr.Spans, staged...)
		delete(s.staged, tr.Txn)
	}
	if old, ok := s.traces[tr.Txn]; ok && old.Partial {
		// Upgrade a partial (server-only) entry in place.
		tr.Spans = append(tr.Spans, old.Spans[1:]...)
	} else if !ok {
		s.order = append(s.order, tr.Txn)
		for len(s.order) > s.cap {
			evict := s.order[0]
			s.order = s.order[1:]
			delete(s.traces, evict)
		}
	}
	s.traces[tr.Txn] = tr
	s.mu.Unlock()

	if tr.Commit {
		s.observe(tr)
	}
}

// observe feeds one committed trace through the critical-path analyzer
// into the rollup histograms.
func (s *Store) observe(tr *Trace) {
	ex, total := Exclusive(tr)
	s.total.Observe(uint64(total))
	var buckets [len(Buckets)]int64
	for c := Category(0); c < catCount; c++ {
		buckets[bucketIndex(c.Bucket())] += ex[c]
	}
	for i := range buckets {
		s.byBucket[i].Observe(uint64(buckets[i]))
	}
}

// Get returns the trace for txn: a published one, or a partial trace
// synthesized from staged server-side spans (how the server tier of a
// distributed deployment answers /trace/<txnid> for transactions whose
// client publishes elsewhere).
func (s *Store) Get(txn ident.TxnID) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tr, ok := s.traces[txn]; ok {
		return tr, true
	}
	staged, ok := s.staged[txn]
	if !ok || len(staged) == 0 {
		return nil, false
	}
	// Synthesize a root that envelopes the staged spans.
	root := Span{ID: 1, Cat: CatTxn, Start: staged[0].Start, End: staged[0].End}
	for _, sp := range staged {
		if sp.Start.Before(root.Start) {
			root.Start = sp.Start
		}
		if sp.End.After(root.End) {
			root.End = sp.End
		}
	}
	tr := &Trace{Txn: txn, Partial: true, Spans: append([]Span{root}, staged...)}
	return tr, true
}

// Slowest returns up to n published traces ordered by decreasing root
// duration.
func (s *Store) Slowest(n int) []*Trace {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock()
	out := make([]*Trace, 0, len(s.traces))
	for _, tr := range s.traces {
		if !tr.Partial {
			out = append(out, tr)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Total(), out[j].Total()
		if di != dj {
			return di > dj
		}
		return out[i].Txn < out[j].Txn // deterministic tie-break
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the number of retained traces.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
}
