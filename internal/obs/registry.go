package obs

import (
	"io"
	"sort"
	"strings"
	"sync"
)

// Tag is one key=value label on a series.  The repo-wide tag scheme:
// scope=server|client:<id> says which engine updates the series,
// scheme=paper|page-lock|token|ship-log|ship-pages labels the
// configuration under test, msg=<call> names a protocol message type,
// and lockmode/level/kind discriminate within a family.
type Tag struct {
	K, V string
}

// T builds a Tag.
func T(k, v string) Tag { return Tag{K: k, V: v} }

type seriesKind uint8

const (
	kindCounter seriesKind = iota + 1
	kindHist
)

// series is one named+tagged time series.  Counters and histograms keep
// a slice of sources whose values sum on read: a restarted engine binds
// a fresh zero counter to the same series and the series total stays
// monotone across the restart (the old engine's counts remain, the new
// engine's add on top).
type series struct {
	name string // sanitized family name
	tags []Tag  // sorted by key
	kind seriesKind

	counters []*Counter
	hists    []*Histogram
}

func (s *series) counterValue() uint64 {
	var t uint64
	for _, c := range s.counters {
		t += c.Load()
	}
	return t
}

func (s *series) histView() HistView {
	var v HistView
	for _, h := range s.hists {
		v = v.Merge(h.View())
	}
	return v
}

// Registry holds tagged metric series.  Registration and snapshotting
// take a lock; the returned Counter/Histogram handles are held by
// the instrumentation points, so the hot update paths never touch the
// registry.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	order  []string

	pmu     sync.Mutex
	pending []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// sanitizeName maps a metric family name into the Prometheus alphabet
// [a-zA-Z0-9_:].
func sanitizeName(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func escapeTagValue(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderKey builds the canonical series id: name{k="v",...} with tags
// sorted by key, or the bare name when untagged.  Registration happens
// on every fresh cluster (benchmarks build thousands), so this stays a
// single allocation.
func renderKey(name string, tags []Tag) string {
	if len(tags) == 0 {
		return name
	}
	n := len(name) + 2
	for _, t := range tags {
		n += len(t.K) + len(t.V) + 4
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i, t := range tags {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeName(t.K))
		b.WriteString(`="`)
		b.WriteString(escapeTagValue(t.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// normTags returns tags sorted by key.  The input is a fresh variadic
// slice owned by the registry call, so an already-sorted slice (the
// overwhelmingly common zero- and one-tag cases included) is returned
// as is.
func normTags(tags []Tag) []Tag {
	if len(tags) == 0 {
		return nil
	}
	inOrder := true
	for i := 1; i < len(tags); i++ {
		if tags[i].K < tags[i-1].K {
			inOrder = false
			break
		}
	}
	if inOrder {
		return tags
	}
	out := make([]Tag, len(tags))
	copy(out, tags)
	sort.SliceStable(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// get returns the series for (name, tags), creating it with kind k if
// absent.  Called with r.mu held.
func (r *Registry) get(name string, k seriesKind, tags []Tag) *series {
	name = sanitizeName(name)
	tags = normTags(tags)
	key := renderKey(name, tags)
	s := r.series[key]
	if s == nil {
		s = &series{name: name, tags: tags, kind: k}
		r.series[key] = s
		r.order = append(r.order, key)
	}
	return s
}

// Counter returns the counter registered under (name, tags), creating
// one if needed.  Repeated calls return the same counter.
func (r *Registry) Counter(name string, tags ...Tag) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, kindCounter, tags)
	if len(s.counters) == 0 {
		s.counters = append(s.counters, &Counter{})
	}
	return s.counters[0]
}

// BindCounter attaches an existing counter to (name, tags).  Binding a
// second counter to the same series sums the sources on read: engines
// that restart bind their fresh metrics to the same series and the
// series stays monotone.
func (r *Registry) BindCounter(c *Counter, name string, tags ...Tag) {
	if c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, kindCounter, tags)
	for _, have := range s.counters {
		if have == c {
			return
		}
	}
	s.counters = append(s.counters, c)
}

// Histogram returns the histogram registered under (name, tags),
// creating one if needed.
func (r *Registry) Histogram(name string, tags ...Tag) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, kindHist, tags)
	if len(s.hists) == 0 {
		s.hists = append(s.hists, &Histogram{})
	}
	return s.hists[0]
}

// BindHistogram attaches an existing histogram to (name, tags); like
// BindCounter, multiple sources sum on read.
func (r *Registry) BindHistogram(h *Histogram, name string, tags ...Tag) {
	if h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, kindHist, tags)
	for _, have := range s.hists {
		if have == h {
			return
		}
	}
	s.hists = append(s.hists, h)
}

// Lazy defers f — typically a closure over an engine's RegisterObs —
// until the registry is actually read (Snapshot or WritePrometheus).
// Engines come and go constantly in benchmarks and the torture tests;
// deferring the series registration means a run that never scrapes the
// registry never pays for building it.
func (r *Registry) Lazy(f func()) {
	r.pmu.Lock()
	r.pending = append(r.pending, f)
	r.pmu.Unlock()
}

// materialize runs the deferred registrations.  Called without r.mu
// held (the closures take it themselves); loops because a registration
// may enqueue more.
func (r *Registry) materialize() {
	for {
		r.pmu.Lock()
		fs := r.pending
		r.pending = nil
		r.pmu.Unlock()
		if len(fs) == 0 {
			return
		}
		for _, f := range fs {
			f()
		}
	}
}

// TotalCounter sums every counter series of the family directly,
// without materializing a Snapshot.  Read paths that want one number
// (msg.Stats.Messages, the sim harness after every run) use this to
// stay cheap.  It deliberately skips the Lazy registrations: the series
// it serves (the msg_* families) are created eagerly on first use, and
// skipping keeps per-run reads from paying the full engine-bind cost.
func (r *Registry) TotalCounter(family string) uint64 {
	family = sanitizeName(family)
	var t uint64
	r.mu.RLock()
	defer r.mu.RUnlock()
	for key, s := range r.series {
		if s.kind == kindCounter && familyOf(key) == family {
			t += s.counterValue()
		}
	}
	return t
}

// Snapshot is a point-in-time copy of every series, keyed by the
// canonical series id (name{k="v",...}).
type Snapshot struct {
	Counters map[string]uint64
	Hists    map[string]HistView
}

// Snapshot captures the current value of every series, materializing
// any deferred registrations first.
func (r *Registry) Snapshot() Snapshot {
	r.materialize()
	snap := Snapshot{
		Counters: make(map[string]uint64),
		Hists:    make(map[string]HistView),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for key, s := range r.series {
		switch s.kind {
		case kindCounter:
			snap.Counters[key] = s.counterValue()
		case kindHist:
			snap.Hists[key] = s.histView()
		}
	}
	return snap
}

// Delta returns the change since prev: counters and histograms
// subtract (series absent from prev count from zero).  Experiments
// bracket a run with two snapshots and report the delta.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Hists:    make(map[string]HistView, len(s.Hists)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Hists {
		out.Hists[k] = v.Sub(prev.Hists[k])
	}
	return out
}

// familyOf extracts the family name from a series id.
func familyOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// Total sums every counter series of the family (e.g.
// Total("msg_messages_total") across all msg= tags).
func (s Snapshot) Total(family string) uint64 {
	family = sanitizeName(family)
	var t uint64
	for k, v := range s.Counters {
		if familyOf(k) == family {
			t += v
		}
	}
	return t
}

// Hist merges every histogram series of the family into one view.
func (s Snapshot) Hist(family string) HistView {
	family = sanitizeName(family)
	var out HistView
	for k, v := range s.Hists {
		if familyOf(k) == family {
			out = out.Merge(v)
		}
	}
	return out
}

// WritePrometheus renders every series in the Prometheus text
// exposition format (version 0.0.4), sorted by series id with one
// TYPE line per family: its snapshot's rendering.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}
