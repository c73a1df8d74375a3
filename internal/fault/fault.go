// Package fault provides a seeded, deterministic network fault model
// for the transports: message drops, delays, duplicate and stale
// retransmissions, partitions and forced disconnects.  Both transports
// consult an Injector — the loopback wrappers in internal/msg on every
// simulated RPC, the TCP layer in internal/netrpc on every outgoing
// frame — so the same FaultPlan exercises the protocol in-process and
// over real sockets.
//
// Determinism: every decision stream is keyed by a caller-chosen stream
// name (one per client connection), and each stream draws from its own
// PRNG seeded by hash(seed, stream).  As long as each stream issues its
// RPCs sequentially (the chaos runner drives clients one operation at a
// time), the k-th decision on a stream is identical across runs of the
// same seed and plan, so any failing schedule replays exactly from its
// seed.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clientlog/internal/obs"
	"clientlog/internal/trace"
)

// Kind classifies an injected fault (for tracing and schedule replay).
type Kind uint8

const (
	// DropRequest loses the request leg of an RPC: the callee never
	// sees the call.
	DropRequest Kind = iota + 1
	// DropReply loses the reply leg: the callee executed but the caller
	// never hears back, so a retry must not re-execute.
	DropReply
	// Duplicate delivers the request twice (wire-level retransmission).
	Duplicate
	// Replay retransmits the *previous* request of the stream out of
	// order (a stale duplicate overtaking the current message).
	Replay
	// Delay holds the message for a random duration.
	Delay
	// Disconnect kills the connection mid-RPC; the TCP transport tears
	// the socket down, the loopback transport loses the reply.
	Disconnect
	// Partition opens a window during which every message of the
	// stream is dropped.
	Partition
	// Corrupt flips bytes in the reply frame of an RPC: the payload
	// arrives but fails its checksum.  Only frame-based transports
	// (netrpc) can express this; the loopback transport ignores it.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case DropRequest:
		return "drop-request"
	case DropReply:
		return "drop-reply"
	case Duplicate:
		return "duplicate"
	case Replay:
		return "replay"
	case Delay:
		return "delay"
	case Disconnect:
		return "disconnect"
	case Partition:
		return "partition"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Plan sets the per-RPC fault probabilities.  The zero Plan injects
// nothing.
type Plan struct {
	// DropProb is the chance of losing each leg of an RPC (drawn
	// independently for the request and the reply).
	DropProb float64
	// DupProb is the chance of delivering the request twice.
	DupProb float64
	// ReplayProb is the chance of retransmitting the stream's previous
	// request before the current one.
	ReplayProb float64
	// DelayProb and MaxDelay inject a uniform [0, MaxDelay) pause.
	DelayProb float64
	MaxDelay  time.Duration
	// DisconnectProb is the chance of killing the connection mid-RPC.
	DisconnectProb float64
	// PartitionProb opens a partition window; the next PartitionLen
	// messages of the stream (including retries) are dropped.
	PartitionProb float64
	PartitionLen  int
	// CorruptProb is the chance of corrupting the reply frame of an
	// RPC (bytes flipped on the wire, caught by the frame checksum).
	// Only frame-based transports (netrpc) can express it.
	CorruptProb float64
}

// Enabled reports whether the plan can inject anything at all.
func (p Plan) Enabled() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.ReplayProb > 0 ||
		p.DelayProb > 0 || p.DisconnectProb > 0 || p.PartitionProb > 0 ||
		p.CorruptProb > 0
}

// DefaultPlan returns a moderate mix of every fault kind, tuned so the
// retry layer (see msg.Faulty) always outlasts a partition.
func DefaultPlan() Plan {
	return Plan{
		DropProb:       0.03,
		DupProb:        0.04,
		ReplayProb:     0.02,
		DelayProb:      0.05,
		MaxDelay:       200 * time.Microsecond,
		DisconnectProb: 0.01,
		PartitionProb:  0.004,
		PartitionLen:   5,
	}
}

// Decision is the injector's verdict for one RPC attempt.
type Decision struct {
	DropRequest bool
	DropReply   bool
	Duplicate   bool
	Replay      bool
	Disconnect  bool
	Delay       time.Duration
	// CorruptReply asks the transport to flip bytes in the next reply
	// frame so it fails its checksum (netrpc only).
	CorruptReply bool
}

// Faulty reports whether the decision injects anything.
func (d Decision) Faulty() bool {
	return d.DropRequest || d.DropReply || d.Duplicate || d.Replay ||
		d.Disconnect || d.Delay > 0 || d.CorruptReply
}

// stream is one deterministic decision sequence.
type stream struct {
	r             *rand.Rand
	calls         uint64
	partitionLeft int
}

// Injector hands out fault decisions.  It is safe for concurrent use;
// determinism additionally requires that each stream's decisions are
// requested in a deterministic order (sequential use per stream).
type Injector struct {
	seed    int64
	plan    Plan
	faults  atomic.Uint64
	byKind  [Corrupt + 1]obs.Counter
	enabled atomic.Bool

	mu       sync.Mutex
	streams  map[string]*stream
	schedule []string
	tracer   trace.Recorder
}

// New returns an injector whose decisions derive entirely from seed.
func New(seed int64, plan Plan) *Injector {
	in := &Injector{seed: seed, plan: plan, streams: make(map[string]*stream)}
	in.enabled.Store(true)
	return in
}

// SetTracer emits one trace event per injected fault.
func (in *Injector) SetTracer(tr trace.Recorder) {
	in.mu.Lock()
	in.tracer = tr
	in.mu.Unlock()
}

// SetEnabled pauses (false) or resumes (true) injection; the chaos
// runner disables faults while it quiesces and verifies.
func (in *Injector) SetEnabled(v bool) { in.enabled.Store(v) }

// Faults returns the number of faults injected so far.
func (in *Injector) Faults() uint64 { return in.faults.Load() }

// KindCounts returns the per-kind injected-fault counts (only kinds
// that fired appear).
func (in *Injector) KindCounts() map[Kind]uint64 {
	out := make(map[Kind]uint64)
	for k := Kind(1); k <= Corrupt; k++ {
		if n := in.byKind[k].Load(); n > 0 {
			out[k] = n
		}
	}
	return out
}

// RegisterObs binds the injector's counters into reg: faults_total
// overall plus one faults_total{kind=...} series per fault kind.
func (in *Injector) RegisterObs(reg *obs.Registry, tags ...obs.Tag) {
	if reg == nil {
		return
	}
	for k := Kind(1); k <= Corrupt; k++ {
		kt := append(append([]obs.Tag{}, tags...), obs.T("kind", k.String()))
		reg.BindCounter(&in.byKind[k], "faults_total", kt...)
	}
}

// Schedule returns the injected-fault log ("stream#call kind" lines, in
// injection order): the replayable fingerprint of a run.
func (in *Injector) Schedule() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.schedule))
	copy(out, in.schedule)
	return out
}

// splitmix64 is the standard 64-bit mixer; it turns the (seed, stream)
// pair into an independent per-stream seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func streamSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(splitmix64(h ^ uint64(seed)))
}

func (in *Injector) record(s string, calls uint64, k Kind, det string) {
	in.faults.Add(1)
	if k >= 1 && int(k) < len(in.byKind) {
		in.byKind[k].Inc()
	}
	entry := fmt.Sprintf("%s#%d %s", s, calls, k)
	in.mu.Lock()
	in.schedule = append(in.schedule, entry)
	tr := in.tracer
	in.mu.Unlock()
	if tr != nil {
		tr.Record(trace.FaultInject, 0, 0, entry+det)
	}
}

// Next draws the fault decision for the stream's next RPC attempt.
func (in *Injector) Next(name string) Decision {
	if in == nil || !in.enabled.Load() || !in.plan.Enabled() {
		return Decision{}
	}
	in.mu.Lock()
	s := in.streams[name]
	if s == nil {
		s = &stream{r: rand.New(rand.NewSource(streamSeed(in.seed, name)))}
		in.streams[name] = s
	}
	s.calls++
	calls := s.calls
	if s.partitionLeft > 0 {
		s.partitionLeft--
		in.mu.Unlock()
		in.record(name, calls, Partition, " (window)")
		return Decision{DropRequest: true}
	}
	p := in.plan
	var d Decision
	var kinds []Kind
	if p.PartitionProb > 0 && s.r.Float64() < p.PartitionProb {
		n := p.PartitionLen
		if n < 1 {
			n = 1
		}
		s.partitionLeft = n - 1
		d.DropRequest = true
		kinds = append(kinds, Partition)
	}
	if !d.DropRequest && s.r.Float64() < p.DropProb {
		d.DropRequest = true
		kinds = append(kinds, DropRequest)
	}
	if s.r.Float64() < p.DropProb {
		d.DropReply = true
		kinds = append(kinds, DropReply)
	}
	if s.r.Float64() < p.DupProb {
		d.Duplicate = true
		kinds = append(kinds, Duplicate)
	}
	if s.r.Float64() < p.ReplayProb {
		d.Replay = true
		kinds = append(kinds, Replay)
	}
	if p.DelayProb > 0 && s.r.Float64() < p.DelayProb && p.MaxDelay > 0 {
		d.Delay = time.Duration(s.r.Int63n(int64(p.MaxDelay)))
		kinds = append(kinds, Delay)
	}
	if s.r.Float64() < p.DisconnectProb {
		d.Disconnect = true
		kinds = append(kinds, Disconnect)
	}
	// Drawn only when the plan enables corruption, so existing seeded
	// plans keep their exact decision sequences.
	if p.CorruptProb > 0 && s.r.Float64() < p.CorruptProb {
		d.CorruptReply = true
		kinds = append(kinds, Corrupt)
	}
	in.mu.Unlock()
	for _, k := range kinds {
		in.record(name, calls, k, "")
	}
	return d
}
