package msg

import (
	"sync"
	"time"

	"clientlog/internal/obs"
)

// Stats counts protocol traffic.  The loopback transport updates it; the
// experiments in EXPERIMENTS.md report messages and bytes per commit for
// the different schemes (the paper argues its protocol sends strictly
// fewer synchronization messages than the update-token approach and no
// commit-time shipments at all).
//
// Stats is a façade over an obs.Registry: every count lives in the
// msg_messages_total{msg=...} and msg_bytes_total{msg=...} series, so
// /metrics and Stats report from the same source.  The per-method
// counter handles are cached here, indexed by Method, so the hot path is
// two sharded counter adds, not a registry lookup.
type Stats struct {
	reg *obs.Registry

	mu     sync.RWMutex
	series [NumMethods]*statsPair
}

// statsPair holds one method's counter handles.
type statsPair struct {
	msgs  *obs.Counter
	bytes *obs.Counter
}

// NewStats returns zeroed counters backed by a private registry.
func NewStats() *Stats { return NewStatsIn(obs.NewRegistry()) }

// NewStatsIn returns counters that live in reg, so the same numbers
// surface on the registry's /metrics exposition.
func NewStatsIn(reg *obs.Registry) *Stats {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Stats{reg: reg}
}

func (s *Stats) pair(m Method) *statsPair {
	s.mu.RLock()
	p := s.series[m]
	s.mu.RUnlock()
	if p != nil {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p = s.series[m]; p == nil {
		p = &statsPair{
			msgs:  s.reg.Counter("msg_messages_total", obs.T("msg", m.String())),
			bytes: s.reg.Counter("msg_bytes_total", obs.T("msg", m.String())),
		}
		s.series[m] = p
	}
	return p
}

func (s *Stats) add(m Method, msgs int, bytes int) {
	if s == nil {
		return
	}
	p := s.pair(m)
	p.msgs.Add(uint64(msgs))
	p.bytes.Add(uint64(bytes))
}

// Messages returns the total message count (requests and replies).
func (s *Stats) Messages() uint64 {
	return s.reg.TotalCounter("msg_messages_total")
}

// Bytes returns the approximate total bytes on the wire.
func (s *Stats) Bytes() uint64 {
	return s.reg.TotalCounter("msg_bytes_total")
}

// ByName returns a copy of the per-method message counts, keyed by
// Method.String.
func (s *Stats) ByName() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64)
	for m, p := range s.series {
		if p != nil {
			out[Method(m).String()] = p.msgs.Load()
		}
	}
	return out
}

// msgOverhead approximates the framing + fixed-field bytes of one
// message.
const msgOverhead = 64

// Loopback is the in-process transport as middleware: it charges each
// call with transport latency and records its traffic in Stats — two
// messages per call, one for a notification, with the method table
// pricing the payload.  A zero Latency makes calls direct; a nil Stats
// counts nothing.
type Loopback struct {
	Next    Caller
	Latency time.Duration // one-way; a two-way call costs twice this
	Stats   *Stats
}

// Call implements Caller.
func (l *Loopback) Call(m Method, req any) (any, error) {
	if m.OneWay() {
		if l.Latency > 0 {
			time.Sleep(l.Latency)
		}
		l.Stats.add(m, 1, msgOverhead)
		l.Next.Call(m, req) //nolint:errcheck // a notification has no answer
		return nil, nil
	}
	if l.Latency > 0 {
		time.Sleep(2 * l.Latency)
	}
	reply, err := l.Next.Call(m, req)
	bytes := 2 * msgOverhead
	if price := methods[m].payload; price != nil {
		bytes += price(req, reply)
	}
	l.Stats.add(m, 2, bytes)
	return reply, err
}
