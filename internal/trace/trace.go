// Package trace provides lightweight structured tracing of protocol
// events: lock callbacks, page ships and merges, replacement records,
// recovery steps.  Engines record into a Recorder; the default is a
// no-op, tests and the cmd tools install a bounded ring to assert on or
// display protocol sequences.
package trace

import (
	"fmt"
	"sync"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// Kind classifies an event.
type Kind int

const (
	// LockGrant: the GLM granted a lock.
	LockGrant Kind = iota + 1
	// CallbackSent: the server asked a client to give up an object lock.
	CallbackSent
	// DeescSent: the server asked a client to de-escalate a page lock.
	DeescSent
	// PageShip: a client sent a page to the server.
	PageShip
	// PageMerge: the server (or a client) merged two copies of a page.
	PageMerge
	// PageForce: the server wrote a page in place (after its
	// replacement record).
	PageForce
	// Replacement: the server forced a replacement log record.
	Replacement
	// FlushNotify: the server told a client its replaced page is on
	// disk.
	FlushNotify
	// RecoveryStep: a restart-recovery milestone.
	RecoveryStep
	// LogSpace: a §3.6 log-space action (log full, force request).
	LogSpace
	// FaultInject: the fault-injection layer dropped, delayed,
	// duplicated or replayed a message (see internal/fault).
	FaultInject
)

func (k Kind) String() string {
	switch k {
	case LockGrant:
		return "lock-grant"
	case CallbackSent:
		return "callback"
	case DeescSent:
		return "deescalate"
	case PageShip:
		return "ship"
	case PageMerge:
		return "merge"
	case PageForce:
		return "force"
	case Replacement:
		return "replacement"
	case FlushNotify:
		return "flush-notify"
	case RecoveryStep:
		return "recovery"
	case LogSpace:
		return "log-space"
	case FaultInject:
		return "fault"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded protocol event.
type Event struct {
	Seq    uint64
	Kind   Kind
	Client ident.ClientID // the client the event concerns (0 = server)
	Page   page.ID        // the page involved (0 = none)
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s client=%v page=%d %s", e.Seq, e.Kind, e.Client, e.Page, e.Detail)
}

// Recorder receives events.  Implementations must be safe for
// concurrent use.
type Recorder interface {
	Record(kind Kind, client ident.ClientID, pg page.ID, detail string)
}

// Nop discards events.
type Nop struct{}

// Record implements Recorder.
func (Nop) Record(Kind, ident.ClientID, page.ID, string) {}

// Ring is a bounded in-memory Recorder keeping the most recent events.
// Sequence numbers are assigned under the same lock that places the
// event in the buffer, so buffer order and Seq order always agree.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
}

// NewRing returns a ring holding up to n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1024
	}
	return &Ring{buf: make([]Event, n)}
}

// Record implements Recorder.
func (r *Ring) Record(kind Kind, client ident.ClientID, pg page.ID, detail string) {
	r.mu.Lock()
	r.seq++
	r.buf[r.next] = Event{Seq: r.seq, Kind: kind, Client: client, Page: pg, Detail: detail}
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the recorded events in order.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	// Drop zero events (ring not yet full).
	res := out[:0]
	for _, e := range out {
		if e.Seq != 0 {
			res = append(res, e)
		}
	}
	return res
}

// Count returns how many recorded events match the kind (and page, when
// pg != 0).
func (r *Ring) Count(kind Kind, pg page.ID) int {
	n := 0
	for _, e := range r.Snapshot() {
		if e.Kind == kind && (pg == 0 || e.Page == pg) {
			n++
		}
	}
	return n
}

// Reset clears the ring.
func (r *Ring) Reset() {
	r.mu.Lock()
	for i := range r.buf {
		r.buf[i] = Event{}
	}
	r.next = 0
	r.full = false
	r.mu.Unlock()
}
