package core

import (
	"fmt"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/trace"
)

// The server's side of the §3.2 callback conversation, one per holder
// and lock name at a time (DESIGN §6 item 7).  step is its transition
// function, Server.apply the one place its actions run, and Server.run
// the one goroutine a conversation gets.

// convKey names a conversation.  A page name always means a
// de-escalation: the GLM asks object callbacks for object names only.
type convKey struct {
	holder ident.ClientID
	name   lock.Name
}

// convState is a conversation's state: idle (no entry), asked or busy,
// either with the absorbed mark or without.
type convState uint8

const (
	convAsked    convState = 1 << iota // the first phase is out, or its answer is being applied
	convBusy                           // the holder answered busy; the waiting phase is out
	convAbsorbed                       // another request issued the callback while it ran
	convIdle     convState = 0         // no callback in flight
)

type convEvent uint8

const (
	convIssue     convEvent = iota // the GLM asks for the callback
	convBusyReply                  // the holder answered the first phase busy
	convSettled                    // the conversation ended, the holder's lock given up as asked (or already)
	convUnsettled                  // it ended with the holder's lock unchanged
)

// convAction is a set of things Server.apply does for a transition.
type convAction uint8

const (
	convSend convAction = 1 << iota // start the conversation's goroutine
	convEdge                        // the requester's wait on the holder is real (GLM.HolderBusy)
	convWake                        // the page's waiters re-examine the table and re-issue (GLM.Wake)
)

// step is the conversation's transition function.  It takes no mutex
// and does no I/O.
func step(st convState, ev convEvent) (convState, convAction) {
	switch {
	case ev == convIssue && st == convIdle:
		return convAsked, convSend
	case ev == convIssue && st&convBusy != 0:
		// Absorbed, and the holder answered busy: this requester's wait
		// on it is real as well.
		return st | convAbsorbed, convEdge
	case ev == convIssue:
		return st | convAbsorbed, 0
	case ev == convBusyReply && st != convIdle:
		// The page's other waiters wake to re-issue the copies this
		// conversation absorbed, so their edges become real too.
		return st&convAbsorbed | convBusy, convEdge | convWake
	case ev == convBusyReply:
		return st, 0 // only a running conversation hears an answer
	case st&convAbsorbed != 0 || ev == convUnsettled:
		// The end.  An unsettled one woke no waiter, and the GLM
		// re-issues callbacks only when woken.  A settled one woke the
		// waiters of its moment, not those whose copies it absorbed
		// later (the holder re-acquired the lock meanwhile).
		return convIdle, convWake
	}
	return convIdle, 0
}

// apply runs ev through step for conversation k on requester's behalf
// and carries out the actions under convMu.  over reports that the edge
// it made real doomed requester, or that the GLM stopped: either way its
// wait is over.
func (s *Server) apply(k convKey, requester ident.ClientID, ev convEvent) (acts convAction, over bool) {
	s.convMu.Lock()
	defer s.convMu.Unlock()
	st, acts := step(s.convs[k], ev)
	if st == convIdle {
		delete(s.convs, k)
	} else {
		s.convs[k] = st
	}
	if acts&convWake != 0 {
		s.glm.Wake(k.name.Page)
	}
	if acts&convEdge != 0 {
		over = s.glm.HolderBusy(requester, k.holder, k.name.Page)
	}
	return acts, over
}

// serverCallbacker implements lock.Callbacker.  The GLM calls it with
// no shard mutex held, and the issue event runs at once.  Only a new
// conversation starts a goroutine: its waiting phase lasts until the
// holder's transactions end, and the requester's own goroutine must
// take its doom or timeout meanwhile.
type serverCallbacker struct{ s *Server }

// CallbackObject implements lock.Callbacker; DeescalatePage calls it
// with the page's name.
func (cb serverCallbacker) CallbackObject(holder, requester ident.ClientID, name lock.Name, wanted lock.Mode) {
	k := convKey{holder, name}
	if acts, _ := cb.s.apply(k, requester, convIssue); acts&convSend != 0 {
		go cb.s.run(k, requester, wanted)
	}
}

// DeescalatePage implements lock.Callbacker.
func (cb serverCallbacker) DeescalatePage(holder, requester ident.ClientID, pg page.ID, wanted lock.Mode) {
	cb.CallbackObject(holder, requester, lock.PageName(pg), wanted)
}

// run is conversation k's goroutine: it converses, then ends, waking
// a force that may wait for its answer's copy (Server.Force).
func (s *Server) run(k convKey, requester ident.ClientID, wanted lock.Mode) {
	ev := convUnsettled
	if s.converse(k, requester, wanted) {
		ev = convSettled
	}
	s.apply(k, requester, ev)
	sh := s.shardOf(k.name.Page)
	sh.mu.Lock()
	sh.landing.Broadcast()
	sh.mu.Unlock()
}

// conversing reports whether a conversation with holder c about page
// pid is in flight: its answer may carry c's copy of the page.
func (s *Server) conversing(c ident.ClientID, pid page.ID) bool {
	s.convMu.Lock()
	defer s.convMu.Unlock()
	for k := range s.convs {
		if k.holder == c && k.name.Page == pid {
			return true
		}
	}
	return false
}

// asker counts and traces conversation k and returns the function that
// asks the holder, waiting for its transactions when wait is set, with
// the span both phases run under.  It is the one place that tells an
// object callback from a de-escalation; both answer as the holder's
// Client.answerCallback does.
func (s *Server) asker(conn msg.Client, k convKey, requester ident.ClientID, wanted lock.Mode) (func(wait bool) (msg.CallbackReply, []lock.ObjLock, error), span.ServerSpan) {
	s.traceMu.Lock()
	ctx := s.lockTraces[requester]
	s.traceMu.Unlock()
	if k.name.IsPage {
		s.Metrics.Deescalations.Add(1)
		if s.tracing {
			s.tracer.Record(trace.DeescSent, k.holder, k.name.Page, fmt.Sprintf("wanted=%v for=%v", wanted, requester))
		}
		return func(wait bool) (msg.CallbackReply, []lock.ObjLock, error) {
			r, err := conn.DeescalatePage(msg.DeescReq{Requester: requester, Page: k.name.Page, Wanted: wanted, Wait: wait})
			return msg.CallbackReply{Image: r.Image, HadPage: r.HadPage, Busy: r.Busy, Carried: r.Carried}, r.Objs, err
		}, s.startSpan(ctx, span.CatDeesc, k.name)
	}
	s.Metrics.CallbacksSent.Add(1)
	if s.tracing {
		s.tracer.Record(trace.CallbackSent, k.holder, k.name.Page, fmt.Sprintf("obj=%v wanted=%v for=%v", k.name, wanted, requester))
	}
	return func(wait bool) (msg.CallbackReply, []lock.ObjLock, error) {
		r, err := conn.CallbackObject(msg.CallbackReq{Requester: requester, Object: k.name, Wanted: wanted, Wait: wait})
		return r, nil, err
	}, s.startSpan(ctx, span.CatCallback, k.name)
}

// converse runs conversation k for requester in up to two phases and
// reports whether it settled.  The first phase asks without waiting; a
// holder whose local transactions use the name answers busy, which
// makes the requester's wait real in the GLM's waits-for graph, and the
// second asks again and waits for them.  An answer that names the
// holder's lock request carrying the page's updates or releases waits
// here until that request has landed them, and then the GLM is looked
// at again: a carried release may have given the lock up.  The answer's
// page merges into the server's copy, and the answer settles in the
// GLM.
func (s *Server) converse(k convKey, requester ident.ClientID, wanted lock.Mode) bool {
	if m := s.glm.Holding(k.holder, k.name); m == lock.None || lock.Compatible(m, wanted) {
		// The holder gave the lock up after the requester looked (a
		// conversation that ended meanwhile): nothing to ask for.
		return true
	}
	conn := s.conn(k.holder)
	if conn == nil {
		// The holder is gone without crashing (clean disconnect races);
		// release its lock so the requester makes progress.
		s.glm.Release(k.holder, k.name)
		return true
	}
	ask, sp := s.asker(conn, k, requester, wanted)
	seq := s.glm.GrantSeq(k.holder, k.name)
	r, objs, err := ask(false)
	if err == nil && r.Busy {
		if _, over := s.apply(k, requester, convBusyReply); !over {
			seq = s.glm.GrantSeq(k.holder, k.name)
			r, objs, err = ask(true)
		}
	}
	sp.End()
	if err != nil || r.Busy {
		return false // holder crashed mid-callback (§3.3 handling takes over), or the wait is over
	}
	if r.Carried != 0 {
		s.Metrics.CarryWaits.Add(1)
		if !s.awaitLanded(k.holder, k.name.Page, r.Carried) {
			return false
		}
		if m := s.glm.Holding(k.holder, k.name); m == lock.None || lock.Compatible(m, wanted) {
			return true
		}
	}
	sh := s.shardOf(k.name.Page)
	sh.mu.Lock()
	var psn page.PSN
	if r.HadPage {
		if p := new(page.Page); p.UnmarshalBinary(r.Image) == nil {
			psn = p.PSN()
			if s.receiveShard(sh, k.holder, p, msg.ShipCallback) != nil {
				sh.mu.Unlock()
				return false
			}
		}
	} else if e, ok := sh.dct[dctKey{pg: k.name.Page, c: k.holder}]; ok {
		psn = e.psn
	}
	// §3.1: the requester of an exclusive lock writes a callback log
	// record containing the responder and the PSN the page had when the
	// responder sent it to the server.  When the responder had no page
	// to ship, its updates were shipped earlier and the DCT remembers
	// their PSN.  The origin waits with the page for the next exclusive
	// grant of the object, whoever it goes to, as an eviction release's
	// does, and supersedes one that release left.
	if !k.name.IsPage && wanted == lock.X {
		sh.keepOrigin(msg.CallbackOrigin{Object: k.name.Object(), Responder: k.holder, PSN: psn})
	}
	sh.mu.Unlock()
	s.evict()
	switch {
	case k.name.IsPage:
		return s.glm.Settle(k.holder, k.name, seq, lock.Deescalated, objs)
	case r.Released:
		return s.glm.Settle(k.holder, k.name, seq, lock.Released, nil)
	case r.Downgraded:
		return s.glm.Settle(k.holder, k.name, seq, lock.Downgraded, nil)
	}
	return false
}
