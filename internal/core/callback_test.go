package core

import (
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
)

// callbackNow runs a conversation on the caller's goroutine: the issue
// event, and the conversation itself if the issue starts one.
func callbackNow(s *Server, holder, requester ident.ClientID, name lock.Name, wanted lock.Mode) {
	k := convKey{holder, name}
	if acts, _ := s.apply(k, requester, convIssue); acts&convSend != 0 {
		s.run(k, requester, wanted)
	}
}

// TestCallbackConvTable pins step on every (state, event) pair.  The
// rows were derived from the in-flight helpers the conversation table
// replaced (beginInflight, holderBusy, endInflight and endCallback);
// each comment names the behaviour a row keeps.
func TestCallbackConvTable(t *testing.T) {
	const (
		idle     = convIdle
		asked    = convAsked
		askedAbs = convAsked | convAbsorbed
		busy     = convBusy
		busyAbs  = convBusy | convAbsorbed
	)
	evNames := [...]string{"issue", "busy", "settled", "unsettled"}
	stateString := func(st convState) string {
		return map[convState]string{idle: "idle", asked: "asked", askedAbs: "asked+absorbed", busy: "busy", busyAbs: "busy+absorbed"}[st]
	}
	rows := []struct {
		from convState
		ev   convEvent
		to   convState
		acts convAction
	}{
		// An issue on an idle key claims it and starts the one callback
		// (beginInflight reported the key free; go runObjectCallback).
		{idle, convIssue, asked, convSend},
		// Finding: a busy answer on an idle key had no answer in the
		// in-flight helpers.  Only the conversation's own goroutine hears
		// answers, and it holds the key until its end, so holderBusy never
		// met an absent key (had it, it would have stored a busy entry
		// nobody deletes).  step changes nothing.
		{idle, convBusyReply, idle, 0},
		// An end on an idle key: endInflight found nothing absorbed, and
		// endCallback woke the page only for an unsettled end.  Unreached:
		// Server.run ends only conversations it claimed.
		{idle, convSettled, idle, 0},
		{idle, convUnsettled, idle, convWake},

		// An issue on a running key is absorbed (beginInflight marked it
		// and started nothing); before a busy answer no edge is real.
		{asked, convIssue, askedAbs, 0},
		{askedAbs, convIssue, askedAbs, 0},
		// A busy answer marks the key busy, wakes the page so the copies
		// it absorbed are re-issued, and makes the requester's edge real
		// (holderBusy: Wake, then HolderBusy).
		{asked, convBusyReply, busy, convEdge | convWake},
		{askedAbs, convBusyReply, busyAbs, convEdge | convWake},
		// A settled end with nothing absorbed wakes no one: the GLM's
		// Settle woke the waiters of its moment (endCallback).
		{asked, convSettled, idle, 0},
		{busy, convSettled, idle, 0},
		// A settled end that absorbed a copy wakes the page: the holder
		// re-acquired the lock after the settle (endCallback, ROADMAP
		// item 1(a), TestAbsorbedCallbackLostWakeup).
		{askedAbs, convSettled, idle, convWake},
		{busyAbs, convSettled, idle, convWake},
		// An unsettled end — an error, a refused merge, an answer Settle
		// dropped, a doomed requester — woke no waiter, so it wakes the
		// page (endCallback).
		{asked, convUnsettled, idle, convWake},
		{askedAbs, convUnsettled, idle, convWake},
		{busy, convUnsettled, idle, convWake},
		{busyAbs, convUnsettled, idle, convWake},

		// An issue on a key whose holder answered busy is absorbed, and
		// the new requester's edge is real at once (beginInflight called
		// HolderBusy for a busy key).
		{busy, convIssue, busyAbs, convEdge},
		{busyAbs, convIssue, busyAbs, convEdge},
		// A second busy answer keeps the key busy and acts as the first
		// did (holderBusy on a busy key).  converse never feeds it: a
		// busy flag on the waiting phase's reply ends the conversation
		// unsettled.
		{busy, convBusyReply, busy, convEdge | convWake},
		{busyAbs, convBusyReply, busyAbs, convEdge | convWake},
	}
	seen := make(map[[2]any]bool)
	for _, r := range rows {
		seen[[2]any{r.from, r.ev}] = true
		to, acts := step(r.from, r.ev)
		if to != r.to || acts != r.acts {
			t.Errorf("step(%s, %s) = %s, %03b; want %s, %03b", stateString(r.from), evNames[r.ev],
				stateString(to), acts, stateString(r.to), r.acts)
		}
		// One goroutine per conversation: only an idle key sends.
		if acts&convSend != 0 && r.from != convIdle {
			t.Errorf("step(%s, %s) starts a second goroutine", stateString(r.from), evNames[r.ev])
		}
	}
	for _, st := range []convState{idle, asked, askedAbs, busy, busyAbs} {
		for ev := range convEvent(len(evNames)) {
			if !seen[[2]any{st, ev}] {
				t.Errorf("no row for (%s, %s)", stateString(st), evNames[ev])
			}
		}
	}
}
