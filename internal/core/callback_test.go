package core

import (
	"reflect"
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/page"
	"clientlog/internal/wal"
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

// cachedPSN returns the PSN of c's cached copy of pid.
func cachedPSN(t *testing.T, c *Client, pid page.ID) page.PSN {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pool.Get(pid)
	if !ok {
		t.Fatalf("%v does not cache page %d", c, pid)
	}
	return p.PSN()
}

// writeChecked overwrites o in one of c's transactions and runs check
// before the commit, whose reclaim may take the callback records that
// precede the page's RedoLSN.
func writeChecked(t *testing.T, c *Client, o page.ObjectID, tag byte, check func()) {
	t.Helper()
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := overwriteNow(txn, o, val(tag)); err != nil {
		t.Fatal(err)
	}
	check()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCallbackOriginFollowsTheObject: the §3.1 origin of an exclusive
// callback's answer waits with the object, not with the requester.  A
// settled conversation takes c1's X lock for c2, which never asks for
// the object; c3's write of it then carries the one origin {object, c1,
// PSN} in its grant and log, and c2's next grant, on another page,
// carries none.  The requester of a real callback writes exactly the
// one record its answer gives.
func TestCallbackOriginFollowsTheObject(t *testing.T) {
	cfg := testConfig()
	cfg.Granularity = GranObject
	cl, ids, cs := seededCluster(t, cfg, 2, 3)
	defer cl.Close()
	c1, c2, c3 := cs[0], cs[1], cs[2]
	s := cl.Server()
	o := page.ObjectID{Page: ids[0], Slot: 4}
	mustDone(t, writeTxn(c1, '1', o), "c1's write")
	psn1 := cachedPSN(t, c1, o.Page)
	callbackNow(s, c1.ID(), c2.ID(), lock.ObjName(o), lock.X)
	if m := s.GLM().Holding(c1.ID(), lock.ObjName(o)); m != lock.None {
		t.Fatalf("c1 holds %v after the settled conversation, want nothing", m)
	}

	writeChecked(t, c3, o, '3', func() {
		want := []wal.Callback{{Object: o, Responder: c1.ID(), PSN: psn1}}
		if n := c3.Metrics.CallbackRecords.Load(); n != 1 {
			t.Fatalf("c3's grant carried %d origins, want 1", n)
		}
		if got := callbackRecords(t, c3); !reflect.DeepEqual(got, want) {
			t.Fatalf("c3 logged %v, want %v", got, want)
		}
	})
	writeChecked(t, c2, page.ObjectID{Page: ids[1], Slot: 4}, '2', func() {
		if got := callbackRecords(t, c2); len(got) != 0 || c2.Metrics.CallbackRecords.Load() != 0 {
			t.Fatalf("c2 logged %v, want no callback record", got)
		}
	})

	// A real callback: c1's write calls c3 back, and c1 logs its answer.
	psn3 := cachedPSN(t, c3, o.Page)
	sent := s.Metrics.CallbacksSent.Load()
	writeChecked(t, c1, o, '4', func() {
		if s.Metrics.CallbacksSent.Load() == sent {
			t.Fatal("c1's write sent no callback")
		}
		want := []wal.Callback{{Object: o, Responder: c3.ID(), PSN: psn3}}
		if got := callbackRecords(t, c1); !reflect.DeepEqual(got, want) {
			t.Fatalf("c1 logged %v, want %v", got, want)
		}
	})
}
