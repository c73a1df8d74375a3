package core

import (
	"sync"
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// noteLog records, per client, the flush notes its lock and
// lock-batch replies carried.
type noteLog struct {
	mu    sync.Mutex
	notes map[ident.ClientID][]msg.FlushedNote
}

func (l *noteLog) record(c ident.ClientID, notes []msg.FlushedNote) {
	l.mu.Lock()
	l.notes[c] = append(l.notes[c], notes...)
	l.mu.Unlock()
}

func (l *noteLog) of(c ident.ClientID) []msg.FlushedNote {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]msg.FlushedNote(nil), l.notes[c]...)
}

// noteTap is a client's view of a server that records in log the
// flush notes each lock and lock-batch reply carries.
type noteTap struct {
	msg.Server
	log *noteLog
}

func (n noteTap) Lock(req msg.LockReq) (msg.LockReply, error) {
	reply, err := n.Server.Lock(req)
	n.log.record(req.Client, reply.Flushed)
	return reply, err
}

func (n noteTap) LockBatch(req msg.LockBatchReq) (msg.LockBatchReply, error) {
	reply, err := n.Server.LockBatch(req)
	n.log.record(req.Client, reply.Flushed)
	return reply, err
}

// tappedCluster is seededCluster with every client's server conn
// wrapped in a noteTap; all of them record in the log it returns.
func tappedCluster(t *testing.T, nPages, nClients int) (*Cluster, []page.ID, []*Client, *noteLog) {
	t.Helper()
	cl := NewCluster(testConfig())
	log := &noteLog{notes: make(map[ident.ClientID][]msg.FlushedNote)}
	cl.WrapConns(func(_, _ int, conn msg.Server) msg.Server {
		return noteTap{Server: conn, log: log}
	}, nil)
	ids, err := cl.SeedPages(nPages, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		if clients[i], err = cl.AddClient(); err != nil {
			t.Fatal(err)
		}
	}
	return cl, ids, clients, log
}

// writeAndReplace commits one write to pid and ships the page back to
// the server (a replacement carrier), returning the shipped PSN.
func writeAndReplace(t *testing.T, c *Client, pid page.ID, tag byte) page.PSN {
	t.Helper()
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: 0}, val(tag)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplacePage(pid); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.dpt[pid]
	if !ok {
		t.Fatalf("%v: no DPT entry for page %d after its ship", c, pid)
	}
	return e.lastShipPSN
}

// writePage forces pid to disk as the server's own writer does, so the
// flush notes it queues wait for their clients.
func writePage(t *testing.T, s *Server, pid page.ID) {
	t.Helper()
	sh := s.shardOf(pid)
	sh.mu.Lock()
	_, err := s.forcePageShard(sh, pid)
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// pendingNotes returns the flush notes the server keeps for c.
func pendingNotes(s *Server, c ident.ClientID) []msg.FlushedNote {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	return append([]msg.FlushedNote(nil), s.notes[c]...)
}

// hasDPT reports whether c's DPT has an entry for pid.
func hasDPT(c *Client, pid page.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.dpt[pid]
	return ok
}

// TestFlushNotesRideLockReply: a replacement carrier lands, the server
// writes the page, and the note waits on the server until the
// shipper's next lock request, whose reply carries it; applying it
// retires the page's DPT entry (§3.2).  No flush message is sent.
func TestFlushNotesRideLockReply(t *testing.T) {
	cl, ids, cs, replies := tappedCluster(t, 2, 1)
	a, srv := cs[0], cl.Server()
	shipped := writeAndReplace(t, a, ids[0], 'x')
	writePage(t, srv, ids[0])
	if got := pendingNotes(srv, a.ID()); len(got) != 1 || got[0].Page != ids[0] || got[0].PSN < shipped {
		t.Fatalf("pending notes after the write: %v, want one for page %d at PSN >= %d", got, ids[0], shipped)
	}
	if !hasDPT(a, ids[0]) {
		t.Fatal("the DPT entry went before any reply carried the note")
	}
	locks := cl.Stats.ByName()["lock"]

	txn, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(page.ObjectID{Page: ids[1], Slot: 0}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats.ByName()["lock"]; got <= locks {
		t.Fatalf("reading an uncached page sent no lock request (%d lock messages before, %d after)", locks, got)
	}
	if got := replies.of(a.ID()); len(got) != 1 || got[0].Page != ids[0] {
		t.Fatalf("lock replies carried notes %v, want the one for page %d", got, ids[0])
	}
	if got := pendingNotes(srv, a.ID()); len(got) != 0 {
		t.Fatalf("notes still pending after the lock reply: %v", got)
	}
	if hasDPT(a, ids[0]) {
		t.Fatal("the note the lock reply carried did not retire the DPT entry")
	}
	if n := cl.Stats.ByName()["cb.flushed"]; n != 0 {
		t.Fatalf("%d flush messages sent, want 0: the note rides the lock reply", n)
	}
}

// TestPendingNotesEndWithIncarnation: the notes the server keeps for a
// client go when it crashes or leaves, a page written while it is held
// crashed queues none, and the restarted client's lock replies carry
// none of its predecessor's.
func TestPendingNotesEndWithIncarnation(t *testing.T) {
	cl, ids, cs, replies := tappedCluster(t, 4, 2)
	a, b, srv := cs[0], cs[1], cl.Server()
	writeAndReplace(t, a, ids[0], 'a')
	writeAndReplace(t, a, ids[1], 'a')
	writeAndReplace(t, b, ids[2], 'b')
	writePage(t, srv, ids[0])
	writePage(t, srv, ids[2])
	if len(pendingNotes(srv, a.ID())) != 1 || len(pendingNotes(srv, b.ID())) != 1 {
		t.Fatalf("pending notes before the ends: a %v, b %v, want one each",
			pendingNotes(srv, a.ID()), pendingNotes(srv, b.ID()))
	}

	cl.CrashClient(a.ID())
	if got := pendingNotes(srv, a.ID()); len(got) != 0 {
		t.Fatalf("ClientCrashed kept notes %v", got)
	}
	writePage(t, srv, ids[1]) // shipped by a's crashed incarnation
	if got := pendingNotes(srv, a.ID()); len(got) != 0 {
		t.Fatalf("a page written while its shipper is crashed queued notes %v", got)
	}
	a, err := cl.RestartClient(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(page.ObjectID{Page: ids[3], Slot: 0}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := replies.of(a.ID()); len(got) != 0 {
		t.Fatalf("the restarted client's lock replies carried notes %v", got)
	}

	if err := srv.Disconnect(b.ID()); err != nil {
		t.Fatal(err)
	}
	if got := pendingNotes(srv, b.ID()); len(got) != 0 {
		t.Fatalf("Disconnect kept notes %v", got)
	}
	if n := cl.Stats.ByName()["cb.flushed"]; n != 0 {
		t.Fatalf("%d flush messages sent, want 0", n)
	}
}
