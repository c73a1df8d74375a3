package netrpc

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fault"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

func pageObj(p page.ID, slot uint16) page.ObjectID {
	return page.ObjectID{Page: p, Slot: slot}
}

// TestConnPendingFailFastOnPeerDeath is the regression test for the
// mid-call hang: RPCs in flight when the peer's TCP connection dies
// must fail promptly with ErrClosed, not block forever waiting for
// replies that will never arrive.
func TestConnPendingFailFastOnPeerDeath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rc := newRPCConn(cc)
	rc.setHandler(func(msg.Method, uint64, uint64, any) (any, error) { return nil, nil })
	go rc.serve()
	peer := <-accepted

	// Five calls in flight against a peer that never answers; timeout
	// zero so only the fail-fast path can unblock them.
	const n = 5
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := rc.call(msg.MShip, 0, msg.ShipReq{}, 0)
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the requests hit the wire
	peer.Close()                      // peer dies mid-call
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("pending call err=%v want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pending RPC hung after peer death")
		}
	}
}

// TestConnCallDeadline verifies the per-request deadline: an unanswered
// call returns ErrDeadline without tearing the connection down.
func TestConnCallDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rc := newRPCConn(cc)
	go rc.serve()
	defer rc.Close()
	peer := <-accepted
	defer peer.Close()

	start := time.Now()
	_, err = rc.call(msg.MShip, 0, msg.ShipReq{}, 100*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err=%v want ErrDeadline", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("deadline fired after %v", time.Since(start))
	}
	if rc.isClosed() {
		t.Fatal("deadline tore the connection down")
	}
}

// TestRetransmittedFetchReExecutes pins the one hole in the session's
// exactly-once rule: fetch is a pure read, so a retransmission under the
// same sequence number re-executes and sees the current page (the reply
// cache never pins page images), while a retransmitted ship is still
// answered from the cache and merges only once.
func TestRetransmittedFetchReExecutes(t *testing.T) {
	cfg := testCfg()
	engine, srv, ids := startCluster(t, cfg, 1)
	c, tr := dialClient(t, cfg, srv.Addr().String())
	rc, err := tr.getConn()
	if err != nil {
		t.Fatal(err)
	}
	fetchSeq, shipSeq := tr.seq.Add(1), tr.seq.Add(1)
	fetch := func() []byte {
		t.Helper()
		body, err := rc.call(msg.MFetch, fetchSeq, msg.FetchReq{Client: c.ID(), Page: ids[0]}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return body.(msg.FetchReply).Image
	}
	pg := new(page.Page)
	if err := pg.UnmarshalBinary(fetch()); err != nil {
		t.Fatal(err)
	}
	shipped := []byte("shipped between!")
	if _, _, err := pg.Overwrite(0, shipped); err != nil {
		t.Fatal(err)
	}
	img, err := pg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ship := msg.ShipReq{Client: c.ID(), Reason: msg.ShipReplace, Carry: msg.Carry{Seq: 1, Pages: []msg.PageImage{{Page: ids[0], Image: img}}}}
	for i := 0; i < 2; i++ {
		if _, err := rc.call(msg.MShip, shipSeq, ship, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := engine.Metrics.Merges.Load(); n != 1 {
		t.Fatalf("retransmitted ship merged %d times, want 1", n)
	}

	cur := new(page.Page)
	if err := cur.UnmarshalBinary(fetch()); err != nil {
		t.Fatal(err)
	}
	if got, _ := cur.Read(0); !bytes.Equal(got, shipped) {
		t.Fatalf("retransmitted fetch read %q, want the shipped update %q", got, shipped)
	}
}

// TestRetransmittedLockReReadsPage: a retransmitted lock is answered
// from the session's reply cache — the GLM grants it once — but the
// cache holds the grant without the page it carried, so the replay
// re-reads the page and sees a ship that landed in between.
func TestRetransmittedLockReReadsPage(t *testing.T) {
	cfg := testCfg()
	engine, srv, ids := startCluster(t, cfg, 1)
	c, tr := dialClient(t, cfg, srv.Addr().String())
	rc, err := tr.getConn()
	if err != nil {
		t.Fatal(err)
	}
	lockSeq, shipSeq := tr.seq.Add(1), tr.seq.Add(1)
	req := msg.LockReq{Client: c.ID(), Name: lock.Name{Page: ids[0], Slot: 1}, Mode: lock.X, Fetch: true}
	lockPage := func() (msg.LockReply, *page.Page) {
		t.Helper()
		body, err := rc.call(msg.MLock, lockSeq, req, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		reply := body.(msg.LockReply)
		pg := new(page.Page)
		if err := pg.UnmarshalBinary(reply.Image); err != nil {
			t.Fatal(err)
		}
		return reply, pg
	}
	first, pg := lockPage()
	grants := engine.GLM().Metrics.Grants.Load()

	shipped := []byte("shipped between!")
	if _, _, err := pg.Overwrite(0, shipped); err != nil {
		t.Fatal(err)
	}
	img, err := pg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ship := msg.ShipReq{Client: c.ID(), Reason: msg.ShipReplace, Carry: msg.Carry{Seq: 1, Pages: []msg.PageImage{{Page: ids[0], Image: img}}}}
	if _, err := rc.call(msg.MShip, shipSeq, ship, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	again, cur := lockPage()
	if n := engine.GLM().Metrics.Grants.Load(); n != grants {
		t.Fatalf("retransmitted lock granted again (%d grants, want %d)", n, grants)
	}
	if again.Name != first.Name || again.Mode != first.Mode {
		t.Fatalf("replayed grant %v %v, want %v %v", again.Name, again.Mode, first.Name, first.Mode)
	}
	if got, _ := cur.Read(0); !bytes.Equal(got, shipped) {
		t.Fatalf("replayed lock carried %q, want the shipped update %q", got, shipped)
	}
}

// TestTCPReconnectResumesSession kills the transport's connection out
// from under a registered client: the next call must redial, resume the
// session by token, and succeed — with the server never declaring the
// client crashed.
func TestTCPReconnectResumesSession(t *testing.T) {
	cfg := testCfg()
	engine, srv, ids := startCluster(t, cfg, 1)
	c, tr := dialClient(t, cfg, srv.Addr().String())
	obj := pageObj(ids[0], 0)

	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("survives redials")
	if err := txn.Overwrite(obj, want); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		tr.killConn() // connection dies; session token survives
		txn, err := c.Begin()
		if err != nil {
			t.Fatalf("reconnect %d: begin: %v", i, err)
		}
		got, err := txn.Read(obj)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reconnect %d: read %q err=%v", i, got, err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if engine.GLM().Crashed(c.ID()) {
		t.Fatal("transparent reconnect was declared a crash")
	}
}

// TestTCPSessionExpiresPastGrace waits out the grace window after a
// connection death: the server must declare the crash, and the stale
// transport must fail permanently with ErrSessionExpired instead of
// silently re-registering.
func TestTCPSessionExpiresPastGrace(t *testing.T) {
	cfg := testCfg()
	engine, srv, _ := startCluster(t, cfg, 1)
	c, tr := dialClient(t, cfg, srv.Addr().String())

	tr.killConn()
	deadline := time.Now().Add(2 * time.Second)
	for !engine.GLM().Crashed(c.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("grace expiry never declared the crash")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := tr.Fetch(msg.FetchReq{Page: 1}); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("stale session err=%v want ErrSessionExpired", err)
	}
}

// TestTCPFaultInjectionEndToEnd drives committed transactions through a
// transport under a deterministic fault plan whose disconnect faults
// kill the real TCP connection: every transaction must still commit
// exactly once, via retries and session resumes, with zero crashes
// declared.
func TestTCPFaultInjectionEndToEnd(t *testing.T) {
	cfg := testCfg()
	engine, ln, ids := startEngine(t, cfg, 2)
	srv := ServeGrace(engine, ln, 2*time.Second)
	t.Cleanup(func() { srv.Close() })

	tr, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(11, fault.Plan{
		DropProb:       0.10,
		DupProb:        0.10,
		ReplayProb:     0.05,
		DelayProb:      0.05,
		MaxDelay:       200 * time.Microsecond,
		DisconnectProb: 0.05,
	})
	tr.InjectFaults(inj, "tcp-c1")
	tr.SetRetry(msg.RetryPolicy{MaxAttempts: 30, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})

	c, err := core.NewClient(cfg, tr, wal.NewMemStore(0))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLocal(c)
	t.Cleanup(func() { tr.Close() })
	obj := pageObj(ids[0], 1)
	for round := 0; round < 40; round++ {
		txn, err := c.Begin()
		if err != nil {
			t.Fatalf("round %d: begin: %v", round, err)
		}
		val := bytes.Repeat([]byte{byte(round)}, 16)
		if err := txn.Overwrite(obj, val); err != nil {
			t.Fatalf("round %d: overwrite: %v", round, err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d: commit: %v", round, err)
		}
		txn2, _ := c.Begin()
		got, err := txn2.Read(obj)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("round %d: read back %q err=%v (faults=%d)", round, got, err, inj.Faults())
		}
		txn2.Commit()
	}
	if inj.Faults() == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if engine.GLM().Crashed(c.ID()) {
		t.Fatalf("injected faults escalated to a crash declaration (faults=%d)", inj.Faults())
	}
	t.Logf("faults injected: %d", inj.Faults())
}

// TestCorruptReplyFailsFast is the regression test for the silently
// skipped corrupt reply: a reply frame that fails its checksum must
// fail the pending call immediately with ErrCorruptReply (not hang to
// its deadline as before), count into CorruptFrames, and leave the
// connection usable.
func TestCorruptReplyFailsFast(t *testing.T) {
	cfg := testCfg()
	_, srv, ids := startCluster(t, cfg, 1)
	c, tr := dialClient(t, cfg, srv.Addr().String())

	rc, err := tr.getConn()
	if err != nil {
		t.Fatal(err)
	}
	before := Metrics.CorruptFrames.Load()
	rc.armCorrupt()
	start := time.Now()
	_, err = rc.call(msg.MFetch, 0, msg.FetchReq{Client: c.ID(), Page: ids[0]}, 10*time.Second)
	if !errors.Is(err, ErrCorruptReply) {
		t.Fatalf("err=%v want ErrCorruptReply", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("corrupt reply took %v to fail (hung toward deadline)", time.Since(start))
	}
	if got := Metrics.CorruptFrames.Load(); got <= before {
		t.Fatalf("CorruptFrames=%d, want > %d", got, before)
	}
	if rc.isClosed() {
		t.Fatal("corrupt frame tore the connection down")
	}
	// The stream is still in sync: the next call on the same connection
	// succeeds.
	body, err := rc.call(msg.MFetch, 0, msg.FetchReq{Client: c.ID(), Page: ids[0]}, 10*time.Second)
	if err != nil {
		t.Fatalf("follow-up call after corrupt frame: %v", err)
	}
	if len(body.(msg.FetchReply).Image) != cfg.PageSize {
		t.Fatalf("follow-up reply image %d bytes, want %d", len(body.(msg.FetchReply).Image), cfg.PageSize)
	}
}

// TestTCPCorruptionFaultInjection drives commits through a fault plan
// that corrupts reply frames: every transaction must still commit
// exactly once (retries under the same sequence number hit the reply
// cache), with the corruption visible in the CorruptFrames counter.
func TestTCPCorruptionFaultInjection(t *testing.T) {
	cfg := testCfg()
	engine, ln, ids := startEngine(t, cfg, 2)
	srv := ServeGrace(engine, ln, 2*time.Second)
	t.Cleanup(func() { srv.Close() })

	tr, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(23, fault.Plan{CorruptProb: 0.25})
	tr.InjectFaults(inj, "tcp-corrupt")
	tr.SetRetry(msg.RetryPolicy{MaxAttempts: 30, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	before := Metrics.CorruptFrames.Load()

	c, err := core.NewClient(cfg, tr, wal.NewMemStore(0))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLocal(c)
	t.Cleanup(func() { tr.Close() })

	obj := pageObj(ids[0], 2)
	for round := 0; round < 30; round++ {
		txn, err := c.Begin()
		if err != nil {
			t.Fatalf("round %d: begin: %v", round, err)
		}
		val := bytes.Repeat([]byte{byte(round + 1)}, 16)
		if err := txn.Overwrite(obj, val); err != nil {
			t.Fatalf("round %d: overwrite: %v", round, err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d: commit: %v", round, err)
		}
		txn2, _ := c.Begin()
		got, err := txn2.Read(obj)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("round %d: read back %q err=%v", round, got, err)
		}
		txn2.Commit()
		// The engine caches locks and pages, so commits alone stop
		// crossing the wire after the first round; a direct fetch keeps
		// the fault plan drawing against real reply frames.
		if _, err := tr.Fetch(msg.FetchReq{Client: c.ID(), Page: ids[1]}); err != nil {
			t.Fatalf("round %d: fetch under corruption: %v", round, err)
		}
	}
	if inj.Faults() == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if got := Metrics.CorruptFrames.Load(); got <= before {
		t.Fatalf("CorruptFrames=%d, want > %d (faults=%d)", got, before, inj.Faults())
	}
	if engine.GLM().Crashed(c.ID()) {
		t.Fatal("corruption faults escalated to a crash declaration")
	}
}

// TestCallRoundTripAllocs is the allocation gate for one TCP round trip
// on an rpcConn pair: a call with a deadline, answered by the peer's
// handler.  A call reuses its reply channel and its timer, so a round
// trip costs what boxing the bodies and the handler goroutine cost on
// both ends: 5 allocations measured (10 when each call made its own
// channel and timer), and that is the bound.  Skipped under the race
// detector, whose instrumentation allocates.
func TestCallRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rc := newRPCConn(cc)
	rc.setHandler(func(msg.Method, uint64, uint64, any) (any, error) { return nil, nil })
	go rc.serve()
	defer rc.Close()
	peer := newRPCConn(<-accepted)
	peer.setHandler(func(msg.Method, uint64, uint64, any) (any, error) { return msg.ForceReply{PSN: 5}, nil })
	go peer.serve()
	defer peer.Close()
	req := msg.ForceReq{Client: 3, Page: 9}
	roundTrip := func() {
		body, err := rc.call(msg.MForce, 0, req, 10*time.Second)
		if err != nil || body.(msg.ForceReply).PSN != 5 {
			t.Fatalf("round trip: %v, %v", body, err)
		}
	}
	roundTrip()
	allocs := testing.AllocsPerRun(2000, roundTrip)
	t.Logf("%.2f allocations per round trip", allocs)
	if allocs > 5 {
		t.Errorf("a round trip allocates %.2f times, want <= 5", allocs)
	}
}
