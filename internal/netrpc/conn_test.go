package netrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fault"
	"clientlog/internal/ident"
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
	cc, peer := tcpPair(t)
	rc := newRPCConn(cc)
	rc.setHandler(func(msg.Method, uint64, uint64, any) (any, error) { return nil, nil })
	go rc.serve()

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
	cc, peer := tcpPair(t)
	rc := newRPCConn(cc)
	go rc.serve()
	defer rc.Close()
	defer peer.Close()

	start := time.Now()
	_, err := rc.call(msg.MShip, 0, msg.ShipReq{}, 100*time.Millisecond)
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
	var p page.Page
	if err := p.UnmarshalBinary(body.(msg.FetchReply).Image); err != nil || p.Size() != cfg.PageSize {
		t.Fatalf("follow-up reply page: size %d, %v; want size %d", p.Size(), err, cfg.PageSize)
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
// trip costs what boxing the bodies costs on both ends: 4 allocations
// measured (5 when each request started a goroutine, 10 when each call
// also made its own channel and timer), and that is the bound.  Skipped under the race
// detector, whose instrumentation allocates.
func TestCallRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	cc, pc := tcpPair(t)
	rc := newRPCConn(cc)
	rc.setHandler(func(msg.Method, uint64, uint64, any) (any, error) { return nil, nil })
	go rc.serve()
	defer rc.Close()
	peer := newRPCConn(pc)
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
	if allocs > 4 {
		t.Errorf("a round trip allocates %.2f times, want <= 4", allocs)
	}
}

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
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
		close(accepted)
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	return cc, sc
}

// forceEcho answers a force with a PSN naming the request's client and
// page, and a ship with its first page image; the tests below match
// every reply to its request this way.
func forceEcho(m msg.Method, _, _ uint64, body any) (any, error) {
	switch b := body.(type) {
	case msg.ForceReq:
		return msg.ForceReply{PSN: page.PSN(uint64(b.Client)<<32 | uint64(b.Page))}, nil
	case msg.ShipReq:
		return msg.FetchReply{Image: b.Carry.Pages[0].Image}, nil
	}
	return nil, fmt.Errorf("unexpected %v request", m)
}

// TestArmedCorruptionSparesRequests is the regression test for the
// dropped callback: corruption armed for a reply must leave an incoming
// request alone, since a corrupt request is skipped unanswered and a
// call without a deadline would wait for it until the connection died.
// The corruption stays armed and lands on the armed end's next reply.
func TestArmedCorruptionSparesRequests(t *testing.T) {
	ca, cb := tcpPair(t)
	armed, other := newRPCConn(ca), newRPCConn(cb)
	for _, r := range []*rpcConn{armed, other} {
		r.setHandler(forceEcho)
		go r.serve()
		defer r.Close()
	}
	armed.armCorrupt()
	done := make(chan error, 1)
	go func() {
		_, err := other.call(msg.MForce, 0, msg.ForceReq{Client: 3, Page: 9}, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("request to the armed end: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the armed end dropped a request: a call without a deadline still waits after 2s")
	}
	_, err := armed.call(msg.MForce, 0, msg.ForceReq{Client: 3, Page: 9}, 10*time.Second)
	if !errors.Is(err, ErrCorruptReply) {
		t.Fatalf("armed end's own call err=%v want ErrCorruptReply", err)
	}
}

// TestServeReusesWorkers checks that requests run on parked workers
// rather than a goroutine each, that a parked handler does not hold up
// the next request on its connection, and that no worker outlives the
// connection.
func TestServeReusesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	ca, cb := tcpPair(t)
	caller, server := newRPCConn(ca), newRPCConn(cb)
	caller.setHandler(forceEcho)
	entered, release := make(chan struct{}), make(chan struct{})
	server.setHandler(func(m msg.Method, seq, floor uint64, body any) (any, error) {
		if m == msg.MShip {
			entered <- struct{}{}
			<-release
		}
		return forceEcho(m, seq, floor, body)
	})
	go caller.serve()
	go server.serve()

	roundTrip := func(i int) {
		t.Helper()
		body, err := caller.call(msg.MForce, 0, msg.ForceReq{Client: 1, Page: page.ID(i)}, 2*time.Second)
		if err != nil || body.(msg.ForceReply).PSN != page.PSN(1<<32|uint64(i)) {
			t.Fatalf("round trip %d: %v, %v", i, body, err)
		}
	}
	roundTrip(0)
	first := runtime.NumGoroutine()
	for i := 1; i <= 1000; i++ {
		roundTrip(i)
	}
	if n := runtime.NumGoroutine(); n > first+1 {
		t.Fatalf("%d goroutines after 1000 sequential round trips, %d after the first: workers are not reused", n, first)
	}

	parked := make(chan error, 1)
	go func() {
		img := make([]byte, 16)
		_, err := caller.call(msg.MShip, 0, msg.ShipReq{Carry: msg.Carry{Pages: []msg.PageImage{{Page: 1, Image: img}}}}, 0)
		parked <- err
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the ship request never reached its handler")
	}
	roundTrip(1001) // answered while the ship's handler is parked
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}

	caller.Close()
	server.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after both ends closed, %d before the connection: a worker leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentSendersShareOneWriter drives many senders through one
// connection, so most frames are written by a sender other than their
// own: every reply must still match its request and every frame must
// be counted once.  When the peer's socket closes mid-stream, every
// sender must come back with ErrClosed instead of blocking.
func TestConcurrentSendersShareOneWriter(t *testing.T) {
	const senders, calls = 8, 500
	// call makes sender g's i-th request: a small force, or a ship
	// carrying a 4 KiB page image, alternately.
	call := func(rc *rpcConn, g, i int) error {
		if i%2 == 0 {
			body, err := rc.call(msg.MForce, 0, msg.ForceReq{Client: ident.ClientID(g), Page: page.ID(i)}, 10*time.Second)
			if err == nil && body.(msg.ForceReply).PSN != page.PSN(uint64(g)<<32|uint64(i)) {
				return fmt.Errorf("force %d/%d answered %v", g, i, body)
			}
			return err
		}
		img := bytes.Repeat([]byte{byte(g*senders + i)}, 4096)
		binary.LittleEndian.PutUint64(img, uint64(g)<<32|uint64(i))
		req := msg.ShipReq{Client: ident.ClientID(g), Carry: msg.Carry{Pages: []msg.PageImage{{Page: page.ID(i), Image: img}}}}
		body, err := rc.call(msg.MShip, 0, req, 10*time.Second)
		if err == nil && !bytes.Equal(body.(msg.FetchReply).Image, img) {
			return fmt.Errorf("ship %d/%d answered another request's image", g, i)
		}
		return err
	}
	// pair returns the calling end of a served connection and the
	// peer's socket.
	pair := func(t *testing.T) (*rpcConn, net.Conn) {
		ca, cb := tcpPair(t)
		caller := newRPCConn(ca)
		for _, r := range []*rpcConn{caller, newRPCConn(cb)} {
			r.setHandler(forceEcho)
			go r.serve()
			t.Cleanup(func() { r.Close() })
		}
		return caller, cb
	}

	t.Run("replies-match", func(t *testing.T) {
		caller, _ := pair(t)
		before := Metrics.FramesSent.Load()
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if err := call(caller, g, i); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		// A reply's frame is counted after its write returns, which can
		// be after the caller has read it.
		want := before + 2*senders*calls
		deadline := time.Now().Add(2 * time.Second)
		for Metrics.FramesSent.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := Metrics.FramesSent.Load(); got != want {
			t.Fatalf("FramesSent rose by %d, want %d (one request and one reply per call)", got-before, want-before)
		}
	})

	t.Run("peer-dies", func(t *testing.T) {
		caller, peerSock := pair(t)
		var answered atomic.Int64
		errs := make(chan error, senders)
		for g := 0; g < senders; g++ {
			go func(g int) {
				for i := 0; ; i++ {
					if err := call(caller, g, i); err != nil {
						errs <- err
						return
					}
					if answered.Add(1) == senders*calls/4 {
						peerSock.Close() // the peer's socket dies mid-stream
					}
				}
			}(g)
		}
		for g := 0; g < senders; g++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("sender failed with %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d senders still blocked 5s after the peer's socket closed", senders-g, senders)
			}
		}
	})
}

// deadlineCounter is a net.Conn that counts SetWriteDeadline calls.
type deadlineCounter struct {
	net.Conn
	n atomic.Int64
}

func (c *deadlineCounter) SetWriteDeadline(t time.Time) error {
	c.n.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// TestWriteDeadlineArmedOncePerWindow checks that the writer arms the
// write deadline once per half writeTimeout, not once per batch: 1000
// round trips, far shorter than writeTimeout/2 together, arm it at most
// twice on either end.
func TestWriteDeadlineArmedOncePerWindow(t *testing.T) {
	ca, cb := tcpPair(t)
	ends := []*deadlineCounter{{Conn: ca}, {Conn: cb}}
	caller, server := newRPCConn(ends[0]), newRPCConn(ends[1])
	for _, r := range []*rpcConn{caller, server} {
		r.setHandler(forceEcho)
		go r.serve()
		defer r.Close()
	}
	for i := 0; i < 1000; i++ {
		body, err := caller.call(msg.MForce, 0, msg.ForceReq{Client: 1, Page: page.ID(i)}, 2*time.Second)
		if err != nil || body.(msg.ForceReply).PSN != page.PSN(1<<32|uint64(i)) {
			t.Fatalf("round trip %d: %v, %v", i, body, err)
		}
	}
	for i, end := range ends {
		if n := end.n.Load(); n > 2 {
			t.Errorf("end %d armed the write deadline %d times over 1000 round trips, want at most 2", i, n)
		}
	}
}
