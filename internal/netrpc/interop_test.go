package netrpc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fault"
	"clientlog/internal/msg"
	"clientlog/internal/wal"
)

// dialClientVersion is dialClient with an explicit protocol ceiling.
func dialClientVersion(t *testing.T, cfg core.Config, addr string, version uint32) (*core.Client, *Transport) {
	t.Helper()
	tr, err := DialVersion(addr, version)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewClient(cfg, tr, wal.NewMemStore(0))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLocal(c)
	t.Cleanup(func() { tr.Close() })
	return c, tr
}

// TestProtocolInterop pins each side of the connection below
// ProtocolVersion in turn and drives real traffic — commit, read-back,
// and a cross-client callback — over every pairing.  The negotiated
// version must be min(client, server), the payloads must survive
// regardless of framing, and the callback must travel the codec the
// pairing negotiated: binary under v3, whole-envelope gob under v2.
func TestProtocolInterop(t *testing.T) {
	cases := []struct {
		name           string
		clientV, srvV  uint32
		wantNegotiated uint32
	}{
		{"v3-client_v3-server", ProtocolVersion, ProtocolVersion, 3},
		{"v2-client_v3-server", 2, ProtocolVersion, 2},
		{"v3-client_v2-server", ProtocolVersion, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			_, srv, ids := startCluster(t, cfg, 2)
			srv.SetMaxVersion(tc.srvV)
			ws, reg := instanceWireStats()
			srv.SetWireStats(ws)
			a, tra := dialClientVersion(t, cfg, srv.Addr().String(), tc.clientV)
			b, trb := dialClientVersion(t, cfg, srv.Addr().String(), tc.clientV)
			if got := tra.NegotiatedVersion(); got != tc.wantNegotiated {
				t.Fatalf("negotiated %d, want %d", got, tc.wantNegotiated)
			}
			if got := trb.NegotiatedVersion(); got != tc.wantNegotiated {
				t.Fatalf("negotiated %d, want %d", got, tc.wantNegotiated)
			}

			obj := pageObj(ids[0], 1)
			ta, err := a.Begin()
			if err != nil {
				t.Fatal(err)
			}
			want := []byte("interop payload!")
			if err := ta.Overwrite(obj, want); err != nil {
				t.Fatal(err)
			}
			if err := ta.Commit(); err != nil {
				t.Fatal(err)
			}
			// B's read forces a real callback to A across the same framing.
			tb, err := b.Begin()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tb.Read(obj)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("cross-client read %q err=%v", got, err)
			}
			if err := tb.Commit(); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			wantVer, otherVer := wireVerV3, wireVerV2
			if tc.wantNegotiated == 2 {
				wantVer, otherVer = wireVerV2, wireVerV3
			}
			if n := wireFrames(snap, "cb.object", wantVer); n == 0 {
				t.Errorf("no %s cb.object frames on a v%d connection", wantVer, tc.wantNegotiated)
			}
			if n := wireFrames(snap, "cb.object", otherVer) + wireFrames(snap, "cb.object", wireVerV3Gob); n != 0 {
				t.Errorf("%d cb.object frames travelled outside %s", n, wantVer)
			}
		})
	}
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
	_, err = rc.call("fetch", 0, msg.FetchReq{Client: c.ID(), Page: ids[0]}, 10*time.Second)
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
	body, err := rc.call("fetch", 0, msg.FetchReq{Client: c.ID(), Page: ids[0]}, 10*time.Second)
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
