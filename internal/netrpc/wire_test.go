package netrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// writeFrame encodes env as one length-prefixed frame and writes it
// with a single Write: the synchronous form of rpcConn.send, for tests
// that speak the raw protocol against a buffer or a socket.
func writeFrame(w io.Writer, env *envelope) error {
	wb := getBuf(bufSmall)
	defer putBuf(wb)
	if err := encodeEnvelopeV3(wb, env); err != nil {
		return err
	}
	_, err := w.Write(wb.b)
	return err
}

// readFrame reads one length-prefixed frame the way rpcConn.readOne
// does: ErrFrameTooLarge for an implausible length (the connection must
// be dropped), a corruptFrameError for a payload that fails its
// checksum or decode (the frame may be skipped).
func readFrame(r io.Reader) (envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return envelope{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return envelope{}, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return envelope{}, err
	}
	return decodeEnvelopeV3(payload)
}

// rawHello opens a raw socket to addr and completes a hello for the
// given session token, returning the socket and the server's reply.
func rawHello(t *testing.T, addr string, token uint64) (net.Conn, helloReply) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	hello := envelope{ID: 1, Method: msg.MHello, Body: helloBody{Token: token, Version: ProtocolVersion}}
	if err := writeFrame(c, &hello); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := readFrame(c)
	if err != nil {
		t.Fatalf("no hello reply: %v", err)
	}
	if reply.Err != "" {
		t.Fatalf("hello rejected: %s", reply.Err)
	}
	hr, ok := reply.Body.(helloReply)
	if !ok || hr.Token == 0 || hr.Version != ProtocolVersion {
		t.Fatalf("bad hello reply: %+v", reply.Body)
	}
	return c, hr
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := envelope{ID: 7, Seq: 42, Method: msg.MLock, Body: msg.LockReq{}}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Seq != 42 || out.Method != msg.MLock {
		t.Fatalf("round trip mangled envelope: %+v", out)
	}
	if _, ok := out.Body.(msg.LockReq); !ok {
		t.Fatalf("body type lost: %T", out.Body)
	}
}

func TestWireOversizedFrameRejected(t *testing.T) {
	// Reading: a header claiming more than MaxFrame must be rejected
	// before any payload allocation.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	if _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read err=%v want ErrFrameTooLarge", err)
	}
	// Writing: an envelope that encodes past the bound must be refused,
	// leaving nothing harmful on the wire beyond the aborted frame.
	big := envelope{Method: msg.MFetchCached, Reply: true, Body: [][]byte{make([]byte, MaxFrame+1)}}
	var sink bytes.Buffer
	if err := writeFrame(&sink, &big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write err=%v want ErrFrameTooLarge", err)
	}
}

func TestWireTruncatedFrame(t *testing.T) {
	// Header promises 100 bytes, stream delivers 10 and ends: the reader
	// must report a hard error (connection teardown), not block or
	// fabricate a frame.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.Write(make([]byte, 10))
	_, err := readFrame(&buf)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	var corrupt corruptFrameError
	if errors.As(err, &corrupt) {
		t.Fatalf("truncation misreported as skippable corruption: %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err=%v want unexpected EOF", err)
	}
	// A truncated header (conn died between frames) is a clean EOF.
	short := bytes.NewBuffer([]byte{0, 0})
	if _, err := readFrame(short); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestWireCorruptPayloadSkipped(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 32)
	buf.Write(hdr[:])
	buf.Write(bytes.Repeat([]byte{0xFF}, 32)) // fails the frame checksum
	_, err := readFrame(&buf)
	var corrupt corruptFrameError
	if !errors.As(err, &corrupt) {
		t.Fatalf("err=%v want corruptFrameError", err)
	}
	// The framing survived: a valid frame behind the corrupt one still
	// decodes.
	good := envelope{ID: 1, Method: msg.MUnlock, Body: msg.UnlockReq{}}
	if err := writeFrame(&buf, &good); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil || out.Method != msg.MUnlock {
		t.Fatalf("frame after corruption: %+v err=%v", out, err)
	}
}

// TestWireCorruptFrameDoesNotWedgeServer pushes a corrupt frame at a
// live server session and then completes a normal request on the same
// connection: the server must skip the garbage, not desync or drop the
// session.  (Only the connection's first frame is held to a stricter
// rule; TestHelloMismatchFailsFast covers that.)
func TestWireCorruptFrameDoesNotWedgeServer(t *testing.T) {
	cfg := testCfg()
	_, srv, _ := startCluster(t, cfg, 1)
	c, _ := rawHello(t, srv.Addr().String(), 0)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 32)
	c.Write(hdr[:])
	c.Write(bytes.Repeat([]byte{0xAB}, 32))
	// Same connection, now a well-formed request.
	if err := writeFrame(c, &envelope{ID: 2, Method: msg.MRegister, Body: msg.RegisterReq{}}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := readFrame(c)
	if err != nil {
		t.Fatalf("no reply after corrupt frame: %v", err)
	}
	if reply.Err != "" {
		t.Fatalf("register rejected: %s", reply.Err)
	}
	if rr, ok := reply.Body.(msg.RegisterReply); !ok || rr.ID == 0 {
		t.Fatalf("bad register reply: %+v", reply.Body)
	}
}

// TestHelloMismatchFailsFast pins the one-protocol rule: a connection
// whose first frame is not a well-formed hello naming ProtocolVersion is
// closed at once — after an answer naming both versions when the frame
// decodes, silently when it does not — instead of leaving the peer to
// wait out a deadline.  A good hello still resumes a session.
func TestHelloMismatchFailsFast(t *testing.T) {
	cfg := testCfg()
	_, srv, _ := startCluster(t, cfg, 1)
	addr := srv.Addr().String()

	ours := fmt.Sprintf("v%d", ProtocolVersion)
	v3 := func(env envelope) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &env); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// What a v2 peer opened every connection with: the whole envelope
	// gob-encoded behind the length prefix, no header, no checksum.
	var gobHello bytes.Buffer
	gobHello.Write(make([]byte, 4))
	if err := gob.NewEncoder(&gobHello).Encode(&gobFrame{ID: 1, Method: "hello", Body: helloBody{Version: 2}}); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(gobHello.Bytes(), uint32(gobHello.Len()-4))

	cases := []struct {
		name    string
		first   []byte
		wantErr []string // substrings of the refusal; nil = closed without one
	}{
		{"hello-v2", v3(envelope{ID: 1, Method: msg.MHello, Body: helloBody{Version: 2}}), []string{"v2", ours}},
		{"hello-v3", v3(envelope{ID: 1, Method: msg.MHello, Body: helloBody{Version: 3}}), []string{"v3", ours}},
		{"hello-v0", v3(envelope{ID: 1, Method: msg.MHello, Body: helloBody{}}), []string{"v0", ours}},
		{"not-a-hello", v3(envelope{ID: 1, Method: msg.MRegister, Body: msg.RegisterReq{}}), []string{"not a hello"}},
		{"raw-gob-hello", gobHello.Bytes(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.first); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if tc.wantErr != nil {
				reply, err := readFrame(c)
				if err != nil {
					t.Fatalf("no refusal: %v", err)
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(reply.Err, want) {
						t.Errorf("refusal %q does not mention %q", reply.Err, want)
					}
				}
			}
			// Refused or undecodable, the server hangs up: EOF or a
			// reset, not the read deadline.
			_, err = readFrame(c)
			var nerr net.Error
			if err == nil || (errors.As(err, &nerr) && nerr.Timeout()) {
				t.Fatalf("connection left open after a bad first frame (err=%v)", err)
			}
		})
	}

	t.Run("dial", func(t *testing.T) {
		// A peer that answers the hello with another version (here a
		// fake server one revision ahead) fails Dial with that answer,
		// once, not as a retried transport error.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			if hello, err := readFrame(c); err == nil {
				writeFrame(c, &envelope{ID: hello.ID, Reply: true, Body: helloReply{Token: 1, Version: ProtocolVersion + 1}})
			}
		}()
		start := time.Now()
		_, err = Dial(ln.Addr().String())
		theirs, ours := fmt.Sprintf("v%d", ProtocolVersion+1), fmt.Sprintf("v%d", ProtocolVersion)
		if err == nil || !strings.Contains(err.Error(), theirs) || !strings.Contains(err.Error(), ours) {
			t.Fatalf("Dial err=%v, want a mismatch naming %s and %s", err, theirs, ours)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("Dial took %v to fail", time.Since(start))
		}
	})

	t.Run("resume", func(t *testing.T) {
		_, first := rawHello(t, addr, 0)
		_, again := rawHello(t, addr, first.Token)
		if again.Token != first.Token {
			t.Fatalf("resumed as session %d, want %d", again.Token, first.Token)
		}
	})
}

// TestWireOversizedFrameFailsConnFast sends an oversized length prefix:
// the server must drop the connection (the prefix cannot be trusted)
// rather than stall, and other connections keep working.
func TestWireOversizedFrameFailsConnFast(t *testing.T) {
	cfg := testCfg()
	_, srv, ids := startCluster(t, cfg, 1)
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	c.Write(hdr[:])
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFrame(c); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
	// The listener is unharmed: a fresh, healthy client still works.
	cl, _ := dialClient(t, cfg, srv.Addr().String())
	txn, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Overwrite(pageObj(ids[0], 0), []byte("still healthy!!!")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWireHotFramesGolden pins the binary frames byte for byte: one
// envelope per v3 tag (plus an error reply).  Version 4 changed only the
// gob escape; version 5 re-captured the eight tags whose bodies gained a
// field — lock and lock-batch requests (Fetch) and replies (the page
// image), object callback and de-escalation requests (Wait) and replies
// (Busy); both reply forms are pinned for each of the last two.
// Version 6 re-captured the ship request (Page, Releases) and added an
// object callback carrying the header's floor; the same callback without
// one keeps its version 5 bytes.  Version 7 re-captured the lock and
// lock-batch requests (the carrier's presence byte) and the callback and
// de-escalation replies (the carrier's number), and added a lock request
// carrying a page and two releases and a callback reply naming its
// carrier.  Version 8 re-captured the lock, lock-batch, fetch,
// fetch-batch, ship and force requests (the carrier number a request
// names, the ship body as a carrier, the force's PSN and carrier
// number), and added a lock request, a fetch request and a fetch batch
// that name carriers, and a ship whose carrier lands after another.
// Version 9 re-captured the lock and lock-batch replies (the flush-note
// count) and added a lock reply carrying two flush notes.  Version 10
// changed only what a page image holds (its page's used bytes, with the
// page's size in its header), not how a frame carries one, so it
// re-captured nothing: the images here are hand-made.  Every other
// frame is as ProtocolVersion 3 encoded it.
func TestWireHotFramesGolden(t *testing.T) {
	name := lock.Name{Page: 9, Slot: 4}
	cases := []struct {
		env  envelope
		want string
	}{
		{envelope{ID: 1, Seq: 2, Method: msg.MLock, Body: msg.LockReq{Client: 3, Name: name, Mode: lock.X, PreferPage: true, Upgrade: true, HasCached: true, CachedPSN: 77, Fetch: true}},
			"0000004c2bf6a2d8010001000000000000000200000000000000030000000900000000000000040000020101014d00000000000000010000000000000000000000000000000000000000000000000000"},
		{envelope{ID: 1, Seq: 2, Method: msg.MLock, Body: msg.LockReq{Client: 3, Name: name, Mode: lock.S, Fetch: true, Carry: &msg.Carry{Seq: 6, Pages: []msg.PageImage{{Page: 8, Image: []byte{9, 8, 7}}}, Releases: []lock.Name{lock.PageName(8), {Page: 8, Slot: 1}}}}},
			"000000852f4a7765010001000000000000000200000000000000030000000900000000000000040000010000000000000000000000010000000000000000000000000000000000010600000000000000000000000100000008000000000000000300000009080702000000080000000000000000000108000000000000000100000000000000000000"},
		{envelope{ID: 1, Seq: 2, Method: msg.MLock, Body: msg.LockReq{Client: 3, Name: name, Mode: lock.X, Fetch: true, Carried: 5}},
			"0000004c25349361010001000000000000000200000000000000030000000900000000000000040000020000000000000000000000010000000000000000000000000000000000000500000000000000"},
		{envelope{ID: 1, Reply: true, Body: msg.LockReply{Name: name, Mode: lock.X, Origins: []msg.CallbackOrigin{{Object: page.ObjectID{Page: 9, Slot: 4}, Responder: 2, PSN: 5}}, Image: []byte{1, 2}}},
			"00000046de875610020101000000000000000000000000000000090000000000000004000002010000000900000000000000040002000000050000000000000002000000010200000000"},
		{envelope{ID: 1, Reply: true, Body: msg.LockReply{Name: name, Mode: lock.S, Flushed: []msg.FlushedNote{{Page: 9, PSN: 77}, {Page: 12, PSN: 3}}}},
			"0000004e1ce2a3ab02010100000000000000000000000000000009000000000000000400000100000000000000000200000009000000000000004d000000000000000c000000000000000300000000000000"},
		{envelope{ID: 2, Seq: 3, Method: msg.MLockBatch, Body: msg.LockBatchReq{Client: 3, Items: []msg.LockItem{{Name: name, Mode: lock.S, HasCached: true, CachedPSN: 4, Fetch: true}, {Name: lock.PageName(10), Mode: lock.X}}}},
			"00000070c38a14d20300020000000000000003000000000000000300000000000000000000000000000000000000000200000009000000000000000400000100000104000000000000000100000000000000000a0000000000000000000102000000000000000000000000000000000000000000"},
		{envelope{ID: 2, Reply: true, Body: msg.LockBatchReply{Grants: []msg.LockReply{{Name: name, Mode: lock.S, Image: []byte{3}}, {}}, Errs: []string{"", "lock: deadlock detected"}}},
			"0000007225bb286704010200000000000000000000000000000002000000090000000000000004000001000000000100000003000000000000000000000000000000000000000000000000000000000200000000000000170000006c6f636b3a20646561646c6f636b20646574656374656400000000"},
		{envelope{ID: 3, Seq: 4, Method: msg.MFetch, Body: msg.FetchReq{Client: 3, Page: 9, Recovery: true}},
			"0000003c2213a4ef0500030000000000000004000000000000000300000009000000000000000100000000000000000000000000000000000000000000000000"},
		{envelope{ID: 3, Seq: 4, Method: msg.MFetch, Body: msg.FetchReq{Client: 3, Page: 9, Carried: 5}},
			"0000003c406f8f560500030000000000000004000000000000000300000009000000000000000005000000000000000000000000000000000000000000000000"},
		{envelope{ID: 3, Reply: true, Body: msg.FetchReply{Image: []byte{1, 2, 3, 4}, DCTPSN: 12}},
			"00000026bb541d9306010300000000000000000000000000000004000000010203040c00000000000000"},
		{envelope{ID: 4, Seq: 5, Method: msg.MFetchBatch, Body: msg.FetchBatchReq{Client: 3, Pages: []page.ID{9, 10}}},
			"00000043073a37060700040000000000000005000000000000000300000000000000000000000000000000000000000200000009000000000000000a0000000000000000000000"},
		{envelope{ID: 4, Seq: 5, Method: msg.MFetchBatch, Body: msg.FetchBatchReq{Client: 3, Pages: []page.ID{9, 10}, Carried: []uint64{0, 5}}},
			"00000053a6263a560700040000000000000005000000000000000300000000000000000000000000000000000000000200000009000000000000000a000000000000000200000000000000000000000500000000000000"},
		{envelope{ID: 4, Reply: true, Body: msg.FetchBatchReply{Images: [][]byte{{1, 2}, nil}, DCTPSNs: []page.PSN{3, 0}, Errs: []string{"", "boom"}}},
			"0000004867010f4008010400000000000000000000000000000002000000020000000102000000000200000003000000000000000000000000000000020000000000000004000000626f6f6d"},
		{envelope{ID: 5, Seq: 6, Method: msg.MUnlock, Body: msg.UnlockReq{Client: 3, Action: msg.ActionDeescalate, Name: lock.PageName(9), Objs: []lock.ObjLock{{Slot: 4, Mode: lock.X}}}},
			"0000002d0eb8048c0900050000000000000006000000000000000300000003090000000000000000000101000000040002"},
		{envelope{ID: 6, Seq: 7, Method: msg.MShip, Body: msg.ShipReq{Client: 3, Reason: msg.ShipReplace, Carry: msg.Carry{Seq: 6, Pages: []msg.PageImage{{Page: 9, Image: []byte{9, 8, 7}}}, Releases: []lock.Name{lock.PageName(9), name}}}},
			"0000006621f7f36a0a00060000000000000007000000000000000300000001000000000000000000000000000000000001060000000000000000000000010000000900000000000000030000000908070200000009000000000000000000010900000000000000040000"},
		{envelope{ID: 6, Seq: 7, Method: msg.MShip, Body: msg.ShipReq{Client: 3, Reason: msg.ShipCallback, Carry: msg.Carry{Seq: 7, After: []msg.Mark{{Page: 9, Seq: 6}}, Pages: []msg.PageImage{{Page: 9, Image: []byte{9, 8, 7}}}}}},
			"0000006000c7c5450a00060000000000000007000000000000000300000002000000000000000000000000000000000001070000000000000001000000090000000000000006000000000000000100000009000000000000000300000009080700000000"},
		{envelope{ID: 7, Seq: 8, Method: msg.MForce, Body: msg.ForceReq{Client: 3, Page: 9, PSN: 33, Carried: 5}},
			"00000043ce6bc4e10b0007000000000000000800000000000000030000000900000000000000210000000000000005000000000000000000000000000000000000000000000000"},
		{envelope{ID: 7, Reply: true, Body: msg.ForceReply{PSN: 33}},
			"0000001ee1c01e710c01070000000000000000000000000000002100000000000000"},
		{envelope{ID: 8, Seq: 9, Method: msg.MCommitShip, Body: msg.CommitShipReq{Client: 3, Txn: 1 << 33, Records: [][]byte{{1}, {2, 3}}, Pages: [][]byte{{4}}}},
			"0000004b3b291fae0d00080000000000000009000000000000000300000000000000020000000000000000000000000000000000000000020000000100000001020000000203010000000100000004"},
		{envelope{ID: 8, Reply: true, Body: emptyBody{}},
			"00000016c889838a0e0108000000000000000000000000000000"},
		{envelope{ID: 9, Reply: true, Err: "lock: wait timed out", Body: emptyBody{}},
			"0000002e7a27ff9d0e0309000000000000000000000000000000140000006c6f636b3a20776169742074696d6564206f7574"},
		{envelope{ID: 10, Seq: 11, Method: msg.MCallbackObject, Body: msg.CallbackReq{Requester: 2, Object: name, Wanted: lock.X, Wait: true}},
			"00000027a9700a3b0f000a000000000000000b000000000000000200000009000000000000000400000201"},
		{envelope{ID: 10, Seq: 11, Floor: 7, Method: msg.MCallbackObject, Body: msg.CallbackReq{Requester: 2, Object: name, Wanted: lock.X, Wait: true}},
			"0000002f61d066760f040a000000000000000b0000000000000007000000000000000200000009000000000000000400000201"},
		{envelope{ID: 10, Reply: true, Body: msg.CallbackReply{Released: true, HadPage: true, Image: []byte{5, 6}}},
			"00000028cfbb69c710010a000000000000000000000000000000010001000200000005060000000000000000"},
		{envelope{ID: 10, Reply: true, Body: msg.CallbackReply{Released: true, Carried: 6}},
			"000000262d44e3e110010a00000000000000000000000000000001000000000000000600000000000000"},
		{envelope{ID: 10, Reply: true, Body: msg.CallbackReply{Busy: true}},
			"00000026be05725410010a00000000000000000000000000000000000001000000000000000000000000"},
		{envelope{ID: 11, Seq: 12, Method: msg.MDeescalatePage, Body: msg.DeescReq{Requester: 2, Page: 9, Wanted: lock.S, Wait: true}},
			"00000024475edb1f11000b000000000000000c000000000000000200000009000000000000000101"},
		{envelope{ID: 11, Reply: true, Body: msg.DeescReply{Objs: []lock.ObjLock{{Slot: 4, Mode: lock.X}}, HadPage: true, Image: []byte{7}}},
			"0000002c388e14d212010b00000000000000000000000000000001000100000004000201000000070000000000000000"},
		{envelope{ID: 11, Reply: true, Body: msg.DeescReply{Objs: []lock.ObjLock{{Slot: 4, Mode: lock.X}}, Busy: true}},
			"0000002bae48bc7d12010b000000000000000000000000000000000101000000040002000000000000000000000000"},
		{envelope{Method: msg.MNotifyFlushed, Body: msg.FlushedNote{Page: 9, PSN: 77}},
			"00000026315fa26613000000000000000000000000000000000009000000000000004d00000000000000"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &tc.env); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
			t.Errorf("%v (reply=%v): frame\n %s\nwant\n %s", tc.env.Method, tc.env.Reply, got, tc.want)
		}
		// The frame also decodes back to the envelope it came from.
		out, err := readFrame(&buf)
		if err != nil || out.Method != tc.env.Method || out.Reply != tc.env.Reply || out.Err != tc.env.Err || out.Floor != tc.env.Floor {
			t.Errorf("%v: decoded as %+v err=%v", tc.env.Method, out, err)
		}
	}
	// A ship-up-to carries the flush note's body but is a recovery call:
	// it must take the gob escape, not the flush tag.
	var buf bytes.Buffer
	if err := writeFrame(&buf, &envelope{ID: 12, Seq: 13, Method: msg.MRecoveryShipUpTo, Body: msg.FlushedNote{Page: 9, PSN: 77}}); err != nil {
		t.Fatal(err)
	}
	if tag := buf.Bytes()[8]; tag != tagGob {
		t.Fatalf("ship-up-to took tag %d, want the gob escape", tag)
	}
	if out, err := readFrame(&buf); err != nil || out.Method != msg.MRecoveryShipUpTo {
		t.Fatalf("ship-up-to decoded as %+v err=%v", out, err)
	}
}
