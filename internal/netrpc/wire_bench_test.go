package netrpc

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"clientlog/internal/lock"
	"clientlog/internal/msg"
)

// hotPayload validates a v3 frame payload the way the read loop does
// (header + checksum) and returns the body bytes for a typed decode.
// This is the engine's hot receive path minus the interface boxing that
// decodeEnvelopeV3 pays to fit the generic envelope.
func hotPayload(tb testing.TB, payload []byte) []byte {
	if len(payload) < v3HeaderSize {
		tb.Fatal("short v3 payload")
	}
	if crc32.ChecksumIEEE(payload[4:]) != binary.LittleEndian.Uint32(payload[:4]) {
		tb.Fatal("v3 checksum mismatch")
	}
	if payload[5]&v3FlagHasErr != 0 {
		tb.Fatal("unexpected error flag")
	}
	return payload[v3HeaderSize:]
}

func benchLockEnv() *envelope {
	return &envelope{
		ID:     7,
		Seq:    42,
		Method: msg.MLock,
		Body: msg.LockReq{
			Client:    3,
			Name:      lock.Name{Page: 9, Slot: 4},
			Mode:      lock.X,
			HasCached: true,
			CachedPSN: 77,
		},
	}
}

// benchCarryLockEnv is a lock request that carries one evicted page of
// imageLen bytes and the releases of its locks.
func benchCarryLockEnv(imageLen int) *envelope {
	env := benchLockEnv()
	req := env.Body.(msg.LockReq)
	req.Carry = &msg.Carry{
		Seq:      11,
		Pages:    []msg.PageImage{{Page: 8, Image: make([]byte, imageLen)}},
		Releases: []lock.Name{lock.PageName(8), {Page: 8, Slot: 3}},
	}
	env.Body = req
	return env
}

func benchFetchReplyEnv(imageLen int) *envelope {
	img := make([]byte, imageLen)
	for i := range img {
		img[i] = byte(i)
	}
	return &envelope{ID: 8, Reply: true, Body: msg.FetchReply{Image: img, DCTPSN: 12}}
}

func benchCallbackReqEnv() *envelope {
	return &envelope{
		ID:     9,
		Seq:    43,
		Method: msg.MCallbackObject,
		Body:   msg.CallbackReq{Requester: 2, Object: lock.Name{Page: 9, Slot: 4}, Wanted: lock.X},
	}
}

func benchCallbackReplyEnv(imageLen int) *envelope {
	var img []byte
	if imageLen > 0 {
		img = make([]byte, imageLen)
	}
	return &envelope{ID: 9, Reply: true, Body: msg.CallbackReply{Released: true, Image: img, HadPage: imageLen > 0}}
}

// TestWireHotPathZeroAllocs is the allocation gate for the v3 fast
// path: encoding a hot envelope into a reused frame buffer and decoding
// its body into a reused struct must not allocate at all in steady
// state.  Skipped under the race detector, whose instrumentation
// allocates.
func TestWireHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	cases := []struct {
		name string
		env  *envelope
		dec  func(d *msg.WireDec)
	}{
		{
			name: "lock-req",
			env:  benchLockEnv(),
			dec: func() func(*msg.WireDec) {
				var req msg.LockReq
				return func(d *msg.WireDec) { req.DecodeWire(d) }
			}(),
		},
		// A lock request carrying an evicted page decodes into the previous
		// request's carrier, its lists and its image buffer.
		{
			name: "lock-req-carry-4k",
			env:  benchCarryLockEnv(4096),
			dec: func() func(*msg.WireDec) {
				var req msg.LockReq
				return func(d *msg.WireDec) { req.DecodeWire(d) }
			}(),
		},
		{
			name: "fetch-reply-4k",
			env:  benchFetchReplyEnv(4096),
			dec: func() func(*msg.WireDec) {
				var rep msg.FetchReply
				return func(d *msg.WireDec) { rep.DecodeWire(d) }
			}(),
		},
		// The callback round trip: request out, reply back without a page
		// (lock not cached or clean) and with one (decoded into a reused
		// struct the image copy reuses its buffer too).
		{
			name: "callback-req",
			env:  benchCallbackReqEnv(),
			dec: func() func(*msg.WireDec) {
				var req msg.CallbackReq
				return func(d *msg.WireDec) { req.DecodeWire(d) }
			}(),
		},
		{
			name: "callback-reply",
			env:  benchCallbackReplyEnv(0),
			dec: func() func(*msg.WireDec) {
				var rep msg.CallbackReply
				return func(d *msg.WireDec) { rep.DecodeWire(d) }
			}(),
		},
		{
			name: "callback-reply-4k",
			env:  benchCallbackReplyEnv(4096),
			dec: func() func(*msg.WireDec) {
				var rep msg.CallbackReply
				return func(d *msg.WireDec) { rep.DecodeWire(d) }
			}(),
		},
		{
			name: "deescalate-req",
			env:  &envelope{ID: 10, Seq: 44, Method: msg.MDeescalatePage, Body: msg.DeescReq{Requester: 2, Page: 9, Wanted: lock.S}},
			dec: func() func(*msg.WireDec) {
				var req msg.DeescReq
				return func(d *msg.WireDec) { req.DecodeWire(d) }
			}(),
		},
		{
			name: "deescalate-reply",
			env:  &envelope{ID: 10, Reply: true, Body: msg.DeescReply{Objs: []lock.ObjLock{{Slot: 4, Mode: lock.X}}}},
			dec: func() func(*msg.WireDec) {
				var rep msg.DeescReply
				return func(d *msg.WireDec) { rep.DecodeWire(d) }
			}(),
		},
		{
			name: "flushed-note",
			env:  &envelope{Method: msg.MNotifyFlushed, Body: msg.FlushedNote{Page: 9, PSN: 77}},
			dec: func() func(*msg.WireDec) {
				var note msg.FlushedNote
				return func(d *msg.WireDec) { note.DecodeWire(d) }
			}(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := getBuf(bufMed)
			defer putBuf(w)
			var d msg.WireDec
			allocs := testing.AllocsPerRun(1000, func() {
				w.b = w.b[:0]
				if err := encodeEnvelopeV3(w, tc.env); err != nil {
					t.Fatal(err)
				}
				d.Reset(hotPayload(t, w.b[4:]))
				tc.dec(&d)
				if d.Err() != nil || d.Remaining() != 0 {
					t.Fatalf("decode: err=%v rem=%d", d.Err(), d.Remaining())
				}
			})
			if allocs != 0 {
				t.Fatalf("hot wire path allocates %.1f per op, want 0", allocs)
			}
		})
	}
}

// BenchmarkWire times the v3 binary codec on the hot message shapes; CI
// gates on every row staying at 0 allocs/op.
func BenchmarkWire(b *testing.B) {
	b.Run("lock-req-v3", func(b *testing.B) {
		env := benchLockEnv()
		w := getBuf(bufSmall)
		defer putBuf(w)
		var d msg.WireDec
		var req msg.LockReq
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.b = w.b[:0]
			if err := encodeEnvelopeV3(w, env); err != nil {
				b.Fatal(err)
			}
			d.Reset(hotPayload(b, w.b[4:]))
			req.DecodeWire(&d)
			if d.Err() != nil {
				b.Fatal(d.Err())
			}
		}
	})
	b.Run("lock-req-carry-8k-v3", func(b *testing.B) {
		env := benchCarryLockEnv(8192)
		w := getBuf(bufMed)
		defer putBuf(w)
		var d msg.WireDec
		var req msg.LockReq
		b.SetBytes(8192)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.b = w.b[:0]
			if err := encodeEnvelopeV3(w, env); err != nil {
				b.Fatal(err)
			}
			d.Reset(hotPayload(b, w.b[4:]))
			req.DecodeWire(&d)
			if d.Err() != nil {
				b.Fatal(d.Err())
			}
		}
	})
	b.Run("fetch-reply-8k-v3", func(b *testing.B) {
		env := benchFetchReplyEnv(8192)
		w := getBuf(bufMed)
		defer putBuf(w)
		var d msg.WireDec
		var rep msg.FetchReply
		b.SetBytes(8192)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.b = w.b[:0]
			if err := encodeEnvelopeV3(w, env); err != nil {
				b.Fatal(err)
			}
			d.Reset(hotPayload(b, w.b[4:]))
			rep.DecodeWire(&d)
			if d.Err() != nil {
				b.Fatal(d.Err())
			}
		}
	})
	// One object callback, both directions: what a lock RPC on a shared
	// database waits for on top of its own round trip.
	b.Run("callback-rtt-v3", func(b *testing.B) {
		reqEnv, repEnv := benchCallbackReqEnv(), benchCallbackReplyEnv(0)
		w := getBuf(bufSmall)
		defer putBuf(w)
		var d msg.WireDec
		var req msg.CallbackReq
		var rep msg.CallbackReply
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.b = w.b[:0]
			if err := encodeEnvelopeV3(w, reqEnv); err != nil {
				b.Fatal(err)
			}
			d.Reset(hotPayload(b, w.b[4:]))
			req.DecodeWire(&d)
			w.b = w.b[:0]
			if err := encodeEnvelopeV3(w, repEnv); err != nil {
				b.Fatal(err)
			}
			d.Reset(hotPayload(b, w.b[4:]))
			rep.DecodeWire(&d)
			if d.Err() != nil {
				b.Fatal(d.Err())
			}
		}
	})
	b.Run("commit-ship-v3", func(b *testing.B) {
		env := &envelope{
			ID:     9,
			Seq:    50,
			Method: msg.MCommitShip,
			Body: msg.CommitShipReq{
				Client:  3,
				Txn:     1 << 33,
				Records: [][]byte{make([]byte, 96), make([]byte, 96), make([]byte, 96)},
			},
		}
		w := getBuf(bufSmall)
		defer putBuf(w)
		var d msg.WireDec
		var req msg.CommitShipReq
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.b = w.b[:0]
			if err := encodeEnvelopeV3(w, env); err != nil {
				b.Fatal(err)
			}
			d.Reset(hotPayload(b, w.b[4:]))
			req.DecodeWire(&d)
			if d.Err() != nil {
				b.Fatal(d.Err())
			}
		}
	})
}
