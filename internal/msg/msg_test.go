package msg_test

import (
	"errors"
	"testing"
	"time"

	"clientlog/internal/msg"
)

func TestLoopbackServerCountsMessages(t *testing.T) {
	stats := msg.NewStats()
	lb := msg.ServerConn{Caller: &msg.Loopback{Next: newFake(), Stats: stats}}
	if _, err := lb.Register(msg.RegisterReq{}); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Fetch(msg.FetchReq{}); err != nil {
		t.Fatal(err)
	}
	if err := lb.Ship(msg.ShipReq{Carry: msg.Carry{Pages: []msg.PageImage{{Image: make([]byte, 256)}}}}); err != nil {
		t.Fatal(err)
	}
	// 3 RPCs = 6 messages.
	if got := stats.Messages(); got != 6 {
		t.Fatalf("messages = %d, want 6", got)
	}
	// Bytes price the fetched image (the sample reply) and the shipped
	// one on top of the per-message overhead.
	fetched := len(samples[msg.MFetch].reply.(msg.FetchReply).Image)
	if got, want := stats.Bytes(), uint64(6*64+fetched+256); got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
	byName := stats.ByName()
	if byName["fetch"] != 2 || byName["ship"] != 2 || byName["register"] != 2 || len(byName) != 3 {
		t.Fatalf("per-call counts: %v", byName)
	}
	// A notification is one message.
	msg.ClientConn{Caller: &msg.Loopback{Next: newFake(), Stats: stats}}.NotifyFlushed(1, 2)
	if got := stats.ByName()["cb.flushed"]; got != 1 {
		t.Fatalf("notification counted as %d messages, want 1", got)
	}
}

func TestLoopbackLatencyApplied(t *testing.T) {
	lb := msg.ServerConn{Caller: &msg.Loopback{Next: newFake(), Latency: 5 * time.Millisecond, Stats: msg.NewStats()}}
	start := time.Now()
	if _, err := lb.Lock(msg.LockReq{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("RPC took %v, want >= 2x one-way latency", elapsed)
	}
}

func TestLoopbackErrorsPassThrough(t *testing.T) {
	wantErr := errors.New("boom")
	f := newFake()
	f.setErr(wantErr)
	lb := msg.ServerConn{Caller: &msg.Loopback{Next: f, Stats: msg.NewStats()}}
	if err := lb.Ship(msg.ShipReq{}); !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want passthrough", err)
	}
}

func TestStatsNilSafe(t *testing.T) {
	// A nil *Stats must be usable (tools that don't care about metrics).
	lb := msg.ServerConn{Caller: &msg.Loopback{Next: newFake()}}
	if _, err := lb.Force(msg.ForceReq{}); err != nil {
		t.Fatal(err)
	}
}
