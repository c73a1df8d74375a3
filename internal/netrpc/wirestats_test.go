package netrpc

import (
	"testing"

	"clientlog/internal/msg"
	"clientlog/internal/obs"
	"clientlog/internal/page"
)

// wireFrames sums netrpc_frames_total over one {method, version} cell.
func wireFrames(snap obs.Snapshot, method, version string) uint64 {
	var n uint64
	for k, v := range snap.Counters {
		fam, _ := obs.ParseKey(k)
		if fam == "netrpc_frames_total" &&
			obs.TagValue(k, "method") == method &&
			obs.TagValue(k, "version") == version {
			n += v
		}
	}
	return n
}

// instanceWireStats returns a live per-instance accounting sink and the
// registry it reports into.
func instanceWireStats() (*WireStats, *obs.Registry) {
	reg := obs.NewRegistry()
	ws := &WireStats{}
	ws.RegisterObs(reg)
	return ws, reg
}

// TestWireTagTablesComplete pins the bookkeeping that decoding and
// recordV3 rely on: every binary tag but the empty reply belongs to a
// method, every request tag to a distinct one, so a tag added to the
// codec cannot dispatch wrongly or vanish from netrpc_frames_total.
func TestWireTagTablesComplete(t *testing.T) {
	reqs := make(map[msg.Method]int)
	for tag := tagGob + 1; tag < tagCount; tag++ {
		if tagMethod[tag] == msg.MNone && tag != tagEmpty {
			t.Errorf("tag %d belongs to no method", tag)
		}
		if !tagReply[tag] {
			reqs[tagMethod[tag]]++
		}
		if tagLabel(tag) == "" {
			t.Errorf("tag %d has no wire-stats label", tag)
		}
	}
	for m, n := range reqs {
		if n != 1 {
			t.Errorf("%v has %d request tags", m, n)
		}
	}
}

// TestWireStatsAccounting checks the per-method/per-version frame
// accounting: the hello and the other cold messages show up as v3gob
// (gob inside the v3 header), the hot lock/commit path as binary v3,
// with bytes and encode/decode time alongside, and no frame under any
// other version label.
func TestWireStatsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterWireObs(reg)
	t.Cleanup(func() { Wire.enabled.Store(false) })

	cfg := testCfg()
	_, srv, ids := startCluster(t, cfg, 2)
	c, tr := dialClient(t, cfg, srv.Addr().String())
	if v := tr.NegotiatedVersion(); v != ProtocolVersion {
		t.Fatalf("negotiated v%d, want v%d", v, ProtocolVersion)
	}

	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, []byte("wirestats-16byte")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	frames := func(method, version string) uint64 { return wireFrames(snap, method, version) }

	// The hello opens the connection on the gob escape like any other
	// cold message.
	if n := frames("hello", "v3gob"); n == 0 {
		t.Error("no v3gob hello frames recorded")
	}
	// The session moves locks and fetches as binary v3.
	// (Commit itself is a local WAL force — client-based logging — so
	// no commit frame appears for this tiny write.)
	if n := frames("lock", "v3"); n == 0 {
		t.Error("no v3 lock frames recorded")
	}
	if n := frames("fetch", "v3"); n == 0 {
		t.Error("no v3 fetch frames recorded")
	}
	// Register has no binary v3 layout, so it rides the gob escape —
	// exactly the traffic the v3gob label exists to expose.
	if n := frames("register", "v3gob"); n == 0 {
		t.Error("no v3gob register frames recorded")
	}
	// Bytes travel with the frames, and the timing histograms fill in.
	if snap.Total("netrpc_bytes_total") == 0 {
		t.Error("no bytes recorded")
	}
	if v := snap.HistWhere("netrpc_encode_nanos", obs.T("version", "v3")); v.Count == 0 {
		t.Error("no v3 encode timings recorded")
	}
	if v := snap.HistWhere("netrpc_decode_nanos", obs.T("version", "v3")); v.Count == 0 {
		t.Error("no v3 decode timings recorded")
	}
	// Every series carries both tags (nothing leaks untagged), and the
	// version label takes exactly the two values the wire has.
	for k := range snap.Counters {
		fam, _ := obs.ParseKey(k)
		if fam != "netrpc_frames_total" && fam != "netrpc_bytes_total" {
			continue
		}
		if obs.TagValue(k, "method") == "" {
			t.Errorf("series %s lacks a method tag", k)
		}
		if v := obs.TagValue(k, "version"); v != wireVerV3 && v != wireVerV3Gob {
			t.Errorf("series %s carries version %q", k, v)
		}
	}
}
