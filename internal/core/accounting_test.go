package core

import (
	"reflect"
	"testing"

	"clientlog/internal/page"
)

// TestAccountingGolden pins the loopback transport's message and byte
// accounting on a seeded workload that crosses every kind of traffic a
// cluster sends — single and batched lock and fetch, de-escalation and
// object callbacks, replacement ships, forces and a disconnect, a client
// restart (§3.3) and a server restart (§3.4).  The numbers are the ones
// the hand-written loopback transport produced before the method table
// priced each call; they may change only with the protocol.
func TestAccountingGolden(t *testing.T) {
	cfg := testConfig()
	cl, ids, cs := seededCluster(t, cfg, 8, 3)
	a, b, c := cs[0], cs[1], cs[2]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(c *Client, pid page.ID, slot uint16, tag byte) {
		t.Helper()
		txn, err := c.Begin()
		must(err)
		must(txn.Overwrite(page.ObjectID{Page: pid, Slot: slot}, val(tag)))
		must(txn.Commit())
	}
	// Single-object writes: lock + fetch, adaptive page grants.
	ta, _ := a.Begin()
	for i := 0; i < 4; i++ {
		must(ta.Overwrite(page.ObjectID{Page: ids[i], Slot: 0}, val('a')))
	}
	must(ta.Commit())
	// Batched reads: lock-batch + fetch-batch.
	tb, _ := b.Begin()
	if _, err := tb.ReadMany([]page.ObjectID{{Page: ids[4], Slot: 1}, {Page: ids[5], Slot: 1}, {Page: ids[6], Slot: 1}}); err != nil {
		t.Fatal(err)
	}
	must(tb.Commit())
	// Another object of a page a holds at page level: de-escalation; the
	// object a wrote: an object callback shipping the page.
	write(b, ids[0], 1, 'b')
	write(b, ids[1], 0, 'B')
	must(a.ReplacePage(ids[2]))
	// A clean departure ships and forces every page its log covers.
	write(c, ids[7], 3, 'c')
	must(cl.RemoveClient(c.ID()))
	cl.CrashClient(a.ID())
	a, err := cl.RestartClient(a.ID())
	must(err)
	write(a, ids[3], 2, 'r')
	must(a.ReplacePage(ids[3]))
	cl.CrashServer()
	must(cl.RestartServer())
	write(b, ids[3], 2, 's')

	if got, want := cl.Stats.Messages(), uint64(89); got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
	if got, want := cl.Stats.Bytes(), uint64(33992); got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
	want := map[string]uint64{
		"cb.deescalate": 6, "cb.object": 4, "disconnect": 2, "fetch": 24, "fetch-batch": 2,
		"cb.fetch-cached": 4, "force": 2, "lock": 16, "lock-batch": 2, "cb.flushed": 1,
		"recover-end": 2, "cb.recover-page": 2, "recover-query": 2, "cb.recovery-info": 4,
		"register": 8, "ship": 8,
	}
	if got := cl.Stats.ByName(); !reflect.DeepEqual(got, want) {
		t.Errorf("per-method messages:\n got %v\nwant %v", got, want)
	}
}
