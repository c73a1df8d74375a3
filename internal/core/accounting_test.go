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
// restart (§3.3) and a server restart (§3.4).  The numbers may change
// only with the protocol.  The grant carries the page since protocol
// version 5: each of the 8 lock RPCs and the lock-batch used to be
// followed by a fetch or a fetch-batch, so 9 round trips (18 messages,
// 9 × 128 bytes of framing) went, while every page image still crosses
// the wire once.  The workload runs twice: with the pages fitting the
// clients' caches, and with two-page caches, where misses evict.  Since
// protocol version 7 a lock request that makes room carries the evicted
// pages and their releases, and 2 ship round trips of the 8 the evicting
// run sent (4 messages, 304 bytes) went.  Since protocol version 10 an
// image holds only its page's used bytes, not Size, and the bytes fell
// from 32 840 to 11 888 and from 38 968 to 14 136 with every message
// count unchanged.  Since Overwrite defers a write the cache does not
// cover, a's four writes ask for their locks in one lock-batch at
// commit, not in four locks: 71 messages fell to 65 and 11 888 bytes to
// 11 504.  With two-page caches the batch stops at the pool's two pages
// (two lock-batches), so no batch evicts its own pages: fetch and ship
// keep their 12, and 89 messages fell to 85, 14 136 bytes to 13 880.
func TestAccountingGolden(t *testing.T) {
	for _, tc := range []struct {
		name            string
		pool            int // client cache pages; 0 keeps testConfig's
		messages, bytes uint64
		byName          map[string]uint64
	}{
		{"cache-fits", 0, 65, 11504, map[string]uint64{
			"cb.deescalate": 6, "cb.object": 4, "disconnect": 2, "fetch": 8,
			"cb.fetch-cached": 4, "force": 2, "lock": 8, "lock-batch": 4, "cb.flushed": 1,
			"recover-end": 2, "cb.recover-page": 2, "recover-query": 2, "cb.recovery-info": 4,
			"register": 8, "ship": 8,
		}},
		{"two-page-caches", 2, 85, 13880, map[string]uint64{
			"cb.callback-list": 4, "cb.deescalate": 6, "cb.object": 4, "disconnect": 2, "fetch": 12,
			"fetch-batch": 2, "cb.fetch-cached": 4, "force": 2, "lock": 8, "lock-batch": 6, "cb.flushed": 1,
			"recover-end": 2, "cb.recover-page": 6, "recover-query": 2, "cb.recovery-info": 4,
			"register": 8, "ship": 12,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.pool > 0 {
				cfg.ClientPool = tc.pool
			}
			accountingRun(t, cfg, tc.messages, tc.bytes, tc.byName)
		})
	}
}

// accountingRun runs TestAccountingGolden's workload under cfg and
// checks the cluster's message and byte counts against the golden ones.
func accountingRun(t *testing.T, cfg Config, messages, bytes uint64, byName map[string]uint64) {
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
	// Single-object writes, deferred to the commit: a lock-batch carrying
	// the pages, adaptive page grants.
	ta, _ := a.Begin()
	for i := 0; i < 4; i++ {
		must(ta.Overwrite(page.ObjectID{Page: ids[i], Slot: 0}, val('a')))
	}
	must(ta.Commit())
	// Batched reads: one lock-batch carrying the pages.
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

	if got := cl.Stats.Messages(); got != messages {
		t.Errorf("messages = %d, want %d", got, messages)
	}
	if got := cl.Stats.Bytes(); got != bytes {
		t.Errorf("bytes = %d, want %d", got, bytes)
	}
	if got := cl.Stats.ByName(); !reflect.DeepEqual(got, byName) {
		t.Errorf("per-method messages:\n got %v\nwant %v", got, byName)
	}
}
