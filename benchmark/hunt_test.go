package main

import (
	"os"
	"testing"
	"time"
)

// TestHuntLostSharedUpdate reproduces, in seconds, a defect of the seed
// commit that the benchmark met in normal running and that keeps
// hot-readmostly out of BENCHMARK.json: two clients that keep reading and
// overwriting the same cached pages now and then lose an acknowledged update,
// or read a stale value under a shared lock.  No crash is involved.  One 20 s
// run of hot-readmostly in sixty ended with a bad read-back; with the same
// load over TCP, 7 of 30 runs of 10-20 s did (zipfian or uniform alike);
// shared-tcp, whose pages are evicted long before they grow old in a cache,
// one of 160 (a single failed operation, never reproduced).
//
// The loop shortens the wait: twice a second every object is read back
// through client 1, which leaves client 1 holding a cached S lock on
// everything, so that every later write must call it back.  On the seed
// commit the first bad read-back comes after 2-20 s of load, on loopback
// and over TCP (BENCH_HUNT=tcp) alike.
//
// What was tried, for whoever takes ROADMAP item 1 from here.  The failure
// needs read-write sharing and nothing else: it survives object-only locking
// (GranObject: no de-escalation), one writer per object, even one writer
// per page, bounded or unbounded logs, and reading back through a freshly
// joined third client instead of client 1.  The page dump printed on failure
// has shown three pictures: (1) reader and server hold the older slot, the
// writer's cache holds the newer one and was never asked to ship it, i.e. the
// server thought the reader's S lock compatible with everything it had
// granted; (2) the newer write is gone from every copy, the writer's own
// included, and the writer's page is clean; (3) as (2) with two later
// acknowledged writes, one from each client, both gone.  A suspect for (1): a
// grant and a callback for the same object cross; Client.CallbackObject
// answers "already released" when the lock is not cached yet
// (internal/core/client.go) and the grant still in flight then installs a
// cached lock the server no longer knows about.
//
// It is a hunt, not a check: it only runs when BENCH_HUNT is set, and it
// fails when it finds a bad read-back.
func TestHuntLostSharedUpdate(t *testing.T) {
	mode := os.Getenv("BENCH_HUNT")
	if mode == "" {
		t.Skip("set BENCH_HUNT=1 (loopback) or BENCH_HUNT=tcp to hunt for the lost shared update")
	}
	w := *workloadByName("hot-readmostly")
	w.tcp = mode == "tcp"
	for seed := int64(1); seed <= 8; seed++ {
		in, err := build(&w, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for sweep := 1; sweep <= 40; sweep++ {
			in.drive(phase{dur: 500 * time.Millisecond}, 0)
			for pg := 0; pg < w.pages; pg++ {
				chk := &checkResult{}
				in.verify(0, pg*objsPerPage, (pg+1)*objsPerPage, "sweep", chk)
				if chk.lost+chk.bad == 0 {
					continue
				}
				dump := "(no page dump over TCP)"
				if in.cluster != nil {
					dump = in.cluster.DebugPage(in.ids[pg])
				}
				in.close()
				t.Fatalf("seed %d, sweep %d: %s\n%s", seed, sweep, chk.first, dump)
			}
		}
		in.close()
	}
	t.Log("no bad read-back in 160 s of load: the defect may be fixed; hot-readmostly can be declared in BENCHMARK.json")
}
