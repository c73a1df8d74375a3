// Command clsrv runs the page server over TCP with file-backed stable
// storage and server log.
//
//	clsrv -addr :7070 -dir ./data -seed-pages 16
//
// With -admin the server also exposes a live observability endpoint:
// /metrics (Prometheus text), /trace/<txnid> and /trace/slowest (causal
// span trees of sampled transactions), /waitsfor (live GLM wait graph,
// JSON or ?format=dot), /healthz, /debug/pprof, and /fleet/ — the
// raw-state export (metrics snapshot, span slices, tagged waits-for)
// the fleet aggregation plane scrapes (clcli -fleet-admin).
//
// Clients connect with cmd/clcli.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"clientlog/internal/core"
	"clientlog/internal/netrpc"
	"clientlog/internal/obs"
	"clientlog/internal/obs/fleetobs"
	"clientlog/internal/obs/span"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	admin := flag.String("admin", "", "serve /metrics, /trace/, /waitsfor, /fleet/, /healthz and pprof on this address (e.g. :7071)")
	dir := flag.String("dir", "./clsrv-data", "data directory (page store + server log)")
	pageSize := flag.Int("pagesize", 4096, "page size in bytes")
	seedPages := flag.Int("seed-pages", 0, "allocate this many empty pages if the store is fresh")
	seedObjs := flag.Int("seed-objects", 16, "objects per seeded page")
	seedSize := flag.Int("seed-objsize", 32, "bytes per seeded object")
	mutexProfile := flag.Int("mutexprofile", 5, "with -admin, sample 1/N mutex contention events for /debug/pprof/mutex (0 disables)")
	partitionSpec := flag.String("partition", "", "fleet membership as i/N: serve partition i of an N-way hash-partitioned page space (e.g. 0/3); this instance mints and owns only page ids congruent to i mod N, and tags its waits-for exports for the fleet deadlock detector")
	flag.Parse()

	partIdx, partN := 0, 1
	if *partitionSpec != "" {
		if _, err := fmt.Sscanf(*partitionSpec, "%d/%d", &partIdx, &partN); err != nil ||
			partN < 1 || partIdx < 0 || partIdx >= partN {
			log.Fatalf("bad -partition %q: want i/N with 0 <= i < N", *partitionSpec)
		}
	}

	store, err := storage.OpenDiskStore(filepath.Join(*dir, "pages"), *pageSize)
	if err != nil {
		log.Fatalf("opening page store: %v", err)
	}
	if partN > 1 {
		// Fresh allocations (seeding included) mint only owned ids.
		store.SetAllocStride(partN, partIdx)
	}
	if *seedPages > 0 && len(store.Allocated()) == 0 {
		for i := 0; i < *seedPages; i++ {
			p, err := store.Allocate()
			if err != nil {
				log.Fatalf("seeding: %v", err)
			}
			for s := 0; s < *seedObjs; s++ {
				if _, _, err := p.Insert(make([]byte, *seedSize)); err != nil {
					log.Fatalf("seeding page %d: %v", p.ID(), err)
				}
			}
			if err := store.Write(p); err != nil {
				log.Fatalf("seeding write: %v", err)
			}
		}
		log.Printf("seeded %d pages x %d objects x %dB", *seedPages, *seedObjs, *seedSize)
	}
	slog, err := wal.OpenFileStore(filepath.Join(*dir, "server.log"), 0)
	if err != nil {
		log.Fatalf("opening server log: %v", err)
	}

	cfg := core.DefaultConfig()
	cfg.PageSize = *pageSize
	cfg.Partitions = partN
	cfg.PartitionIndex = partIdx
	spans := span.NewDefaultStore()
	cfg.Spans = spans
	engine := core.NewServer(cfg, store, slog)
	engine.HostRemoteLogs(core.NewRemoteLogHost(0))

	if *admin != "" {
		// With the admin endpoint up, make /debug/pprof/mutex useful:
		// sample 1 in mutexprofile contention events so blocked time on
		// the server's page-shard, registry, notify and GLM-shard mutexes
		// is attributed to the call sites that waited.
		runtime.SetMutexProfileFraction(*mutexProfile)
		reg := obs.NewRegistry()
		engine.RegisterObs(reg)
		netrpc.RegisterWireObs(reg)
		adm, err := obs.StartAdmin(*admin, obs.AdminOptions{
			Registry: reg,
			Health:   engine.CheckInvariants,
			Handlers: map[string]http.Handler{
				"/trace/":   spans.TraceHandler(),
				"/waitsfor": span.WaitsForHandler(engine.GLM().WaitsFor),
				// Raw-state export the fleet aggregation plane scrapes
				// (clcli -fleet-admin).
				"/fleet/": fleetobs.MemberHandler(fleetobs.MemberOptions{
					Registry: reg,
					Spans:    spans,
					WaitsFor: engine.GLM().WaitsFor,
				}),
			},
		})
		if err != nil {
			log.Fatalf("admin: %v", err)
		}
		defer adm.Close()
		log.Printf("admin endpoint on http://%s", adm.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := netrpc.Serve(engine, ln)
	if partN > 1 {
		log.Printf("clsrv serving partition %d/%d on %s, data in %s (%d pages)",
			partIdx, partN, srv.Addr(), *dir, len(store.Allocated()))
	} else {
		log.Printf("clsrv serving on %s, data in %s (%d pages)", srv.Addr(), *dir, len(store.Allocated()))
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	<-sigc
	log.Printf("shutting down: flushing dirty pages and checkpointing")
	if err := engine.FlushAll(); err != nil {
		fmt.Fprintf(os.Stderr, "flush: %v\n", err)
	}
	if err := engine.Checkpoint(); err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
	}
	srv.Close()
}
