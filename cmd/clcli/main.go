// Command clcli is an interactive (or scripted) client for a clsrv
// server — or, with a comma-separated -addr list, for a partitioned
// fleet of them: each address gets its own netrpc conn and a fleet
// router forwards every page-addressed call to the owning partition.  All transactional
// facilities run locally: the private log lives in -log, commit forces
// only that file, and crash recovery is local (restart with the same
// -log and -id to recover).  Pass -diskless to host the private log at
// the server instead (Section 2's option for clients without local
// disks).
//
//	clcli -addr 127.0.0.1:7070 -log ./client.log
//	clcli -addr 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//
// Type `help` for the command language (see internal/repl).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/fleet"
	"clientlog/internal/ident"
	"clientlog/internal/msg"
	"clientlog/internal/netrpc"
	"clientlog/internal/obs"
	"clientlog/internal/obs/fleetobs"
	"clientlog/internal/obs/span"
	"clientlog/internal/repl"
	"clientlog/internal/wal"
)

func main() {
	addrs := flag.String("addr", "127.0.0.1:7070", "server address, or comma-separated fleet addresses in partition order")
	logPath := flag.String("log", "./client.log", "private log file")
	id := flag.Uint("id", 0, "recover as this previously crashed client id")
	objSize := flag.Int("objsize", 32, "object size for write padding")
	diskless := flag.Bool("diskless", false, "host the private log at the server")
	fleetAdmin := flag.String("fleet-admin", "", "serve the fleet observability plane (merged /metrics, stitched /trace/<txnid>, merged /waitsfor, /rates, /alerts) on this address")
	fleetPeers := flag.String("fleet-peers", "", "comma-separated admin base URLs of the fleet members in partition order (e.g. http://127.0.0.1:7171,http://127.0.0.1:7172); used with -fleet-admin")
	flag.Parse()

	srv, transports, err := dialFleet(strings.Split(*addrs, ","))
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer func() {
		for _, tr := range transports {
			tr.Close()
		}
	}()

	cfg := core.DefaultConfig()
	// Trace every interactive transaction: the sampled context travels
	// on each RPC, so the server's /trace/<txnid> admin endpoint can
	// attribute its side of the work (GLM waits, callbacks) to the
	// transactions typed here.  Interactive rates make sampling moot.
	cfg.Spans = span.NewStore(span.Options{SampleEvery: 1})
	client, err := connect(cfg, srv, *logPath, ident.ClientID(*id), *diskless)
	if err != nil {
		log.Fatal(err)
	}
	// Callbacks (lock revokes, page recalls) can arrive on any
	// partition's conn.
	for _, tr := range transports {
		tr.SetLocal(client)
	}
	fmt.Printf("connected as client %v over %d conn(s) (recover later with -id %d)\n",
		client.ID(), len(transports), uint32(client.ID()))

	if *fleetAdmin != "" {
		// The client side of the observability plane: its own registry
		// and span store (the published commit traces are the stitch
		// base) plus one HTTP scrape source per fleet member.
		reg := obs.NewRegistry()
		client.RegisterObs(reg)
		netrpc.RegisterObs(reg)
		netrpc.RegisterWireObs(reg)
		cfg.Spans.RegisterObs(reg)
		sources := []fleetobs.Source{&fleetobs.LocalSource{
			SourceName: "client", Client: true, Registry: reg, Spans: cfg.Spans,
		}}
		for i, u := range strings.Split(*fleetPeers, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			sources = append(sources, &fleetobs.HTTPSource{
				SourceName: fmt.Sprintf("p%d", i),
				Base:       strings.TrimRight(u, "/"),
			})
		}
		plane := fleetobs.NewPlane(sources, fleetobs.AlertConfig{})
		plane.Monitor().Start(time.Second)
		defer plane.Monitor().Stop()
		ln, err := net.Listen("tcp", *fleetAdmin)
		if err != nil {
			log.Fatalf("fleet admin: %v", err)
		}
		go func() { _ = http.Serve(ln, plane.Handler()) }()
		fmt.Printf("fleet observability plane on http://%s (%d source(s))\n",
			ln.Addr(), len(sources))
	}

	sess := repl.NewSession(client, *objSize)
	defer sess.Close()
	if err := sess.Run(os.Stdin, os.Stdout, true); err != nil {
		fmt.Fprintf(os.Stderr, "repl: %v\n", err)
	}
	if err := client.Disconnect(); err != nil {
		fmt.Fprintf(os.Stderr, "disconnect: %v\n", err)
	}
}

// dialFleet opens one netrpc conn per address.  A single address is
// plain forwarding; several become a partition router over the
// per-partition conns, in the order given (which must match the fleet's
// partition order on every client).
func dialFleet(addrs []string) (msg.Server, []*netrpc.Transport, error) {
	transports := make([]*netrpc.Transport, 0, len(addrs))
	parts := make([]msg.Server, 0, len(addrs))
	for _, a := range addrs {
		tr, err := netrpc.Dial(strings.TrimSpace(a))
		if err != nil {
			for _, open := range transports {
				open.Close()
			}
			return nil, nil, fmt.Errorf("%s: %w", a, err)
		}
		transports = append(transports, tr)
		parts = append(parts, tr)
	}
	if len(parts) == 1 {
		return parts[0], transports, nil
	}
	return fleet.NewRouter(parts), transports, nil
}

// connect builds the client engine: fresh or recovering, local-disk or
// diskless.
func connect(cfg core.Config, srv msg.Server, logPath string, id ident.ClientID, diskless bool) (*core.Client, error) {
	var logStore wal.Store
	if diskless {
		if id == 0 {
			// Register first: the remote log device needs the id.
			reply, err := srv.Register(msg.RegisterReq{})
			if err != nil {
				return nil, err
			}
			return core.NewClientWithID(cfg, srv, core.NewRemoteLogStore(srv, reply.ID), reply.ID)
		}
		logStore = core.NewRemoteLogStore(srv, id)
	} else {
		fs, err := wal.OpenFileStore(logPath, 0)
		if err != nil {
			return nil, fmt.Errorf("opening private log: %w", err)
		}
		logStore = fs
	}
	if id != 0 {
		c, err := core.RecoverClient(cfg, srv, logStore, id)
		if err != nil {
			return nil, fmt.Errorf("restart recovery: %w", err)
		}
		fmt.Printf("recovered as client %v\n", c.ID())
		return c, nil
	}
	return core.NewClient(cfg, srv, logStore)
}
