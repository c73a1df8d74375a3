package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/page"
)

// RecoveryResult reports one crash/recovery experiment.
type RecoveryResult struct {
	Label        string
	RecoveryTime time.Duration
	DirtyPages   int    // DPT size at crash
	LogBytes     uint64 // private (or server) log size scanned
	PagesFetched uint64 // pages pulled during recovery
	PagesShipped uint64 // pages pushed during recovery
	Msgs         uint64 // protocol messages during recovery
}

// RunClientCrashRecovery measures §3.3: one client performs `updates`
// committed single-object update transactions spread over `pages`
// pages (checkpointing every ckptEvery commits when > 0), crashes, and
// restarts.  Recovery wall time and traffic are reported.
func RunClientCrashRecovery(cfg core.Config, pages, updates, ckptEvery int, seed int64) (RecoveryResult, error) {
	return RunClientCrashRecoveryFlush(cfg, pages, updates, ckptEvery, 0, seed)
}

// RunClientCrashRecoveryFlush is RunClientCrashRecovery with a
// background-flush knob: every flushEvery commits the server writes its
// dirty pages to disk (0 disables).  Flushing advances the client's DPT
// RedoLSNs via flush notifications, bounding the redo pass the way a
// live system's background writer would.
func RunClientCrashRecoveryFlush(cfg core.Config, pages, updates, ckptEvery, flushEvery int, seed int64) (RecoveryResult, error) {
	cfg.CheckpointEvery = ckptEvery
	// A small client cache makes replacement (and hence flush-ack
	// bookkeeping) actually happen.
	cfg.ClientPool = 8
	cl := core.NewCluster(cfg)
	ids, err := cl.SeedPages(pages, 16, 32)
	if err != nil {
		return RecoveryResult{}, err
	}
	c, err := cl.AddClient()
	if err != nil {
		return RecoveryResult{}, err
	}
	gen := NewGen(DefaultWorkload(Uniform), 0, 1, ids, seed)
	for i := 0; i < updates; i++ {
		txn, err := c.Begin()
		if err != nil {
			return RecoveryResult{}, err
		}
		obj, _ := gen.Next()
		if err := txn.Overwrite(obj, gen.Value()); err != nil {
			return RecoveryResult{}, err
		}
		if err := txn.Commit(); err != nil {
			return RecoveryResult{}, err
		}
		if flushEvery > 0 && i%flushEvery == flushEvery-1 {
			// Background disk writer at the server.
			if err := cl.Server().FlushAll(); err != nil {
				return RecoveryResult{}, err
			}
		}
	}
	dirty := len(c.DPTSnapshot())
	logBytes := c.Log().BytesAppended()
	msgs0 := cl.Stats.Messages()
	cl.CrashClient(c.ID())
	start := time.Now()
	rec, err := cl.RestartClient(c.ID())
	if err != nil {
		return RecoveryResult{}, err
	}
	return RecoveryResult{
		Label:        fmt.Sprintf("updates=%d ckpt=%d", updates, ckptEvery),
		RecoveryTime: time.Since(start),
		DirtyPages:   dirty,
		LogBytes:     logBytes,
		PagesFetched: rec.Metrics.PagesFetched.Load(),
		PagesShipped: rec.Metrics.PagesShipped.Load(),
		Msgs:         cl.Stats.Messages() - msgs0,
	}, nil
}

// RunServerCrashRecovery measures §3.4: nClients clients each dirty
// pagesPerClient pages (one committed transaction per page), replace
// them to the server (so the freshest copies live only in the server
// buffer), the server crashes, and restart recovery redistributes the
// per-page redo work to the clients in parallel.
func RunServerCrashRecovery(cfg core.Config, nClients, pagesPerClient int, seed int64) (RecoveryResult, error) {
	cl := core.NewCluster(cfg)
	ids, err := cl.SeedPages(nClients*pagesPerClient, 16, 32)
	if err != nil {
		return RecoveryResult{}, err
	}
	clients := make([]*core.Client, nClients)
	for i := range clients {
		if clients[i], err = cl.AddClient(); err != nil {
			return RecoveryResult{}, err
		}
	}
	for i, c := range clients {
		gen := NewGen(DefaultWorkload(Uniform), i, nClients, ids, seed)
		for p := 0; p < pagesPerClient; p++ {
			pid := ids[i*pagesPerClient+p]
			txn, err := c.Begin()
			if err != nil {
				return RecoveryResult{}, err
			}
			for s := 0; s < 4; s++ {
				if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: uint16(s)}, gen.Value()); err != nil {
					return RecoveryResult{}, err
				}
			}
			if err := txn.Commit(); err != nil {
				return RecoveryResult{}, err
			}
			if err := c.ReplacePage(pid); err != nil {
				return RecoveryResult{}, err
			}
		}
	}
	msgs0 := cl.Stats.Messages()
	cl.CrashServer()
	start := time.Now()
	if err := cl.RestartServer(); err != nil {
		return RecoveryResult{}, err
	}
	res := RecoveryResult{
		Label:        fmt.Sprintf("clients=%d pages/client=%d", nClients, pagesPerClient),
		RecoveryTime: time.Since(start),
		DirtyPages:   nClients * pagesPerClient,
		LogBytes:     cl.Server().Log().BytesAppended(),
		Msgs:         cl.Stats.Messages() - msgs0,
	}
	for i := range clients {
		c := cl.Client(clients[i].ID())
		res.PagesFetched += c.Metrics.PagesFetched.Load()
		res.PagesShipped += c.Metrics.PagesShipped.Load()
	}
	return res, nil
}

// RunComplexCrash measures §3.5: the server and k of the n clients
// crash together; the remaining clients participate in server recovery
// and the crashed clients then run restart recovery.
func RunComplexCrash(cfg core.Config, nClients, k, pagesPerClient int, seed int64) (RecoveryResult, error) {
	cl := core.NewCluster(cfg)
	ids, err := cl.SeedPages(nClients*pagesPerClient, 16, 32)
	if err != nil {
		return RecoveryResult{}, err
	}
	clients := make([]*core.Client, nClients)
	for i := range clients {
		if clients[i], err = cl.AddClient(); err != nil {
			return RecoveryResult{}, err
		}
	}
	for i, c := range clients {
		gen := NewGen(DefaultWorkload(Uniform), i, nClients, ids, seed)
		for p := 0; p < pagesPerClient; p++ {
			pid := ids[i*pagesPerClient+p]
			txn, err := c.Begin()
			if err != nil {
				return RecoveryResult{}, err
			}
			if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: 0}, gen.Value()); err != nil {
				return RecoveryResult{}, err
			}
			if err := txn.Commit(); err != nil {
				return RecoveryResult{}, err
			}
		}
	}
	var down []ident.ClientID
	for i := 0; i < k; i++ {
		down = append(down, clients[i].ID())
	}
	msgs0 := cl.Stats.Messages()
	cl.CrashServer(down...)
	start := time.Now()
	if err := cl.RestartServer(); err != nil {
		return RecoveryResult{}, err
	}
	for _, id := range down {
		if _, err := cl.RestartClient(id); err != nil {
			return RecoveryResult{}, err
		}
	}
	return RecoveryResult{
		Label:        fmt.Sprintf("clients=%d down=%d", nClients, k),
		RecoveryTime: time.Since(start),
		DirtyPages:   nClients * pagesPerClient,
		Msgs:         cl.Stats.Messages() - msgs0,
	}, nil
}

// RunCheckpointDuringLoad measures claim 6 (independent fuzzy
// checkpoints): client 1 takes `ckpts` checkpoints while the other
// clients run the workload; the reported result is the workload
// throughput, to be compared against a run with zero checkpoints.
func RunCheckpointDuringLoad(cfg core.Config, nClients, txns, ckpts int, seed int64) (Result, error) {
	cl := core.NewCluster(cfg)
	w := DefaultWorkload(HotCold)
	ids, err := cl.SeedPages(w.Pages, w.ObjsPerPage, w.ObjSize)
	if err != nil {
		return Result{}, err
	}
	clients := make([]*core.Client, nClients)
	for i := range clients {
		if clients[i], err = cl.AddClient(); err != nil {
			return Result{}, err
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < ckpts; i++ {
			clients[0].Checkpoint()
		}
	}()
	start := time.Now()
	res := Result{Scheme: "paper", Workload: w.Kind.String(), Clients: nClients - 1}
	errCh := make(chan error, nClients)
	doneCh := make(chan struct{}, nClients)
	for i := 1; i < nClients; i++ {
		go func(i int) {
			gen := NewGen(w, i, nClients, ids, seed)
			var sink atomic.Int64
			backoff := time.Millisecond
			for c := 0; c < txns; {
				if err := runOneTxn(cl.Client(clients[i].ID()), gen, &sink); err != nil {
					if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout) {
						time.Sleep(backoff)
						if backoff < 32*time.Millisecond {
							backoff *= 2
						}
						continue
					}
					errCh <- err
					return
				}
				c++
				backoff = time.Millisecond
			}
			doneCh <- struct{}{}
		}(i)
	}
	for i := 1; i < nClients; i++ {
		select {
		case err := <-errCh:
			return Result{}, err
		case <-doneCh:
		}
	}
	<-done
	res.Elapsed = time.Since(start)
	for i := 1; i < nClients; i++ {
		res.Commits += clients[i].Metrics.Commits.Load()
	}
	return res, nil
}
