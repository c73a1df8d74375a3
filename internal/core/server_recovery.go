package core

import (
	"fmt"
	"sync"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/trace"
	"clientlog/internal/wal"
)

// restartInfo is the state the server retains from its own restart
// recovery so that clients crashed at the same time (§3.5 complex
// crash) can later be answered by RecoverQuery.
type restartInfo struct {
	diskPSN map[page.ID]page.PSN
	logDCT  map[dctKey]page.PSN
	crashed map[ident.ClientID]bool
}

// dctInsertIfAbsent inserts a NULL DCT row for key unless one exists.
func (s *Server) dctInsertIfAbsent(key dctKey) {
	sh := s.shardOf(key.pg)
	sh.mu.Lock()
	if _, ok := sh.dct[key]; !ok {
		sh.dct[key] = &dctEntry{psn: 0, redoLSN: wal.NilLSN}
	}
	sh.mu.Unlock()
}

// RecoverServer runs the §3.4 server restart recovery on a freshly
// constructed Server over the surviving stable storage and server log.
//
//	operational: conns of the clients that survived the crash
//	crashed:     ids of clients that crashed together with the server
//	             (§3.5); they run RecoverClient afterwards
//
// The steps follow the paper: (a) determine the pages requiring
// recovery, (b) identify the involved clients, (c) reconstruct the DCT,
// (d) coordinate the per-page recovery among the involved clients —
// which proceeds in parallel across clients and pages (advantage 3).
func (s *Server) RecoverServer(operational map[ident.ClientID]msg.Client, crashed []ident.ClientID) error {
	s.ckpt.Store(true) // no checkpoint of reclaimLog's until this one's own
	defer s.ckpt.Store(false)
	for id, conn := range operational {
		s.Attach(id, conn)
	}
	s.Metrics.RecoverySteps.Inc()
	s.tracer.Record(trace.RecoveryStep, 0, 0,
		fmt.Sprintf("server restart: %d operational, %d crashed", len(operational), len(crashed)))
	ri := &restartInfo{
		diskPSN: make(map[page.ID]page.PSN),
		logDCT:  make(map[dctKey]page.PSN),
		crashed: make(map[ident.ClientID]bool),
	}
	s.complexMu.Lock()
	for _, c := range crashed {
		ri.crashed[c] = true
		s.complexPending[c] = true
	}
	s.complexMu.Unlock()
	for _, c := range crashed {
		s.glm.ClientCrashed(c)
	}

	// Solicit each operational client's DPT, cache list and LLM table;
	// the GLM is rebuilt from the latter.  Clients report fleet-wide
	// state (their caches span every partition), so a fleet member keeps
	// only the pages it owns — the rest are another partition's problem.
	infos := make(map[ident.ClientID]msg.RecoveryInfoReply)
	for id, conn := range operational {
		info, err := conn.RecoveryInfo()
		if err != nil {
			return fmt.Errorf("core: recovery info from %s: %w", id, err)
		}
		infos[id] = info
		for _, h := range info.Locks {
			if !s.owns(h.Name.Page) {
				continue
			}
			s.glm.Install(id, h.Name, h.Mode)
		}
	}

	// (a)+(b): candidates are pages with a DPT entry at some client that
	// does not cache the page; those (page, client) pairs are involved.
	type involvedKey struct {
		pid page.ID
		c   ident.ClientID
	}
	cached := make(map[ident.ClientID]map[page.ID]bool)
	for id, info := range infos {
		set := make(map[page.ID]bool, len(info.Cached))
		for _, pid := range info.Cached {
			set[pid] = true
		}
		cached[id] = set
	}
	var involved []involvedKey
	candidate := make(map[page.ID]bool)
	for id, info := range infos {
		for _, de := range info.DPT {
			if !s.owns(de.Page) {
				continue
			}
			if !cached[id][de.Page] {
				involved = append(involved, involvedKey{pid: de.Page, c: id})
				candidate[de.Page] = true
			}
		}
	}

	// (c) DCT reconstruction, steps 1-4 of §3.4.  Recovery runs before
	// the server serves requests, so per-shard locking here is about
	// memory ordering, not contention.
	//
	// Step 1: <PID, CID, NULL, NULL> for every page in an operational
	// client's DPT.
	for id, info := range infos {
		for _, de := range info.DPT {
			if !s.owns(de.Page) {
				continue
			}
			s.dctInsertIfAbsent(dctKey{pg: de.Page, c: id})
		}
	}
	// Invariant restoration (beyond the paper's step 1): a client may
	// hold a rebuilt exclusive lock on a page whose updates were all
	// flushed (no DPT entry).  Normal processing maintains "X held ⇒
	// DCT entry exists" — Lock() only inserts on the FIRST exclusive
	// grant — so reconstruct entries for every reported X lock too, or
	// the client's post-restart updates under the cached lock would be
	// invisible to its next crash recovery (found by the randomized
	// torture sweep, seed 1173).
	for id, info := range infos {
		for _, h := range info.Locks {
			if h.Mode != lock.X || !s.owns(h.Name.Page) {
				continue
			}
			s.dctInsertIfAbsent(dctKey{pg: h.Name.Page, c: id})
		}
	}
	// Step 2: read the candidate pages from disk and remember their
	// PSNs.
	for pid := range candidate {
		p, err := s.store.Read(pid)
		if err != nil {
			return fmt.Errorf("core: reading candidate page %d: %w", pid, err)
		}
		ri.diskPSN[pid] = p.PSN()
		sh := s.shardOf(pid)
		sh.mu.Lock()
		s.putPage(p, false)
		sh.mu.Unlock()
	}

	// Step 3: one pass over the server log remembers the last complete
	// checkpoint and every replacement record with its LSN.
	type replacementAt struct {
		lsn wal.LSN
		rep *wal.Replacement
	}
	var lastCkpt *wal.ServerCheckpoint
	var replacements []replacementAt
	sc := s.slog.Scan(s.slog.Horizon())
	for sc.Next() {
		switch r := sc.Record().(type) {
		case *wal.ServerCheckpoint:
			lastCkpt = r
		case *wal.Replacement:
			replacements = append(replacements, replacementAt{lsn: sc.LSN(), rep: r})
		}
	}
	if sc.Err() != nil {
		return fmt.Errorf("core: server log scan: %w", sc.Err())
	}
	// Step 3a: the DCT stored in that checkpoint gives the start: its
	// lowest RedoLSN, or the whole log without one.
	scanFrom := wal.NilLSN
	if lastCkpt != nil {
		for _, e := range lastCkpt.DCT {
			if e.RedoLSN != wal.NilLSN && (scanFrom == wal.NilLSN || e.RedoLSN < scanFrom) {
				scanFrom = e.RedoLSN
			}
		}
	}
	// Step 3b: apply the replacement records from there on; each record
	// touches only its page's shard.
	for _, ra := range replacements {
		if ra.lsn < scanFrom {
			continue
		}
		lsn, rep := ra.lsn, ra.rep
		sh := s.shardOf(rep.Page)
		sh.mu.Lock()
		anyEntry := false
		for k, e := range sh.dct {
			if k.pg != rep.Page {
				continue
			}
			anyEntry = true
			if e.redoLSN == wal.NilLSN {
				e.redoLSN = lsn // step 3b(i)
			}
		}
		// Step 3b(ii): the record matching the disk PSN pins down which
		// client updates the disk copy holds (Property 2).
		if disk, isCand := ri.diskPSN[rep.Page]; isCand && rep.PagePSN == disk {
			for _, ent := range rep.Entries {
				ri.logDCT[dctKey{pg: rep.Page, c: ent.Client}] = ent.PSN
				if anyEntry {
					if e, ok := sh.dct[dctKey{pg: rep.Page, c: ent.Client}]; ok {
						e.psn = ent.PSN
					}
				}
			}
		}
		sh.mu.Unlock()
	}

	// Pages in constructed DCT entries with still-NULL PSNs that are NOT
	// candidates get the disk PSN fallback at RecoverQuery time; for
	// candidate pages the §3.4 per-page recovery below fills them in.

	// Step 4: pull the cached copies of DPT pages from the operational
	// clients and merge them (updates the DCT PSNs through the ship
	// path).
	for id, conn := range operational {
		var want []page.ID
		for _, de := range infos[id].DPT {
			if s.owns(de.Page) && cached[id][de.Page] {
				want = append(want, de.Page)
			}
		}
		if len(want) == 0 {
			continue
		}
		images, err := conn.FetchCached(want)
		if err != nil {
			return fmt.Errorf("core: fetching cached pages from %s: %w", id, err)
		}
		for _, img := range images {
			p := new(page.Page)
			if uerr := p.UnmarshalBinary(img); uerr != nil {
				return uerr
			}
			sh := s.shardOf(p.ID())
			sh.mu.Lock()
			rerr := s.receiveShard(sh, id, p, msg.ShipCallback)
			sh.mu.Unlock()
			if rerr != nil {
				return rerr
			}
		}
		s.evict()
	}

	// (d) Per-page coordination: build the merged CallBack_P list for
	// each involved (page, client) pair and let the clients recover in
	// parallel.
	for _, ik := range involved {
		sh := s.shardOf(ik.pid)
		sh.mu.Lock()
		sh.recovering[dctKey{pg: ik.pid, c: ik.c}] = true
		sh.mu.Unlock()
	}
	// A failure while dispatching must not return with page recoveries
	// still running against this server: stop dispatching, wait for what
	// was launched, and take back the marks of the pages never reached.
	var wg sync.WaitGroup
	errs := make(chan error, len(involved))
	var dispatchErr error
	launched := 0
	for _, ik := range involved {
		cbList, err := s.collectCallbacks(operational, cached, ik.pid, ik.c)
		if err != nil {
			dispatchErr = err
			break
		}
		sh := s.shardOf(ik.pid)
		sh.mu.Lock()
		reply, ferr := s.fetchShard(sh, ik.c, ik.pid)
		var psn page.PSN
		if e, ok := sh.dct[dctKey{pg: ik.pid, c: ik.c}]; ok {
			psn = e.psn
		}
		sh.mu.Unlock()
		if psn == 0 {
			// No matching replacement entry: the disk PSN bounds what is
			// durable (see DESIGN.md on the NULL-PSN fallback).
			psn = ri.diskPSN[ik.pid]
		}
		if ferr != nil {
			dispatchErr = ferr
			break
		}
		conn := operational[ik.c]
		req := msg.RecoverPageReq{Page: ik.pid, Image: reply.Image, DCTPSN: psn, Callbacks: cbList}
		wg.Add(1)
		go func(conn msg.Client, req msg.RecoverPageReq) {
			defer wg.Done()
			if err := conn.RecoverPage(req); err != nil {
				errs <- err
			}
		}(conn, req)
		launched++
	}
	wg.Wait()
	close(errs)
	if dispatchErr != nil {
		for _, ik := range involved[launched:] {
			sh := s.shardOf(ik.pid)
			sh.mu.Lock()
			delete(sh.recovering, dctKey{pg: ik.pid, c: ik.c})
			sh.mu.Unlock()
		}
		return dispatchErr
	}
	for err := range errs {
		if err != nil {
			return fmt.Errorf("core: page recovery: %w", err)
		}
	}
	s.Metrics.RecoverySteps.Inc()
	s.tracer.Record(trace.RecoveryStep, 0, 0,
		fmt.Sprintf("server restart complete: %d page recoveries", len(involved)))

	s.stateMu.Lock()
	s.restart = ri
	s.stateMu.Unlock()
	// The origins held for exclusive grants died with the old server.
	// Rebuild them conservatively from the DCT: a client with a row for a
	// page but no lock on it may have released some with an evicted page,
	// so the page's first exclusive grant is owed it on every slot the
	// grant covers (DESIGN §6 item 15).
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.Lock()
		for k := range sh.dct {
			if !s.glm.HoldsAny(k.c, k.pg) {
				sh.rebuilt[k.pg] = append(sh.rebuilt[k.pg], k.c)
			}
		}
		sh.mu.Unlock()
	}
	// A fresh checkpoint shortens the next restart.
	return s.Checkpoint()
}

// collectCallbacks gathers the CallBack_P lists of §3.4 step 1 from
// every operational client that caches the page, merging entries for
// the same object by keeping the maximum PSN (step 2).
func (s *Server) collectCallbacks(operational map[ident.ClientID]msg.Client,
	cached map[ident.ClientID]map[page.ID]bool, pid page.ID, target ident.ClientID) ([]msg.CallbackOrigin, error) {
	best := make(map[page.ObjectID]msg.CallbackOrigin)
	for id, conn := range operational {
		if id == target {
			continue
		}
		if !cached[id][pid] {
			continue // §3.4: "each client Ci that has P in its cache"
		}
		reply, err := conn.CallbackList(msg.CallbackListReq{Page: pid, Target: target})
		if err != nil {
			return nil, fmt.Errorf("core: callback list from %s: %w", id, err)
		}
		for _, e := range reply.Entries {
			if cur, ok := best[e.Object]; !ok || e.PSN > cur.PSN {
				best[e.Object] = e
			}
		}
	}
	out := make([]msg.CallbackOrigin, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	return out, nil
}

// Reinstall implements msg.Server (§3.5): a client recovering from a
// complex crash regains the exclusive locks covering its uncommitted
// transactions.
func (s *Server) Reinstall(c ident.ClientID, holds []lock.Holding) error {
	for _, h := range holds {
		s.glm.Install(c, h.Name, h.Mode)
	}
	return nil
}

// RecoverQuery implements msg.Server: map a recovering client's DPT
// pages to the DCT rows bounding its redo pass.  Live DCT entries win;
// after a complex crash the rows are reconstructed from the replacement
// log records (Property 2) with the disk PSN as the fallback for pages
// that were never forced since the entry appeared.
func (s *Server) RecoverQuery(c ident.ClientID, pages []page.ID) ([]msg.DCTRow, error) {
	s.stateMu.Lock()
	restart := s.restart
	s.stateMu.Unlock()
	var rows []msg.DCTRow
	for _, pid := range pages {
		sh := s.shardOf(pid)
		sh.mu.Lock()
		e, live := sh.dct[dctKey{pg: pid, c: c}]
		var psn page.PSN
		if live {
			psn = e.psn
		}
		sh.mu.Unlock()
		if live && psn != 0 {
			rows = append(rows, msg.DCTRow{Page: pid, PSN: psn})
			continue
		}
		if restart != nil && restart.crashed[c] {
			if psn, ok := restart.logDCT[dctKey{pg: pid, c: c}]; ok {
				// A replacement record matching the crash-time disk PSN
				// names this client: its PSN is the true Property 1
				// threshold.
				rows = append(rows, msg.DCTRow{Page: pid, PSN: psn})
				continue
			}
			// No per-client record survives.  The disk PSN is NOT a safe
			// threshold here: it is inflated by other clients' merges and
			// forces, while this client's unshipped updates carry PSNs
			// minted against an older copy — a threshold above them would
			// silently skip committed work (found by the randomized
			// torture sweep).  Redo everything instead: replaying from
			// the beginning is idempotent for this client's objects, and
			// the per-slot PSN merge keeps other clients' newer updates
			// on top of any stale re-application.
			if _, err := s.store.Read(pid); err != nil {
				continue // page gone (freed); nothing to recover
			}
			rows = append(rows, msg.DCTRow{Page: pid, PSN: 0})
			continue
		}
		if live {
			// Live entry with PSN 0 (first-X before any receipt): redo
			// everything for this page.
			rows = append(rows, msg.DCTRow{Page: pid, PSN: psn})
		}
	}
	return rows, nil
}

// RecoveryFetch implements msg.Server: the §3.4 step-3 page handoff
// between two clients recovering the same page in parallel.  The server
// returns its merged copy once CID's recovery has shipped a copy
// covering all its log records below PSN (or finished the page).  CID
// is asked whenever it recovers the page, even if past PSN: asking every
// time keeps the message count, and a seeded schedule, free of that race.
func (s *Server) RecoveryFetch(req msg.RecoveryFetchReq) (msg.FetchReply, error) {
	key := dctKey{pg: req.Page, c: req.CID}
	sh := s.shardOf(req.Page)
	sh.mu.Lock()
	if !sh.recovering[key] && !sh.recovered[key] {
		reply, err := s.fetchShard(sh, req.Client, req.Page)
		sh.mu.Unlock()
		return reply, err
	}
	sh.mu.Unlock()
	conn := s.conn(req.CID)
	if conn == nil {
		sh.mu.Lock()
		reply, err := s.fetchShard(sh, req.Client, req.Page)
		sh.mu.Unlock()
		return reply, err
	}
	// Block until CID's recovery has processed every record below PSN
	// and shipped its interim copy; the merged server copy then holds
	// everything the requester needs.
	if err := conn.RecoveryShipUpTo(req.Page, req.PSN); err != nil {
		return msg.FetchReply{}, fmt.Errorf("core: recovery handoff of page %d from %s: %w", req.Page, req.CID, err)
	}
	sh.mu.Lock()
	reply, err := s.fetchShard(sh, req.Client, req.Page)
	sh.mu.Unlock()
	return reply, err
}

// markRecovered notes that CID's recovery of the page completed;
// RecoveryFetch callers re-check on their next attempt.  Called with
// sh.mu held (sh is the page's shard).
func (s *Server) markRecovered(sh *pageShard, pid page.ID, c ident.ClientID) {
	sh.recovered[dctKey{pg: pid, c: c}] = true
	delete(sh.recovering, dctKey{pg: pid, c: c})
}
