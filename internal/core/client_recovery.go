package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"clientlog/internal/buffer"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// recoveryState tracks the client's participation in server restart
// recovery (§3.4): per-page progress so that RecoveryShipUpTo (the
// step-3 forwarding) can ship interim copies at the right moment.
type recoveryState struct {
	mu      sync.Mutex
	pages   map[page.ID]*pageRecovery
	waiters []chan struct{}
}

type pageRecovery struct {
	active bool
	curPSN page.PSN
	done   bool
	// page is the in-progress copy being recovered; RecoveryShipUpTo
	// marshals it under the recoveryState mutex while RecoverPage
	// mutates it under the same mutex.
	page *page.Page
}

func (r *recoveryState) init() {
	r.mu.Lock()
	if r.pages == nil {
		r.pages = make(map[page.ID]*pageRecovery)
	}
	r.mu.Unlock()
}

func (r *recoveryState) notifyAll() {
	for _, ch := range r.waiters {
		close(ch)
	}
	r.waiters = nil
}

// begin marks a page recovery in progress on the given working copy.
func (r *recoveryState) begin(pid page.ID, p *page.Page) {
	r.init()
	r.mu.Lock()
	r.pages[pid] = &pageRecovery{active: true, page: p}
	r.notifyAll()
	r.mu.Unlock()
}

// mutate runs fn on the in-progress copy under the recovery mutex and
// publishes the resulting PSN as progress.
func (r *recoveryState) mutate(pid page.ID, fn func(p *page.Page) (*page.Page, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	pr := r.pages[pid]
	np, err := fn(pr.page)
	if err != nil {
		return err
	}
	pr.page = np
	if np.PSN() > pr.curPSN {
		pr.curPSN = np.PSN()
	}
	r.notifyAll()
	return nil
}

// snapshot marshals the in-progress copy (nil when no recovery is
// active for the page).
func (r *recoveryState) snapshot(pid page.ID) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	pr := r.pages[pid]
	if pr == nil || pr.page == nil {
		return nil
	}
	img, err := pr.page.MarshalBinary()
	if err != nil {
		return nil
	}
	return img
}

// progress records the page's PSN after an applied record.
func (r *recoveryState) progress(pid page.ID, psn page.PSN) {
	r.mu.Lock()
	if pr := r.pages[pid]; pr != nil && psn > pr.curPSN {
		pr.curPSN = psn
		r.notifyAll()
	}
	r.mu.Unlock()
}

// finish marks the page recovered.
func (r *recoveryState) finish(pid page.ID) {
	r.mu.Lock()
	if pr := r.pages[pid]; pr != nil {
		pr.done = true
	} else {
		if r.pages == nil {
			r.pages = make(map[page.ID]*pageRecovery)
		}
		r.pages[pid] = &pageRecovery{done: true}
	}
	r.notifyAll()
	r.mu.Unlock()
}

// waitReached blocks until the page's recovery has processed every log
// record with PSN below psn (or finished), giving up at the deadline so
// mutual waits can never wedge the cluster (the slot-PSN merge ordering
// still yields the correct final state).
func (r *recoveryState) waitReached(pid page.ID, psn page.PSN, deadline time.Time) {
	r.init()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		r.mu.Lock()
		pr := r.pages[pid]
		if pr == nil || pr.done || !pr.active || pr.curPSN >= psn {
			r.mu.Unlock()
			return
		}
		ch := make(chan struct{})
		r.waiters = append(r.waiters, ch)
		r.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return
		}
	}
}

// SurrogateRecover performs §3.3 restart recovery on behalf of a
// crashed client that is not coming back — the paper's Section 2
// remark that "restart recovery for a crashed client may be performed
// by the server or any other client that has access to the log of this
// client".  Whoever holds the log (the server for a diskless client, an
// operator mounting the dead workstation's disk) runs the standard
// recovery, then ships every recovered page and releases the dead
// client's locks, leaving the cluster clean.
func SurrogateRecover(cfg Config, srv msg.Server, logStore wal.Store, id ident.ClientID) error {
	c, err := RecoverClient(cfg, srv, logStore, id)
	if err != nil {
		return err
	}
	// Disconnect ships the dirty (recovered) pages and releases all
	// locks.
	return c.Disconnect()
}

// DebugLogf, when set, receives recovery diagnostics (tests only).
var DebugLogf func(format string, args ...interface{})

// dbg forwards to DebugLogf.  Call sites that run once per log record
// test DebugLogf themselves: the variadic call boxes its arguments
// before dbg gets to decline them.
func dbg(format string, args ...interface{}) {
	if DebugLogf != nil {
		DebugLogf(format, args...)
	}
}

// RecoverClient reconnects a crashed client and runs §3.3 restart
// recovery over its private log: reinstall retained exclusive locks,
// ARIES analysis, the PSN-guarded redo pass, and rollback of the
// transactions that were active at the crash.  Transaction processing
// on other clients continues in parallel throughout.
func RecoverClient(cfg Config, srv msg.Server, logStore wal.Store, id ident.ClientID) (*Client, error) {
	reply, err := srv.Register(msg.RegisterReq{ID: id, Recover: true})
	if err != nil {
		return nil, err
	}
	c := &Client{
		id:     id,
		cfg:    cfg,
		srv:    srv,
		llm:    lock.NewLLM(cfg.LockTimeout),
		log:    wal.NewLog(logStore),
		pool:   buffer.New(cfg.ClientPool),
		dpt:    make(map[page.ID]*dptEntry),
		txns:   make(map[ident.TxnID]*txnState),
		tokens: make(map[page.ID]bool),
	}
	// §3.3: "the crashed client installs in its lock tables the
	// exclusive locks it held before the failure."  After a complex
	// crash (§3.5) the server lost its lock tables too and the list is
	// empty; the PSN tests alone then guard the redo pass.
	for _, h := range reply.HeldX {
		c.llm.InstallCached(h.Name, h.Mode)
	}
	if err := c.restartRecovery(len(reply.HeldX) > 0); err != nil {
		return nil, err
	}
	if err := srv.RecoverEnd(id); err != nil {
		return nil, err
	}
	return c, nil
}

// analysis scans the log from the last complete checkpoint, rebuilding
// the DPT and the active transaction table.
func (c *Client) analysis() (att map[ident.TxnID]*txnState, err error) {
	// Locate the last complete checkpoint.
	var ckptLSN wal.LSN
	var ckpt *wal.Checkpoint
	sc := c.log.Scan(c.log.Horizon())
	for sc.Next() {
		if cp, ok := sc.Record().(*wal.Checkpoint); ok {
			ckptLSN, ckpt = sc.LSN(), cp
		}
	}
	if sc.Err() != nil {
		return nil, fmt.Errorf("core: analysis checkpoint scan: %w", sc.Err())
	}
	att = make(map[ident.TxnID]*txnState)
	start := c.log.Horizon()
	if ckpt != nil {
		start = ckptLSN
		for _, ti := range ckpt.Active {
			att[ti.ID] = &txnState{id: ti.ID, firstLSN: ti.FirstLSN, lastLSN: ti.LastLSN}
		}
		horizon := c.log.Horizon()
		for _, de := range ckpt.DPT {
			redo := de.RedoLSN
			// A checkpointed RedoLSN can predate the reclaim horizon:
			// flush notifications advanced the live entry after the
			// checkpoint and §3.6 reclaimed the prefix.  The reclaimed
			// records are durable on disk (that is what allowed the
			// reclaim), so clamping to the horizon is safe — and the
			// Property 1 PSN test would skip them anyway.
			if redo < horizon {
				redo = horizon
			}
			c.dpt[de.Page] = &dptEntry{redoLSN: redo, dirtySinceShip: true}
		}
		c.lastCkpt = ckptLSN
	}
	sc = c.log.Scan(start)
	for sc.Next() {
		lsn, rec := sc.LSN(), sc.Record()
		switch r := rec.(type) {
		case *wal.Update, *wal.Logical, *wal.CLR:
			tid := rec.Txn()
			st := att[tid]
			if st == nil {
				st = &txnState{id: tid, firstLSN: lsn}
				att[tid] = st
			}
			st.lastLSN = lsn
			var pid page.ID
			switch rr := r.(type) {
			case *wal.Update:
				pid = rr.Page
			case *wal.Logical:
				pid = rr.Page
			case *wal.CLR:
				pid = rr.Page
			}
			if _, ok := c.dpt[pid]; !ok {
				c.dpt[pid] = &dptEntry{redoLSN: lsn, dirtySinceShip: true}
			}
		case *wal.Commit:
			delete(att, r.TxnID)
		case *wal.Abort:
			delete(att, r.TxnID)
		}
	}
	if sc.Err() != nil {
		return nil, fmt.Errorf("core: analysis scan: %w", sc.Err())
	}
	return att, nil
}

// restartRecovery runs the §3.3 algorithm.  haveLocks says whether the
// server still had this client's lock tables (plain client crash); the
// redo pass then additionally requires the object to be exclusively
// locked, as the paper specifies.  After a complex crash the PSN tests
// alone decide (they subsume the lock test; see DESIGN.md).
func (c *Client) restartRecovery(haveLocks bool) error {
	att, err := c.analysis()
	if err != nil {
		return err
	}
	// Ask the server which of the DPT pages have DCT rows and with what
	// PSNs; pages without a row have all their updates on the
	// server/disk already (Property 1) and are filtered out.
	pages := make([]page.ID, 0, len(c.dpt))
	for pid := range c.dpt {
		pages = append(pages, pid)
	}
	rows, err := c.srv.RecoverQuery(c.id, pages)
	if err != nil {
		return err
	}
	dctPSNs := make(map[page.ID]page.PSN, len(rows))
	for _, row := range rows {
		dctPSNs[row.Page] = row.PSN
	}
	dbg("%v recovery: dpt=%v rows=%v haveLocks=%v", c.id, pages, dctPSNs, haveLocks)
	for pid := range c.dpt {
		if _, ok := dctPSNs[pid]; !ok {
			dbg("%v recovery: drop page %d from DPT (no DCT row)", c.id, pid)
			delete(c.dpt, pid)
		}
	}
	// Redo pass from the minimum RedoLSN.
	if len(c.dpt) > 0 {
		minRedo := c.log.End()
		for _, e := range c.dpt {
			if e.redoLSN < minRedo {
				minRedo = e.redoLSN
			}
		}
		fetched := make(map[page.ID]bool)
		sc := c.log.Scan(minRedo)
		for sc.Next() {
			lsn, rec := sc.LSN(), sc.Record()
			pid, obj, ok := recTarget(rec)
			if !ok {
				continue // callback records are not processed here (§3.3)
			}
			e, inDPT := c.dpt[pid]
			if !inDPT || e.redoLSN > lsn {
				continue
			}
			if !fetched[pid] {
				// First touch: fetch from the server, which sends along
				// the PSN stored in its DCT entry for this client (§3.3).
				psn, ferr := c.recoveryFetch(pid, dctPSNs[pid])
				if ferr != nil {
					return ferr
				}
				// The DCT PSN is the paper's redo threshold: records
				// whose pre-update PSN is below it are already reflected
				// on the server's copy (Property 1).  We keep it as a
				// side threshold rather than installing it on the page:
				// the server image's PSN is merge-inflated, and lowering
				// it would make post-recovery updates mint slot PSNs
				// below ones already on the image, breaking the
				// cross-copy merge ordering.
				dctPSNs[pid] = psn
				fetched[pid] = true
			}
			// The record is applied only when the object is exclusively
			// locked by this client and the record's PSN is >= the DCT
			// threshold (§3.3).  Without surviving lock tables (§3.5)
			// the PSN test alone decides.
			if haveLocks && !c.llm.CacheCovers(lock.ObjName(obj), lock.X) {
				if DebugLogf != nil {
					dbg("%v recovery: skip %s obj=%v psn=%d (no X lock)", c.id, rec.Kind(), obj, recPSN(rec))
				}
				continue
			}
			if recPSN(rec) < dctPSNs[pid] {
				if DebugLogf != nil {
					dbg("%v recovery: skip %s obj=%v psn=%d < threshold %d", c.id, rec.Kind(), obj, recPSN(rec), dctPSNs[pid])
				}
				continue // already on the server's copy (Property 1)
			}
			if DebugLogf != nil {
				dbg("%v recovery: redo %s obj=%v psn=%d", c.id, rec.Kind(), obj, recPSN(rec))
			}
			c.mu.Lock()
			if p, okp := c.pool.Get(pid); okp {
				if err := redoApply(p, rec); err != nil {
					c.mu.Unlock()
					return fmt.Errorf("core: redo %s at %s: %w", rec.Kind(), lsn, err)
				}
				c.pool.MarkDirty(pid)
				c.dpt[pid].dirtySinceShip = true
			}
			c.mu.Unlock()
		}
		if sc.Err() != nil {
			return fmt.Errorf("core: redo scan: %w", sc.Err())
		}
	}
	// After a complex crash the GLM lost this client's locks: regain
	// exclusive locks on the objects its uncommitted transactions
	// touched before rolling them back, and ship every recovered page
	// afterwards so the server's copies are current despite the lost
	// lock-based coherence.
	if !haveLocks && len(att) > 0 {
		var holds []lock.Holding
		seen := make(map[lock.Name]bool)
		for _, st := range att {
			cur := st.lastLSN
			for cur != wal.NilLSN {
				rec, _, rerr := c.log.Read(cur)
				if rerr != nil {
					break
				}
				if pid, obj, ok := recTarget(rec); ok {
					name := lock.ObjName(obj)
					if rec.(interface{ Kind() wal.Kind }).Kind() == wal.KindUpdate {
						if u := rec.(*wal.Update); u.Op.Structural() {
							name = lock.PageName(pid)
						}
					}
					if !seen[name] {
						seen[name] = true
						holds = append(holds, lock.Holding{Name: name, Mode: lock.X})
					}
				}
				if clr, isCLR := rec.(*wal.CLR); isCLR {
					cur = clr.UndoNext
				} else {
					cur = rec.Prev()
				}
			}
		}
		if len(holds) > 0 {
			if err := c.srv.Reinstall(c.id, holds); err != nil {
				return err
			}
			for _, h := range holds {
				c.llm.InstallCached(h.Name, h.Mode)
			}
		}
	}
	// Undo pass: roll back the transactions active at the crash.
	for _, st := range att {
		c.mu.Lock()
		c.txns[st.id] = st
		c.mu.Unlock()
		if err := c.undoChain(st, wal.NilLSN); err != nil {
			return fmt.Errorf("core: restart undo %s: %w", st.id, err)
		}
		c.mu.Lock()
		_, aerr := c.appendLocked(&wal.Abort{TxnID: st.id, PrevLSN: st.lastLSN}, c.undoReserveLocked(st))
		delete(c.txns, st.id)
		c.mu.Unlock()
		if aerr != nil {
			return aerr
		}
		c.llm.ReleaseTxn(st.id)
	}
	if err := c.log.ForceAll(); err != nil {
		return err
	}
	if !haveLocks {
		// Complex crash: without retained locks, coherence for the
		// recovered updates comes from shipping them to the server now.
		// The shipped pages are also dropped from the cache: other
		// crashed clients recover in parallel and our copies may be
		// stale for their objects; the next access re-fetches.
		c.mu.Lock()
		var ships []shipment
		for _, pid := range c.pool.DirtyIDs() {
			if p, ok := c.pool.Get(pid); ok {
				if img, perr := c.prepareShipLocked(p); perr == nil {
					ships = append(ships, shipment{image: img, reason: msg.ShipRecovery})
				}
			}
		}
		for _, pid := range c.pool.IDs() {
			c.pool.Drop(pid)
		}
		c.mu.Unlock()
		c.shipVictims(ships)
	}
	return c.Checkpoint()
}

// recoveryFetch pulls a page during restart recovery and returns the
// redo threshold for it: the PSN the server's DCT remembers for this
// client (sent along with the page per §3.3), falling back to the
// RecoverQuery row.
func (c *Client) recoveryFetch(pid page.ID, dctPSN page.PSN) (page.PSN, error) {
	reply, err := c.srv.Fetch(msg.FetchReq{Client: c.id, Page: pid, Recovery: true})
	if err != nil {
		return 0, err
	}
	p := new(page.Page)
	if err := p.UnmarshalBinary(reply.Image); err != nil {
		return 0, err
	}
	psn := reply.DCTPSN
	if psn == 0 {
		psn = dctPSN
	}
	c.Metrics.PagesFetched.Add(1)
	c.mu.Lock()
	c.pool.Put(p, false)
	victims := c.collectVictimsLocked()
	c.mu.Unlock()
	c.shipVictims(victims)
	return psn, nil
}

// recTarget extracts the page and object a redoable record refers to;
// ok is false for non-redoable records (commit, checkpoint, callback).
func recTarget(rec wal.Record) (page.ID, page.ObjectID, bool) {
	switch r := rec.(type) {
	case *wal.Update:
		return r.Page, r.Object(), true
	case *wal.Logical:
		return r.Page, r.Object(), true
	case *wal.CLR:
		return r.Page, r.Object(), true
	}
	return 0, page.ObjectID{}, false
}

// recPSN returns the pre-update PSN stored in a redoable record.
func recPSN(rec wal.Record) page.PSN {
	switch r := rec.(type) {
	case *wal.Update:
		return r.PSN
	case *wal.Logical:
		return r.PSN
	case *wal.CLR:
		return r.PSN
	}
	return 0
}

// redoApply reproduces a logged update on the page, advancing the page
// PSN to recPSN+1.
func redoApply(p *page.Page, rec wal.Record) error {
	switch r := rec.(type) {
	case *wal.Update:
		switch r.Op {
		case wal.OpOverwrite:
			return p.RedoOverwrite(r.Slot, r.After, r.PSN)
		case wal.OpOverwriteAt:
			return p.RedoOverwriteAt(r.Slot, int(r.Offset), r.After, r.PSN)
		case wal.OpInsert:
			return p.RedoInsert(r.Slot, r.After, r.PSN)
		case wal.OpDelete:
			return p.RedoDelete(r.Slot, r.PSN)
		case wal.OpResize:
			return p.RedoResize(r.Slot, r.After, r.PSN)
		}
		return fmt.Errorf("core: redo of op %v", r.Op)
	case *wal.Logical:
		return redoLogical(p, r.Slot, r.Delta, r.PSN)
	case *wal.CLR:
		switch r.Op {
		case wal.OpOverwrite:
			return p.RedoOverwrite(r.Slot, r.After, r.PSN)
		case wal.OpOverwriteAt:
			return p.RedoOverwriteAt(r.Slot, int(r.Offset), r.After, r.PSN)
		case wal.OpInsert:
			return p.RedoInsert(r.Slot, r.After, r.PSN)
		case wal.OpDelete:
			return p.RedoDelete(r.Slot, r.PSN)
		case wal.OpResize:
			return p.RedoResize(r.Slot, r.After, r.PSN)
		case wal.OpLogicalAdd:
			return redoLogical(p, r.Slot, r.Delta, r.PSN)
		}
		return fmt.Errorf("core: redo of CLR op %v", r.Op)
	}
	return fmt.Errorf("core: redoApply on %v record", rec.Kind())
}

func redoLogical(p *page.Page, slot uint16, delta int64, psn page.PSN) error {
	cur, ok := p.Read(slot)
	if !ok || len(cur) != 8 {
		return ErrNotCounter
	}
	v := int64(binary.LittleEndian.Uint64(cur)) + delta
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return p.RedoOverwrite(slot, buf[:], psn)
}

// --- §3.4: the client side of server restart recovery ---

// RecoveryInfo implements msg.Client: the server, restarting, asks for
// this client's DPT, cached page list, and LLM table.
func (c *Client) RecoveryInfo() (msg.RecoveryInfoReply, error) {
	if err := c.checkAlive(); err != nil {
		return msg.RecoveryInfoReply{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	reply := msg.RecoveryInfoReply{Cached: c.pool.IDs(), Locks: c.llm.CachedLocks()}
	for pid, e := range c.dpt {
		reply.DPT = append(reply.DPT, wal.DPTEntry{Page: pid, RedoLSN: e.redoLSN})
	}
	return reply, nil
}

// FetchCached implements msg.Client: ship the requested cached pages to
// the restarting server (§3.4 step 4), honouring the WAL rule.
func (c *Client) FetchCached(ids []page.ID) ([][]byte, error) {
	if err := c.checkAlive(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, 0, len(ids))
	for _, pid := range ids {
		p, ok := c.pool.Get(pid)
		if !ok {
			continue
		}
		img, err := c.prepareShipLocked(p)
		if err != nil {
			return nil, err
		}
		c.pool.Clean(pid)
		out = append(out, img)
	}
	return out, nil
}

// pageIndex is the restart index: for each page, the LSNs, in log order,
// of the private-log records §3.4 inspects for it — the update, logical
// and compensation records that change the page and the callback records
// for its objects.  One pass over the log builds it, so a server restart
// reads each client log once however many pages it recovers.  It lives
// in memory only and is derived from the log alone: dropping it is
// always safe, and the forward path never looks at it.
type pageIndex struct {
	mu     sync.Mutex
	byPage map[page.ID][]wal.LSN // nil until the first build
	upTo   wal.LSN               // the log below this LSN is indexed
}

// drop releases the index; the next server restart rebuilds it.
func (ix *pageIndex) drop() {
	ix.mu.Lock()
	ix.byPage = nil
	ix.mu.Unlock()
}

// pageRecords returns the LSNs, in log order, of every record at or
// above from (raised to the reclaim horizon) that §3.4 inspects for the
// page.  The first caller after a drop scans the log under the index
// mutex while the concurrent per-page recoveries wait for it; a later
// call scans only what was appended since.  After a read error the index
// holds what the pass reached and the next call resumes there.  The
// result is shared and must not be modified.
func (c *Client) pageRecords(pid page.ID, from wal.LSN) ([]wal.LSN, error) {
	ix := &c.pidx
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for {
		// Reclaim may have moved the horizon past entries already
		// indexed, or past upTo itself; neither is readable any more.
		horizon := c.log.Horizon()
		if ix.byPage == nil {
			ix.byPage = make(map[page.ID][]wal.LSN)
			ix.upTo = horizon
		}
		if ix.upTo < horizon {
			ix.upTo = horizon
		}
		// upTo becomes the end this very scan stopped at: the client may
		// be committing locally while the server is down, and a record
		// appended during the scan belongs to the next one.
		var err error
		ix.upTo, err = c.log.ScanPages(ix.upTo, func(lsn wal.LSN, p page.ID) {
			ix.byPage[p] = append(ix.byPage[p], lsn)
		})
		if err == nil {
			if from < horizon {
				from = horizon
			}
			lsns := ix.byPage[pid]
			i := sort.Search(len(lsns), func(i int) bool { return lsns[i] >= from })
			return lsns[i:len(lsns):len(lsns)], nil
		}
		// The pass starts at the horizon, below every RedoLSN, so a
		// reclaim running beside it (a flush notification, a local commit)
		// can take the record it is about to read.  What it indexed stays
		// valid; resume at the new horizon.  Anything else is a read error.
		if c.log.Horizon() <= ix.upTo {
			return nil, fmt.Errorf("core: page index scan: %w", err)
		}
	}
}

// redoLSN returns the page's DPT RedoLSN, or NilLSN without an entry.
func (c *Client) redoLSN(pid page.ID) wal.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.dpt[pid]; ok {
		return e.redoLSN
	}
	return wal.NilLSN
}

// CallbackList implements msg.Client: the CallBack_P contribution of
// §3.4 — callback log records this client wrote for objects on the page
// that were called back from the target client, keeping only the most
// recent PSN per object.
func (c *Client) CallbackList(req msg.CallbackListReq) (msg.CallbackListReply, error) {
	if err := c.checkAlive(); err != nil {
		return msg.CallbackListReply{}, err
	}
	lsns, err := c.pageRecords(req.Page, c.redoLSN(req.Page))
	if err != nil {
		return msg.CallbackListReply{}, err
	}
	latest := make(map[page.ObjectID]page.PSN)
	for _, lsn := range lsns {
		rec, _, err := c.log.Read(lsn)
		if err != nil {
			return msg.CallbackListReply{}, err
		}
		if cb, ok := rec.(*wal.Callback); ok && cb.Responder == req.Target {
			latest[cb.Object] = cb.PSN // later records overwrite: most recent wins
		}
	}
	var reply msg.CallbackListReply
	for obj, psn := range latest {
		reply.Entries = append(reply.Entries, msg.CallbackOrigin{Object: obj, Responder: req.Target, PSN: psn})
	}
	return reply, nil
}

// RecoverPage implements msg.Client: recover this client's updates on
// the page during server restart recovery, following the three rules of
// §3.4, including the step-3 fetch of interleaved remote updates.
func (c *Client) RecoverPage(req msg.RecoverPageReq) error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	p := new(page.Page)
	if err := p.UnmarshalBinary(req.Image); err != nil {
		return err
	}
	// Raise-only: the redo rules of §3.4 compare record PSNs against the
	// CallBack_P list, never against the page PSN, so the DCT PSN must
	// not lower the (merge-inflated) image PSN.
	if p.PSN() < req.DCTPSN {
		p.SetPSN(req.DCTPSN)
	}
	cbPSN := make(map[page.ObjectID]page.PSN, len(req.Callbacks))
	for _, cb := range req.Callbacks {
		cbPSN[cb.Object] = cb.PSN
	}
	c.rec.begin(req.Page, p)
	defer c.rec.finish(req.Page)

	lsns, err := c.pageRecords(req.Page, c.redoLSN(req.Page))
	if err != nil {
		return err
	}
	for _, lsn := range lsns {
		rec, _, err := c.log.Read(lsn)
		if err != nil {
			return err
		}
		if cb, isCB := rec.(*wal.Callback); isCB {
			// Every record of ours below the callback's PSN has been
			// processed by now: publish the progress before any blocking
			// fetch so parallel recoveries of this page never deadlock.
			c.rec.progress(req.Page, cb.PSN)
			if _, inList := cbPSN[cb.Object]; inList {
				continue // rule 3, first half: skip
			}
			// Rule 3, second half: another client's updates interleave
			// here; fetch the page as of (responder, PSN) and merge.
			reply, err := c.srv.RecoveryFetch(msg.RecoveryFetchReq{
				Client: c.id, Page: req.Page, CID: cb.Responder, PSN: cb.PSN,
			})
			if err != nil {
				return err
			}
			remote := new(page.Page)
			if err := remote.UnmarshalBinary(reply.Image); err != nil {
				return err
			}
			err = c.rec.mutate(req.Page, func(cur *page.Page) (*page.Page, error) {
				return page.Merge(cur, remote), nil
			})
			if err != nil {
				return err
			}
			c.Metrics.ClientMerges.Add(1)
			continue
		}
		_, obj, _ := recTarget(rec) // not a callback: the index holds redoable records only
		// Scan progress covers skipped records too ("processed all log
		// records containing a PSN value that is less than ...").
		c.rec.progress(req.Page, recPSN(rec)+1)
		if limit, inList := cbPSN[obj]; inList && recPSN(rec) < limit {
			continue // rule 1: a later remote update supersedes this one
		}
		// Rules 1 (PSN >= limit) and 2 (object not in the list): apply.
		kerr := c.rec.mutate(req.Page, func(cur *page.Page) (*page.Page, error) {
			if err := redoApply(cur, rec); err != nil {
				return nil, err
			}
			return cur, nil
		})
		if kerr != nil {
			return fmt.Errorf("core: §3.4 redo %s: %w", rec.Kind(), kerr)
		}
	}
	// Ship the recovered copy back and DROP it from the cache rather
	// than keeping it: other clients may be recovering their own updates
	// to this page in parallel (§3.4 advantage 3), so this working copy
	// can be stale for their objects — dangerous to serve from under a
	// covering (page-level) lock.  The next access simply re-fetches the
	// server's merged state.
	img := c.rec.snapshot(req.Page)
	if img == nil {
		return fmt.Errorf("core: recovered page %d vanished", req.Page)
	}
	c.mu.Lock()
	c.pool.Drop(req.Page)
	if e, ok := c.dpt[req.Page]; ok {
		e.rememberedEnd = c.log.End()
		e.lastShipPSN = p.PSN()
		e.dirtySinceShip = false
	}
	c.mu.Unlock()
	if err := c.log.ForceAll(); err != nil {
		return err
	}
	if err := c.srv.Ship(msg.ShipReq{Client: c.id, Reason: msg.ShipRecovery, Image: img}); err != nil {
		return err
	}
	c.Metrics.PagesShipped.Add(1)
	return nil
}

// RecoveryShipUpTo implements msg.Client: the §3.4 step-3 forwarding.
// The client ships its current copy of the page once its recovery has
// processed every log record with PSN below the threshold.
func (c *Client) RecoveryShipUpTo(pid page.ID, psn page.PSN) error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	c.rec.waitReached(pid, psn, time.Now().Add(c.cfg.LockTimeout))
	if err := c.log.ForceAll(); err != nil {
		return err
	}
	// Prefer the in-progress recovery copy; fall back to the cache.
	img := c.rec.snapshot(pid)
	if img == nil {
		c.mu.Lock()
		p, ok := c.pool.Get(pid)
		var err error
		if ok {
			img, err = c.prepareShipLocked(p)
		}
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if img == nil {
		return nil // nothing cached: the server's copy is all we had
	}
	// An interim copy: ShipCallback keeps the DCT PSN moving without
	// declaring this page's recovery complete.
	if err := c.srv.Ship(msg.ShipReq{Client: c.id, Reason: msg.ShipCallback, Image: img}); err != nil {
		return err
	}
	c.Metrics.PagesShipped.Add(1)
	return nil
}
