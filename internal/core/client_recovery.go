package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"clientlog/internal/buffer"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/wake"
	"clientlog/internal/wal"
)

// recoveryState tracks the client's participation in server restart
// recovery (§3.4): per-page progress so that RecoveryShipUpTo (the
// step-3 forwarding) can ship interim copies at the right moment.
type recoveryState struct {
	mu      sync.Mutex
	pages   map[page.ID]*pageRecovery
	waiters wake.List
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

// begin marks a page recovery in progress on the given working copy.
func (r *recoveryState) begin(pid page.ID, p *page.Page) {
	r.init()
	r.mu.Lock()
	r.pages[pid] = &pageRecovery{active: true, page: p}
	r.waiters.Broadcast()
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
	r.waiters.Broadcast()
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
		r.waiters.Broadcast()
	}
	r.mu.Unlock()
}

// finish marks the page recovered; begin made its entry.
func (r *recoveryState) finish(pid page.ID) {
	r.mu.Lock()
	r.pages[pid].done = true
	r.waiters.Broadcast()
	r.mu.Unlock()
}

// waitReached blocks until the page's recovery has processed every log
// record with PSN below psn (or finished), giving up at the deadline so
// mutual waits can never wedge the cluster (the slot-PSN merge ordering
// still yields the correct final state).
func (r *recoveryState) waitReached(pid page.ID, psn page.PSN, deadline time.Time) {
	r.init()
	for {
		r.mu.Lock()
		pr := r.pages[pid]
		if pr == nil || pr.done || !pr.active || pr.curPSN >= psn {
			r.mu.Unlock()
			return
		}
		w := r.waiters.Add()
		r.mu.Unlock()
		if !w.Wait(deadline) {
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
		id:         id,
		cfg:        cfg,
		srv:        srv,
		llm:        lock.NewLLM(cfg.LockTimeout),
		log:        wal.NewLog(logStore),
		pool:       buffer.New(cfg.ClientPool),
		dpt:        make(map[page.ID]*dptEntry),
		tokens:     make(map[page.ID]bool),
		recovering: true,
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
	c.mu.Lock()
	c.recovering = false
	c.mu.Unlock()
	return c, nil
}

// analysis scans the log from the last complete checkpoint, rebuilding
// the DPT and the active transaction table.  The restart index's build,
// which the redo pass reads pages through, finds that checkpoint.
func (c *Client) analysis() (att map[ident.TxnID]*txnState, err error) {
	ckptLSN, err := c.lastCheckpoint()
	if err != nil {
		return nil, err
	}
	att = make(map[ident.TxnID]*txnState)
	horizon := c.log.Horizon()
	sc := c.log.Scan(max(ckptLSN, horizon))
	for sc.Next() {
		lsn, rec := sc.LSN(), sc.Record()
		switch r := rec.(type) {
		case *wal.Checkpoint: // the last one: the scan starts at it
			for _, ti := range r.Active {
				att[ti.ID] = &txnState{Uses: lock.Uses{Txn: ti.ID}, firstLSN: ti.FirstLSN, lastLSN: ti.LastLSN}
			}
			for _, de := range r.DPT {
				// A checkpointed RedoLSN can predate the reclaim horizon:
				// flush notifications advanced the live entry after the
				// checkpoint and §3.6 reclaimed the prefix.  The reclaimed
				// records are durable on disk (that is what allowed the
				// reclaim), so clamping to the horizon is safe — and the
				// Property 1 PSN test would skip them anyway.
				c.putRedoLocked(de.Page, max(de.RedoLSN, horizon)).dirtySinceShip = true
			}
			c.lastCkpt = lsn
		case *wal.Update, *wal.Logical, *wal.CLR:
			tid := rec.Txn()
			st := att[tid]
			if st == nil {
				st = &txnState{Uses: lock.Uses{Txn: tid}, firstLSN: lsn}
				att[tid] = st
			}
			st.lastLSN = lsn
			ch, _ := redoOf(rec)
			if _, ok := c.dpt[ch.obj.Page]; !ok {
				c.putRedoLocked(ch.obj.Page, lsn).dirtySinceShip = true
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
	slices.Sort(pages)
	rows, err := c.srv.RecoverQuery(c.id, pages)
	if err != nil {
		return err
	}
	dctPSNs := make(map[page.ID]page.PSN, len(rows))
	for _, row := range rows {
		dctPSNs[row.Page] = row.PSN
	}
	for _, pid := range pages {
		if _, ok := dctPSNs[pid]; !ok {
			c.dropRedoLocked(pid)
		}
	}
	// Redo page by page, in page order: each page's records are applied
	// before the next page is fetched, so an eviction never ships a page
	// that still has records to redo.
	for _, pid := range pages {
		if psn, ok := dctPSNs[pid]; ok {
			if err := c.redoPage(pid, psn, haveLocks); err != nil {
				return fmt.Errorf("core: redo of page %d: %w", pid, err)
			}
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
				if ch, ok := redoOf(rec); ok {
					name := lock.ObjName(ch.obj)
					if u, isUpd := rec.(*wal.Update); isUpd && u.Op.Structural() {
						name = lock.PageName(ch.obj.Page)
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
	// Undo pass: roll back the transactions active at the crash.  They
	// stay active transactions until their abort records are durable,
	// as in Txn.Abort, so no §3.6 reclaim that a rollback's CLRs set off
	// passes a record a loser may still need.
	c.mu.Lock()
	for _, st := range att {
		c.addTxnLocked(st)
	}
	c.mu.Unlock()
	for _, st := range att {
		if err := c.undoChain(st, wal.NilLSN); err != nil {
			return fmt.Errorf("core: restart undo %s: %w", st.Txn, err)
		}
		c.mu.Lock()
		_, aerr := c.appendLocked(&wal.Abort{TxnID: st.Txn, PrevLSN: st.lastLSN}, c.undoReserveLocked(st))
		c.mu.Unlock()
		if aerr != nil {
			return aerr
		}
	}
	if err := c.log.ForceAll(); err != nil {
		return err
	}
	c.mu.Lock()
	for _, st := range att {
		c.dropTxnLocked(st)
	}
	c.mu.Unlock()
	if !haveLocks {
		// Complex crash: without retained locks, coherence for the
		// recovered updates comes from shipping them to the server now.
		// The shipped pages are also dropped from the cache: other
		// crashed clients recover in parallel and our copies may be
		// stale for their objects; the next access re-fetches.
		c.mu.Lock()
		var ships []*msg.Carry
		for _, pid := range c.pool.DirtyIDs() {
			if p, ok := c.pool.Get(pid); ok {
				if carry, perr := c.shipLocked(p); perr == nil {
					ships = append(ships, carry)
				}
			}
		}
		for _, pid := range c.pool.IDs() {
			c.pool.Drop(pid)
		}
		c.mu.Unlock()
		c.ship(msg.ShipRecovery, ships...)
	}
	return c.Checkpoint()
}

// redoPage redoes the page's records from its RedoLSN (§3.3).  A page
// with a redoable record there is fetched from the server, which sends
// along the PSN its DCT remembers for this client (falling back to the
// RecoverQuery row's rowPSN); the records the server's copy lacks are
// applied, and the page joins the cache.
func (c *Client) redoPage(pid page.ID, rowPSN page.PSN, haveLocks bool) error {
	var p *page.Page
	var threshold page.PSN
	applied := false
	err := c.walkPageLog(pid, func(rec wal.Record) error {
		ch, ok := redoOf(rec)
		if !ok {
			return nil // callback records are not processed here (§3.3)
		}
		if p == nil {
			reply, err := c.srv.Fetch(msg.FetchReq{Client: c.id, Page: pid, Recovery: true})
			if err != nil {
				return err
			}
			p = new(page.Page)
			if err := p.UnmarshalBinary(reply.Image); err != nil {
				return err
			}
			c.Metrics.PagesFetched.Add(1)
			// The DCT PSN is the paper's redo threshold: records whose
			// pre-update PSN is below it are already reflected on the
			// server's copy (Property 1).  It stays a side threshold
			// rather than being installed on the page: the server image's
			// PSN is merge-inflated, and lowering it would make
			// post-recovery updates mint slot PSNs below ones already on
			// the image, breaking the cross-copy merge ordering.
			if threshold = reply.DCTPSN; threshold == 0 {
				threshold = rowPSN
			}
		}
		// The record is applied only when the object is exclusively
		// locked by this client and the record's PSN is >= the DCT
		// threshold (§3.3).  Without surviving lock tables (§3.5) the PSN
		// test alone decides.
		if haveLocks && !c.llm.CacheCovers(lock.ObjName(ch.obj), lock.X) {
			return nil
		}
		if ch.psn < threshold {
			return nil // already on the server's copy (Property 1)
		}
		if err := ch.apply(p); err != nil {
			return fmt.Errorf("%s record: %w", rec.Kind(), err)
		}
		applied = true
		return nil
	})
	if err != nil {
		return err
	}
	// Analysis marked the page's DPT entry dirtySinceShip.  When no
	// record was redone, the server's copy already holds every update
	// this log has for the page, so the entry waits, as after a ship,
	// for a force of that copy; left dirty, no force could retire it,
	// and §3.6 would find its log prefix pinned for good.
	c.mu.Lock()
	if e, ok := c.dpt[pid]; ok && !applied {
		e.dirtySinceShip, e.rememberedEnd = false, c.log.End()
		if p != nil {
			e.lastShipPSN = p.PSN()
		}
	}
	if p == nil {
		c.mu.Unlock()
		return nil
	}
	c.pool.Put(p, applied)
	c.unlockPage()
	return nil
}

// pageChange is what a redoable record — an update, logical or
// compensation record — does to its page.
type pageChange struct {
	obj   page.ObjectID
	psn   page.PSN // the page PSN before the change
	op    wal.OpKind
	off   uint32
	after []byte
	delta int64
}

// redoOf returns the change rec describes; ok is false for records that
// change no page (commit, checkpoint, callback).
func redoOf(rec wal.Record) (ch pageChange, ok bool) {
	switch r := rec.(type) {
	case *wal.Update:
		return pageChange{r.Object(), r.PSN, r.Op, r.Offset, r.After, 0}, true
	case *wal.Logical:
		return pageChange{r.Object(), r.PSN, wal.OpLogicalAdd, 0, nil, r.Delta}, true
	case *wal.CLR:
		return pageChange{r.Object(), r.PSN, r.Op, r.Offset, r.After, r.Delta}, true
	}
	return pageChange{}, false
}

// apply reproduces the change on the page, advancing the page PSN to
// ch.psn+1.
func (ch pageChange) apply(p *page.Page) error {
	slot := ch.obj.Slot
	switch ch.op {
	case wal.OpOverwrite:
		return p.RedoOverwrite(slot, ch.after, ch.psn)
	case wal.OpOverwriteAt:
		return p.RedoOverwriteAt(slot, int(ch.off), ch.after, ch.psn)
	case wal.OpInsert:
		return p.RedoInsert(slot, ch.after, ch.psn)
	case wal.OpDelete:
		return p.RedoDelete(slot, ch.psn)
	case wal.OpResize:
		return p.RedoResize(slot, ch.after, ch.psn)
	case wal.OpLogicalAdd:
		return redoLogical(p, slot, ch.delta, ch.psn)
	}
	return fmt.Errorf("core: redo of op %v", ch.op)
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
	return msg.RecoveryInfoReply{Cached: c.pool.IDs(), Locks: c.llm.CachedLocks(), DPT: c.dptEntriesLocked()}, nil
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
// of the private-log records recovery inspects for it — the update,
// logical and compensation records that change the page and the callback
// records for its objects.  One pass over the log builds it, so a §3.3
// client restart or a §3.4 server restart reads each client log once
// however many pages it recovers; the pass also finds the last
// checkpoint for §3.3's analysis.  It lives in memory only and is derived
// from the log alone: dropping it is always safe, and the forward path
// never looks at it.
type pageIndex struct {
	mu     sync.Mutex
	byPage map[page.ID][]wal.LSN // nil until the first build
	upTo   wal.LSN               // the log below this LSN is indexed
	ckpt   wal.LSN               // the last checkpoint below upTo, or NilLSN
}

// drop releases the index; the next restart rebuilds it.
func (ix *pageIndex) drop() {
	ix.mu.Lock()
	ix.byPage = nil
	ix.mu.Unlock()
}

// indexLocked brings the index up to the end of the log and returns the
// reclaim horizon the pass started from.  The first caller after a drop
// scans the whole log while concurrent callers wait on the index mutex;
// a later call scans only what was appended since.  After a read error
// the index holds what the pass reached and the next call resumes there.
// Called with the index mutex held.
func (c *Client) indexLocked() (wal.LSN, error) {
	ix := &c.pidx
	for {
		// Reclaim may have moved the horizon past entries already
		// indexed, or past upTo itself; neither is readable any more.
		horizon := c.log.Horizon()
		if ix.byPage == nil {
			ix.byPage = make(map[page.ID][]wal.LSN)
			ix.upTo, ix.ckpt = horizon, wal.NilLSN
		}
		ix.upTo = max(ix.upTo, horizon)
		if ix.ckpt < horizon {
			ix.ckpt = wal.NilLSN
		}
		// upTo becomes the end this very scan stopped at: the client may
		// be committing locally while the server is down, and a record
		// appended during the scan belongs to the next one.
		upTo, ckpt, err := c.log.ScanPages(ix.upTo, func(lsn wal.LSN, p page.ID) {
			ix.byPage[p] = append(ix.byPage[p], lsn)
		})
		ix.upTo = upTo
		if ckpt != wal.NilLSN {
			ix.ckpt = ckpt
		}
		if err == nil {
			return horizon, nil
		}
		// The pass starts at the horizon, below every RedoLSN, so a
		// reclaim running beside it (a flush notification, a local commit)
		// can take the record it is about to read.  What it indexed stays
		// valid; resume at the new horizon.  Anything else is a read error.
		if c.log.Horizon() <= ix.upTo {
			return horizon, fmt.Errorf("core: page index scan: %w", err)
		}
	}
}

// pageRecords returns the LSNs, in log order, of every record at or
// above from (raised to the reclaim horizon) that recovery inspects for
// the page.  The result is shared and must not be modified.
func (c *Client) pageRecords(pid page.ID, from wal.LSN) ([]wal.LSN, error) {
	ix := &c.pidx
	ix.mu.Lock()
	defer ix.mu.Unlock()
	horizon, err := c.indexLocked()
	if err != nil {
		return nil, err
	}
	from = max(from, horizon)
	lsns := ix.byPage[pid]
	i := sort.Search(len(lsns), func(i int) bool { return lsns[i] >= from })
	return lsns[i:len(lsns):len(lsns)], nil
}

// lastCheckpoint returns the LSN of the last readable checkpoint record,
// or NilLSN if there is none.
func (c *Client) lastCheckpoint() (wal.LSN, error) {
	ix := &c.pidx
	ix.mu.Lock()
	defer ix.mu.Unlock()
	_, err := c.indexLocked()
	return ix.ckpt, err
}

// walkPageLog calls fn on every record pageRecords lists for the page
// from its DPT RedoLSN on, in log order: the one way restart and §3.4
// recovery read a page's records.  A record is valid until fn returns.
func (c *Client) walkPageLog(pid page.ID, fn func(rec wal.Record) error) error {
	from := wal.NilLSN
	c.mu.Lock()
	if e, ok := c.dpt[pid]; ok {
		from = e.redoLSN
	}
	c.mu.Unlock()
	lsns, err := c.pageRecords(pid, from)
	if err != nil {
		return err
	}
	var d wal.Decoder
	for _, lsn := range lsns {
		rec, _, err := c.log.ReadWith(&d, lsn)
		if err != nil {
			return fmt.Errorf("core: read %v of page %d: %w", lsn, pid, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// CallbackList implements msg.Client: the CallBack_P contribution of
// §3.4 — callback log records this client wrote for objects on the page
// that were called back from the target client, keeping only the most
// recent PSN per object.
func (c *Client) CallbackList(req msg.CallbackListReq) (msg.CallbackListReply, error) {
	if err := c.checkAlive(); err != nil {
		return msg.CallbackListReply{}, err
	}
	latest := make(map[page.ObjectID]page.PSN)
	err := c.walkPageLog(req.Page, func(rec wal.Record) error {
		if cb, ok := rec.(*wal.Callback); ok && cb.Responder == req.Target {
			latest[cb.Object] = cb.PSN // later records overwrite: most recent wins
		}
		return nil
	})
	if err != nil {
		return msg.CallbackListReply{}, err
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

	err := c.walkPageLog(req.Page, func(rec wal.Record) error {
		if cb, isCB := rec.(*wal.Callback); isCB {
			// Every record of ours below the callback's PSN has been
			// processed by now: publish the progress before any blocking
			// fetch so parallel recoveries of this page never deadlock.
			c.rec.progress(req.Page, cb.PSN)
			if _, inList := cbPSN[cb.Object]; inList {
				return nil // rule 3, first half: skip
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
			return nil
		}
		ch, _ := redoOf(rec) // not a callback: the index holds redoable records only
		// Scan progress covers skipped records too ("processed all log
		// records containing a PSN value that is less than ...").
		c.rec.progress(req.Page, ch.psn+1)
		if limit, inList := cbPSN[ch.obj]; inList && ch.psn < limit {
			return nil // rule 1: a later remote update supersedes this one
		}
		// Rules 1 (PSN >= limit) and 2 (object not in the list): apply.
		kerr := c.rec.mutate(req.Page, func(cur *page.Page) (*page.Page, error) {
			if err := ch.apply(cur); err != nil {
				return nil, err
			}
			return cur, nil
		})
		if kerr != nil {
			return fmt.Errorf("core: §3.4 redo %s: %w", rec.Kind(), kerr)
		}
		return nil
	})
	if err != nil {
		return err
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
	if err := c.log.ForceAll(); err != nil {
		return err
	}
	c.mu.Lock()
	c.pool.Drop(req.Page)
	if e, ok := c.dpt[req.Page]; ok {
		e.rememberedEnd = c.log.End()
		e.lastShipPSN = p.PSN()
		e.dirtySinceShip = false
	}
	carry := c.newCarryLocked()
	c.carryImageLocked(carry, req.Page, img)
	c.mu.Unlock()
	return c.ship(msg.ShipRecovery, carry)
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
	c.mu.Lock()
	var err error
	if img == nil {
		if p, ok := c.pool.Get(pid); ok {
			img, err = c.prepareShipLocked(p)
		}
	}
	carry := c.newCarryLocked()
	if img != nil && err == nil {
		c.carryImageLocked(carry, pid, img)
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	// An interim copy: ShipCallback keeps the DCT PSN moving without
	// declaring this page's recovery complete.  Nothing cached ships an
	// empty carrier, so whether this client's own recovery of the page
	// has ended changes no message count and a seeded schedule replays.
	return c.ship(msg.ShipCallback, carry)
}
