package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// ErrTxnDone reports use of a committed or aborted transaction.
var ErrTxnDone = errors.New("core: transaction already terminated")

// ErrNotCounter reports a logical Add on an object that is not an
// 8-byte counter.
var ErrNotCounter = errors.New("core: object is not an 8-byte counter")

// Txn is a transaction executing entirely at its client (Section 2 of
// the paper: transactions never migrate).  A Txn is not safe for
// concurrent use; run concurrent transactions, not concurrent calls on
// one transaction.
type Txn struct {
	c    *Client
	st   txnState // one allocation with the handle
	done bool
}

// Begin starts a transaction.
func (c *Client) Begin() (*Txn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return nil, ErrCrashed
	}
	c.nextSeq++
	t := &Txn{c: c, st: txnState{id: ident.MakeTxnID(c.id, c.nextSeq)}}
	if c.cfg.Logging == LogShipPages {
		t.st.dirtyPages = make(map[page.ID]bool)
	}
	t.st.tr = c.cfg.Spans.Begin(t.st.id)
	c.txns[t.st.id] = &t.st
	return t, nil
}

// ID returns the transaction id.
func (t *Txn) ID() ident.TxnID { return t.st.id }

func (t *Txn) check() error {
	if t.done {
		return ErrTxnDone
	}
	return t.c.checkAlive()
}

// Read returns the object's current value under a shared lock.
func (t *Txn) Read(obj page.ObjectID) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if err := t.c.acquire(&t.st, lock.ObjName(obj), lock.S); err != nil {
		return nil, err
	}
	p, err := t.c.lockPage(t.st.tr, obj.Page)
	if err != nil {
		return nil, err
	}
	data, ok := p.Read(obj.Slot)
	t.c.unlockPage()
	if !ok {
		return nil, page.ErrBadSlot
	}
	return data, nil
}

// record appends a transactional log record, maintains the chain, and
// does the ship-at-commit buffering for the baseline modes.  Called
// with c.mu held (inside a lockPage section).
func (t *Txn) record(rec wal.Record, pid page.ID) error {
	c := t.c
	// Grow the undo reservation with the record: the append must leave
	// room for every active transaction's rollback plus the CLR this
	// record may later require (and, on the first record, the abort
	// record itself).
	undo := uint64(wal.EncodedSize(rec)) + 8 + clrSlack
	headroom := c.undoReserveLocked(nil) + undo
	if t.st.firstLSN == wal.NilLSN {
		headroom += abortRecCost
	}
	var shipped []byte // encoded while rec's before-image (c.before) is ours
	if c.cfg.Logging != LogLocal {
		shipped = wal.Encode(rec)
	}
	lsn, err := c.appendLocked(rec, headroom)
	if err != nil {
		return err
	}
	if t.st.firstLSN == wal.NilLSN {
		t.st.firstLSN = lsn
		t.st.undoNeed += abortRecCost
	}
	t.st.undoNeed += undo
	t.st.lastLSN = lsn
	if shipped != nil {
		t.st.buffered = append(t.st.buffered, shipped)
	}
	if t.st.dirtyPages != nil {
		t.st.dirtyPages[pid] = true
	}
	c.pool.MarkDirty(pid)
	if e, ok := c.dpt[pid]; ok {
		e.dirtySinceShip = true
	} else {
		// Defensive: an update without a DPT entry means noteExclusive
		// was bypassed; keep recoverability anyway.
		c.dpt[pid] = &dptEntry{redoLSN: lsn, dirtySinceShip: true}
	}
	return nil
}

// lockForUpdate acquires name in X for the transaction — and, in the
// token baseline, the page's update token — and returns the page as
// lockPage does; logUpdate ends the section.
func (t *Txn) lockForUpdate(name lock.Name) (*page.Page, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	c := t.c
	if err := c.acquire(&t.st, name, lock.X); err != nil {
		return nil, err
	}
	for {
		if c.cfg.Update == UpdateToken {
			if err := c.ensureToken(t.st.tr, name.Page); err != nil {
				return nil, err
			}
		}
		p, err := c.lockPage(t.st.tr, name.Page)
		if err != nil || c.cfg.Update != UpdateToken || c.tokens[name.Page] {
			return p, err
		}
		c.unlockPage() // token recalled between ensureToken and here
	}
}

// logUpdate ends a lockForUpdate section: if the page operation
// succeeded (err is nil) it logs u for the transaction, then it unlocks
// the page.  The record lives on the stack; the log encodes it before
// the append returns.
func (t *Txn) logUpdate(err error, u wal.Update) error {
	if err == nil {
		u.TxnID, u.PrevLSN = t.st.id, t.st.lastLSN
		err = t.record(&u, u.Page)
	}
	t.c.unlockPage()
	return err
}

// Overwrite replaces an object's bytes with a same-size value: the
// mergeable update of §3.1, requiring only an object-level exclusive
// lock, so other clients may update other objects on the same page
// concurrently.
func (t *Txn) Overwrite(obj page.ObjectID, data []byte) error {
	p, err := t.lockForUpdate(lock.ObjName(obj))
	if err != nil {
		return err
	}
	old, before, err := p.OverwriteInPlace(obj.Slot, data, t.c.before[:0])
	if err == nil {
		t.c.before = old
	}
	return t.logUpdate(err, wal.Update{Page: obj.Page, Slot: obj.Slot, PSN: before,
		Op: wal.OpOverwrite, Before: old, After: data})
}

// OverwriteAt replaces part of an object in place — the §3.1 wording is
// "updates that simply overwrite parts of objects residing on the same
// page"; like Overwrite it is mergeable and needs only an object-level
// exclusive lock.
func (t *Txn) OverwriteAt(obj page.ObjectID, off int, frag []byte) error {
	p, err := t.lockForUpdate(lock.ObjName(obj))
	if err != nil {
		return err
	}
	old, before, err := p.OverwriteAt(obj.Slot, off, frag)
	return t.logUpdate(err, wal.Update{Page: obj.Page, Slot: obj.Slot, PSN: before,
		Op: wal.OpOverwriteAt, Offset: uint32(off), Before: old, After: frag})
}

// Add applies a logical update: the object is an 8-byte little-endian
// counter and delta is added to it.  The log record is logical (redo
// re-adds, undo subtracts), demonstrating the paper's support for
// logical as well as physical logging (§4.2).
func (t *Txn) Add(obj page.ObjectID, delta int64) error {
	p, err := t.lockForUpdate(lock.ObjName(obj))
	if err != nil {
		return err
	}
	defer t.c.unlockPage()
	cur, ok := p.Read(obj.Slot)
	if !ok {
		return page.ErrBadSlot
	}
	if len(cur) != 8 {
		return ErrNotCounter
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(cur)+uint64(delta))
	_, before, err := p.Overwrite(obj.Slot, buf[:])
	if err != nil {
		return err
	}
	return t.record(&wal.Logical{
		TxnID: t.st.id, PrevLSN: t.st.lastLSN,
		Page: obj.Page, Slot: obj.Slot, PSN: before, Delta: delta,
	}, obj.Page)
}

// ReadCounter reads an 8-byte counter object.
func (t *Txn) ReadCounter(obj page.ObjectID) (int64, error) {
	data, err := t.Read(obj)
	if err != nil {
		return 0, err
	}
	if len(data) != 8 {
		return 0, ErrNotCounter
	}
	return int64(binary.LittleEndian.Uint64(data)), nil
}

// Insert creates a new object on the page.  Structural updates are
// non-mergeable (§3.1): a page-level exclusive lock serializes them.
func (t *Txn) Insert(pid page.ID, data []byte) (page.ObjectID, error) {
	p, err := t.lockForUpdate(lock.PageName(pid))
	if err != nil {
		return page.ObjectID{}, err
	}
	slot, before, err := p.Insert(data)
	err = t.logUpdate(err, wal.Update{Page: pid, Slot: slot, PSN: before, Op: wal.OpInsert, After: data})
	if err != nil {
		return page.ObjectID{}, err
	}
	return page.ObjectID{Page: pid, Slot: slot}, nil
}

// Delete removes an object (structural; page-level exclusive lock).
func (t *Txn) Delete(obj page.ObjectID) error {
	p, err := t.lockForUpdate(lock.PageName(obj.Page))
	if err != nil {
		return err
	}
	old, before, err := p.Delete(obj.Slot)
	return t.logUpdate(err, wal.Update{Page: obj.Page, Slot: obj.Slot, PSN: before,
		Op: wal.OpDelete, Before: old})
}

// Resize replaces an object with a different-size value (structural,
// per the paper's footnote 3).
func (t *Txn) Resize(obj page.ObjectID, data []byte) error {
	p, err := t.lockForUpdate(lock.PageName(obj.Page))
	if err != nil {
		return err
	}
	old, before, err := p.Resize(obj.Slot, data)
	return t.logUpdate(err, wal.Update{Page: obj.Page, Slot: obj.Slot, PSN: before,
		Op: wal.OpResize, Before: old, After: data})
}

// AllocPage asks the server for a fresh page; the transaction holds an
// exclusive page lock on it.
func (t *Txn) AllocPage() (page.ID, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	reply, err := t.c.srv.Alloc(msg.AllocReq{Client: t.c.id})
	if err != nil {
		return 0, err
	}
	p := new(page.Page)
	if err := p.UnmarshalBinary(reply.Image); err != nil {
		return 0, err
	}
	t.c.llm.InstallCached(lock.PageName(p.ID()), lock.X)
	if res, err := t.c.llm.AcquireLocal(t.st.id, lock.PageName(p.ID()), lock.X); err != nil || res != lock.Granted {
		return 0, fmt.Errorf("core: page lock on fresh page: res=%v err=%w", res, err)
	}
	t.c.mu.Lock()
	t.c.pool.Put(p, false)
	if _, ok := t.c.dpt[p.ID()]; !ok {
		t.c.dpt[p.ID()] = &dptEntry{redoLSN: t.c.log.End()}
	}
	if t.c.cfg.Update == UpdateToken {
		t.c.tokens[p.ID()] = true
	}
	victims := t.c.collectVictimsLocked()
	t.c.mu.Unlock()
	t.c.shipVictims(victims)
	return p.ID(), nil
}

// Savepoint returns a token for a later partial rollback (§3.2:
// "clients can support the savepoint concept and offer partial
// rollbacks").
func (t *Txn) Savepoint() wal.LSN { return t.st.lastLSN }

// RollbackTo undoes every update performed after the savepoint; the
// transaction remains active.
func (t *Txn) RollbackTo(sp wal.LSN) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.c.undoChain(&t.st, sp)
}

// Commit terminates the transaction.  In the paper's mode the only
// durability action is forcing the private log through the commit
// record: no pages, no log records, no messages to the server.  The
// baselines ship their buffered records/pages first.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	c := t.c
	start := time.Now()
	defer func() { c.Metrics.CommitNanos.ObserveDuration(time.Since(start)) }()
	if c.cfg.Logging != LogLocal {
		if err := c.checkAlive(); err != nil {
			return err
		}
		req := msg.CommitShipReq{Client: c.id, Txn: t.st.id, Records: t.st.buffered}
		if c.cfg.Logging == LogShipPages {
			c.mu.Lock()
			for pid := range t.st.dirtyPages {
				if p, ok := c.pool.Get(pid); ok {
					if img, err := p.MarshalBinary(); err == nil {
						req.Pages = append(req.Pages, img)
					}
				}
			}
			c.mu.Unlock()
		}
		sp := t.st.tr.Start(span.CatCommitShip, "")
		req.Trace = t.st.tr.Context(sp)
		err := c.srv.CommitShip(req)
		t.st.tr.End(sp)
		if err != nil {
			return err
		}
	}
	c.mu.Lock()
	// The commit record may spend this transaction's own reservation:
	// once it is durable, no undo will ever be needed.
	lsn, err := c.appendLocked(&wal.Commit{TxnID: t.st.id, PrevLSN: t.st.lastLSN}, c.undoReserveLocked(&t.st))
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if c.cfg.Logging == LogLocal {
		sp := t.st.tr.Start(span.CatWALForce, "")
		err := c.log.Force(lsn)
		t.st.tr.End(sp)
		if err != nil {
			return err
		}
	}
	checkpoint := t.finish(true)
	t.st.tr.Finish(true)
	c.Metrics.Commits.Add(1)
	if checkpoint {
		// The commit is durable: a failed checkpoint must not report it
		// failed, or a caller retrying on error would run it twice.  The
		// commit count stays, so the next commit tries again.
		_ = c.Checkpoint()
	}
	return nil
}

// Abort rolls the transaction back completely and terminates it.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	c := t.c
	if err := c.checkAlive(); err != nil {
		// The crash already wiped the transaction; restart recovery
		// rolls it back.
		t.done = true
		return err
	}
	if err := c.undoChain(&t.st, wal.NilLSN); err != nil {
		return err
	}
	// A transaction that never logged has nothing to undo at restart;
	// skip the abort record so failed-before-first-append transactions
	// (common under §3.6 pressure) don't leak bytes from a full log.
	if t.st.firstLSN != wal.NilLSN {
		c.mu.Lock()
		_, err := c.appendLocked(&wal.Abort{TxnID: t.st.id, PrevLSN: t.st.lastLSN}, c.undoReserveLocked(&t.st))
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	t.finish(false)
	t.st.tr.Finish(false)
	c.Metrics.Aborts.Add(1)
	return nil
}

// finish releases the transaction's locks (strict 2PL release point;
// the cached client-level locks stay, per inter-transaction caching)
// and counts a commit towards the automatic checkpoint, reporting
// whether one is due.
func (t *Txn) finish(committed bool) (checkpoint bool) {
	c := t.c
	t.done = true
	c.llm.ReleaseTxn(t.st.id)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.txns, t.st.id)
	c.reclaimLocked()
	if committed {
		c.commitsCk++
	}
	return committed && c.cfg.CheckpointEvery > 0 && c.commitsCk >= c.cfg.CheckpointEvery
}

// undoChain walks the transaction's log chain from its last record down
// to (exclusive) upTo, applying inverse operations and writing CLRs.
// It is shared by Abort, RollbackTo and the undo pass of restart
// recovery (§3.3).
func (c *Client) undoChain(st *txnState, upTo wal.LSN) error {
	var dec wal.Decoder
	cur := st.lastLSN
	for cur != wal.NilLSN && cur > upTo {
		rec, _, err := c.log.ReadWith(&dec, cur)
		if err != nil {
			return fmt.Errorf("core: undo read %s: %w", cur, err)
		}
		switch r := rec.(type) {
		case *wal.Update:
			if err := c.undoUpdate(st, r); err != nil {
				return err
			}
			cur = r.PrevLSN
		case *wal.Logical:
			if err := c.undoLogical(st, r); err != nil {
				return err
			}
			cur = r.PrevLSN
		case *wal.CLR:
			// Already-compensated prefix: jump over it (ARIES UndoNext).
			cur = r.UndoNext
		default:
			// Only the kinds above set a transaction's lastLSN.  (Naming
			// rec's kind here would move dec to the heap.)
			return fmt.Errorf("core: undo chain of %v reaches a record of another kind at %s", st.id, cur)
		}
	}
	return nil
}

// undoUpdate applies the inverse of one physical update as a fresh
// update and logs a CLR describing the compensation.
func (c *Client) undoUpdate(st *txnState, r *wal.Update) error {
	p, err := c.lockPage(st.tr, r.Page)
	if err != nil {
		return err
	}
	defer c.unlockPage()
	var (
		before page.PSN
		op     wal.OpKind
		after  []byte
		offset uint32
	)
	switch r.Op {
	case wal.OpOverwrite:
		_, before, err = p.OverwriteInPlace(r.Slot, r.Before, c.before[:0])
		op, after = wal.OpOverwrite, r.Before
	case wal.OpOverwriteAt:
		_, before, err = p.OverwriteAt(r.Slot, int(r.Offset), r.Before)
		op, after, offset = wal.OpOverwriteAt, r.Before, r.Offset
	case wal.OpInsert:
		_, before, err = p.Delete(r.Slot)
		op = wal.OpDelete
	case wal.OpDelete:
		before, err = p.InsertAt(r.Slot, r.Before)
		op, after = wal.OpInsert, r.Before
	case wal.OpResize:
		_, before, err = p.Resize(r.Slot, r.Before)
		op, after = wal.OpResize, r.Before
	default:
		err = fmt.Errorf("core: cannot undo op %v", r.Op)
	}
	if err != nil {
		return fmt.Errorf("core: undo %v on %v: %w", r.Op, r.Object(), err)
	}
	return c.recordCLR(st, &wal.CLR{
		TxnID: st.id, PrevLSN: st.lastLSN,
		Page: r.Page, Slot: r.Slot, PSN: before,
		Op: op, Offset: offset, After: after, UndoNext: r.PrevLSN,
	})
}

// undoLogical subtracts the delta of a logical record and logs a
// logical CLR.
func (c *Client) undoLogical(st *txnState, r *wal.Logical) error {
	p, err := c.lockPage(st.tr, r.Page)
	if err != nil {
		return err
	}
	defer c.unlockPage()
	cur, ok := p.Read(r.Slot)
	if !ok || len(cur) != 8 {
		return ErrNotCounter
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(cur)-uint64(r.Delta))
	_, before, err := p.Overwrite(r.Slot, buf[:])
	if err != nil {
		return err
	}
	return c.recordCLR(st, &wal.CLR{
		TxnID: st.id, PrevLSN: st.lastLSN,
		Page: r.Page, Slot: r.Slot, PSN: before,
		Op: wal.OpLogicalAdd, Delta: -r.Delta, UndoNext: r.PrevLSN,
	})
}

// recordCLR appends a compensation record and maintains the per-page
// bookkeeping.  Called with c.mu held (inside a lockPage section).
func (c *Client) recordCLR(st *txnState, clr *wal.CLR) error {
	// A CLR spends the space its transaction reserved for it; only the
	// other transactions' reservations must stay free.
	lsn, err := c.appendLocked(clr, c.undoReserveLocked(st))
	if err != nil {
		return err
	}
	cost := uint64(wal.EncodedSize(clr)) + 8
	if st.undoNeed > cost+abortRecCost {
		st.undoNeed -= cost
	} else {
		st.undoNeed = abortRecCost
	}
	st.lastLSN = lsn
	c.pool.MarkDirty(clr.Page)
	if e, ok := c.dpt[clr.Page]; ok {
		e.dirtySinceShip = true
	} else {
		c.dpt[clr.Page] = &dptEntry{redoLSN: lsn, dirtySinceShip: true}
	}
	return nil
}
