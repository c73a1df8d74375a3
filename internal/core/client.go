package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"clientlog/internal/buffer"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// ErrCrashed reports an operation on a crashed client engine.
var ErrCrashed = errors.New("core: client crashed")

// ErrNoLogSpace reports that the §3.6 log space manager could not free
// enough private log space to continue.
var ErrNoLogSpace = errors.New("core: private log full and nothing reclaimable")

// ClientMetrics counts client-side events for the experiments.
type ClientMetrics struct {
	Commits         obs.Counter
	Aborts          obs.Counter
	PagesFetched    obs.Counter
	PagesShipped    obs.Counter
	CallbackRecords obs.Counter // callback log records written (§3.1)
	ForceRequests   obs.Counter // §3.6 force-page requests sent
	LogFullEvents   obs.Counter // times the private log filled
	Checkpoints     obs.Counter
	ClientMerges    obs.Counter // client-side page merges (§2)
	LogReclaims     obs.Counter // §3.6 freeLogSpace attempts
	LogReclaimFails obs.Counter // attempts that freed nothing (ErrNoLogSpace)
	ForcedShips     obs.Counter // dirty pages shipped by the §3.6 replace-and-force path

	// CommitNanos is the end-to-end Commit latency distribution.
	CommitNanos obs.Histogram
}

// dptEntry is one dirty page table row (§3.2) plus the §3.6 log-space
// bookkeeping: the end-of-log LSN remembered when the page was last
// shipped, and whether it was re-dirtied since.
type dptEntry struct {
	redoLSN        wal.LSN
	rememberedEnd  wal.LSN
	lastShipPSN    page.PSN // PSN of the copy last sent to the server
	dirtySinceShip bool
}

// txnState tracks one active transaction.
type txnState struct {
	// Uses holds the transaction's id (Txn) and the names it uses at
	// the LLM, whose Release visits only those.
	lock.Uses
	firstLSN wal.LSN
	lastLSN  wal.LSN
	// ship is the ship-at-commit baselines' state (nil in LogLocal).
	ship *shipState
	// tr is the transaction's causal span recorder (nil when tracing
	// is off; every method on it tolerates nil).
	tr *span.TxnTrace
	// undoNeed is the transaction's undo reservation on a bounded log:
	// the bytes its CLRs plus an abort record could still require.
	// Forward appends must leave this much capacity free (summed over
	// all active transactions) so rollback can always log.  active says
	// the transaction is in Client.txns, whose undoSum counts undoNeed.
	undoNeed uint64
	active   bool
	done     bool // Commit or Abort ended it
}

// shipState is a transaction's share of the ship-at-commit baselines:
// the encoded log records to ship, and in LogShipPages mode the pages
// (pages is nil in LogShipCommit).
type shipState struct {
	records [][]byte
	pages   map[page.ID]bool
}

// Undo reservation sizing: a CLR compensating an update is at most the
// update's encoded size plus the UndoNext field and framing (clrSlack
// over-approximates that), and abortRecCost over-approximates a framed
// Abort record.
const (
	clrSlack     = 32
	abortRecCost = 64
)

// undoReserveLocked sums the undo reservations of every active
// transaction except skip (pass the transaction whose own rollback the
// append being sized belongs to, or nil).  Called with c.mu held.
func (c *Client) undoReserveLocked(skip *txnState) uint64 {
	if skip != nil && skip.active {
		return c.undoSum - skip.undoNeed
	}
	return c.undoSum
}

// setUndoNeedLocked sets st's undo reservation, keeping undoSum exact.
// Called with c.mu held.
func (c *Client) setUndoNeedLocked(st *txnState, need uint64) {
	if st.active {
		c.undoSum += need - st.undoNeed // modular: exact in either direction
	}
	st.undoNeed = need
}

// addTxnLocked makes st an active transaction.  Called with c.mu held.
func (c *Client) addTxnLocked(st *txnState) {
	st.active = true
	c.txns = append(c.txns, st)
	c.undoSum += st.undoNeed
}

// dropTxnLocked ends st's membership of the active transactions, if it
// has one (a crash ended them all).  Called with c.mu held.
func (c *Client) dropTxnLocked(st *txnState) {
	if !st.active {
		return
	}
	st.active = false
	c.undoSum -= st.undoNeed
	c.txns = slices.DeleteFunc(c.txns, func(t *txnState) bool { return t == st })
}

// Client is a client engine: it runs transactions entirely locally with
// a private write-ahead log, a local cache, a local lock manager, its
// own dirty page table, independent fuzzy checkpoints, local rollback
// and local restart recovery.
type Client struct {
	id  ident.ClientID
	cfg Config
	srv msg.Server
	llm *lock.LLM
	log *wal.Log

	mu   sync.Mutex
	pool *buffer.Pool
	// dpt is the dirty page table; dptMin caches its minimum RedoLSN
	// while dptMinOK (see putRedoLocked).
	dpt      map[page.ID]*dptEntry
	dptMin   wal.LSN
	dptMinOK bool
	// txns are the active transactions; undoSum sums their undoNeed.
	txns      []*txnState
	undoSum   uint64
	nextSeq   uint32
	tokens    map[page.ID]bool
	lastCkpt  wal.LSN
	commitsCk int // commits since last checkpoint
	crashed   bool
	// spareNames holds the emptied use lists (lock.Uses.Names) of ended
	// transactions for the next ones.
	spareNames [][]lock.Name

	// rec holds state only used while participating in server restart
	// recovery (§3.4); see client_recovery.go.
	rec recoveryState
	// pidx is the restart index those recoveries reach a page's log
	// records through: built by the first of them, dropped by the next
	// checkpoint.
	pidx pageIndex

	// before holds the before-image of the in-place overwrite being
	// logged (scratch under mu).
	before []byte

	// relq holds the clean pages the buffer evicted whose idle locks are
	// still cached: they are dropped and released when the queue rides
	// the next lock request that makes room or the next ship
	// (takeReleasesLocked).  recovering keeps every lock cached through
	// restart recovery.  Both under mu.
	relq       []page.ID
	recovering bool

	Metrics ClientMetrics
}

// NewClient registers a fresh client with the server.  logStore is the
// client's private log device.
func NewClient(cfg Config, srv msg.Server, logStore wal.Store) (*Client, error) {
	reply, err := srv.Register(msg.RegisterReq{})
	if err != nil {
		return nil, err
	}
	return NewClientWithID(cfg, srv, logStore, reply.ID)
}

// NewClientWithID assembles a client engine for an already-registered
// id.  The diskless path uses it: the remote log device needs the
// registered id before the engine can be built.
func NewClientWithID(cfg Config, srv msg.Server, logStore wal.Store, id ident.ClientID) (*Client, error) {
	c := &Client{
		id:     id,
		cfg:    cfg,
		srv:    srv,
		llm:    lock.NewLLM(cfg.LockTimeout),
		log:    wal.NewLog(logStore),
		pool:   buffer.New(cfg.ClientPool),
		dpt:    make(map[page.ID]*dptEntry),
		tokens: make(map[page.ID]bool),
	}
	return c, nil
}

// RegisterObs binds the client's commit, merge and log-full counters,
// the commit-latency histogram and its private log's counters into reg
// under scope=client:<id>.  Like Server.RegisterObs, rebinding after a
// restart keeps the registry series monotone.
func (c *Client) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sc := obs.T("scope", "client:"+c.id.String())
	reg.BindCounter(&c.Metrics.Commits, "client_commits_total", sc)
	reg.BindCounter(&c.Metrics.ClientMerges, "client_merges_total", sc)
	reg.BindCounter(&c.Metrics.LogFullEvents, "client_log_full_total", sc)
	reg.BindHistogram(&c.Metrics.CommitNanos, "client_commit_nanos", sc)
	c.log.RegisterObs(reg, sc)
}

// ID returns the server-assigned client id.
func (c *Client) ID() ident.ClientID { return c.id }

// Log exposes the private log (experiments read its counters).
func (c *Client) Log() *wal.Log { return c.log }

// LLM exposes the local lock manager (tests inspect it).
func (c *Client) LLM() *lock.LLM { return c.llm }

// checkAlive returns ErrCrashed once the engine crashed.
func (c *Client) checkAlive() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return nil
}

// lockName is the name locked for n: its page's under GranPage.
func (c *Client) lockName(n lock.Name) lock.Name {
	if c.cfg.Granularity == GranPage && !n.IsPage {
		return lock.PageName(n.Page)
	}
	return n
}

// acquire obtains name@mode for transaction t (acquireBatch's one name).
func (c *Client) acquire(t *txnState, name lock.Name, mode lock.Mode) error {
	return c.acquireBatch(t, []msg.LockItem{{Name: name, Mode: mode}})
}

// lockGlobal asks the GLM for items, each name in its mode — one Lock,
// or one LockBatch for several — counting them in flight meanwhile, and
// installs the grants.  A global grant carries the page (the lock alone
// does not make a stale cached copy current) and the callback origins
// to log (§3.1); installGrants applies both.  Grants around a failed
// batch item stand (strict 2PL releases them at transaction end); the
// first error is returned.
func (c *Client) lockGlobal(t *txnState, items []msg.LockItem) error {
	preferPage := c.cfg.Granularity == GranAdaptive
	pids := make([]page.ID, len(items))
	for i := range items {
		it := &items[i]
		it.PreferPage, it.Upgrade, it.Fetch = preferPage, c.llm.CachesAny(it.Name), true
		pids[i] = it.Name.Page
	}
	// Counted in flight before anything else, so no eviction drops a lock
	// on these pages while the request is out (LLM.DropIdlePage): a
	// release the server got after the grant would take it back.  Each
	// item names its page's unanswered carrier, which the server waits
	// for; doing both under c.mu, which a drop holds until its carrier is
	// marked (dropIdleLocked), leaves no release unnamed.
	count := func(d int) {
		for _, it := range items {
			c.llm.Request(d, it.Mode, it.Name)
			if preferPage && !it.Name.IsPage {
				c.llm.Request(d, it.Mode, lock.PageName(it.Name.Page))
			}
		}
	}
	c.mu.Lock()
	count(1)
	defer count(-1)
	for i := range items {
		items[i].Carried = c.llm.Carried(pids[i])
	}
	carry := c.makeRoomLocked(pids)
	for i := range items {
		if items[i].Mode != lock.X {
			continue
		}
		if p, ok := c.pool.Get(pids[i]); ok {
			items[i].HasCached, items[i].CachedPSN = true, p.PSN()
		}
	}
	c.mu.Unlock()
	var label string
	if t.tr != nil { // the label is read only from a kept trace
		label = items[0].Name.String()
		if len(items) > 1 {
			label = fmt.Sprintf("batch(%d)", len(items))
		}
	}
	sp := t.tr.Start(span.CatLockWait, label)
	if len(items) == 1 {
		req := items[0].Request(c.id, t.tr.Context(sp))
		req.Carry = carry
		reply, err := c.srv.Lock(req)
		t.tr.End(sp)
		c.endCarry(carry, err)
		if err != nil {
			return err
		}
		c.applyNotes(reply.Flushed)
		return c.installGrants([]msg.LockReply{reply}, nil)
	}
	reply, err := c.srv.LockBatch(msg.LockBatchReq{Client: c.id, Items: items, Trace: t.tr.Context(sp), Carry: carry})
	t.tr.End(sp)
	c.endCarry(carry, err)
	if err != nil {
		return err
	}
	c.applyNotes(reply.Flushed)
	if len(reply.Grants) != len(items) || len(reply.Errs) != len(items) {
		return fmt.Errorf("core: lock batch reply shape: %d grants, %d errs for %d items",
			len(reply.Grants), len(reply.Errs), len(items))
	}
	return c.installGrants(reply.Grants, reply.Errs)
}

// carrySeqs numbers the carrying lock requests of every client engine
// in the process.  A server keeps the highest number landed per page
// and client and forgets a client's numbers when it crashes, leaves or
// registers again (Server.forgetLanded), so the numbers need only grow
// within one engine's registration; one count for the process gives
// that and keeps an engine restarted in the process above its
// predecessor as well.
var carrySeqs atomic.Uint64

// makeRoomLocked makes room, before a lock request goes out, for the
// pages its grants will bring: one page for each of pids (the pages
// asked for, each with Fetch) not cached, never one of pids.  It
// returns the carrier the request is to carry (nil when the pool has
// room): the images of the dirty victims and the releases of the
// cached locks that leave with the victims and with the queued clean
// pages.  The server applies them before the request waits in the GLM,
// so the miss costs one round trip.  Called with c.mu held.
func (c *Client) makeRoomLocked(pids []page.ID) *msg.Carry {
	need := c.pool.Len() - c.pool.Capacity()
	for i, pid := range pids {
		if !c.pool.Contains(pid) && !slices.Contains(pids[:i], pid) {
			need++
		}
	}
	if need <= 0 || c.crashed {
		return nil
	}
	for _, pid := range pids {
		c.pool.Pin(pid)
	}
	carry := c.newCarryLocked()
	for ; need > 0; need-- {
		victim, dirty, err := c.pool.EvictVictim()
		if err != nil {
			break
		}
		if dirty && c.carryPageLocked(carry, victim) != nil {
			continue // the page stays lost from cache; recovery covers it
		}
		c.dropIdleLocked(carry, victim.ID())
	}
	for _, pid := range pids {
		c.pool.Unpin(pid)
	}
	c.takeReleasesLocked(carry)
	if len(carry.Pages) == 0 && len(carry.Releases) == 0 {
		return nil
	}
	return carry
}

// newCarryLocked starts a carrier (DESIGN §6 item 15), in which every
// page image and lock release leaves: filled and marked under the same
// c.mu section, so a page's marks rise with the carriers' numbers.
func (c *Client) newCarryLocked() *msg.Carry {
	return &msg.Carry{Seq: carrySeqs.Add(1)}
}

// markLocked marks page pid carried by carry until its answer
// (endCarry), naming in carry the page's earlier unanswered carrier,
// which it lands after (msg.Carry.After).  Called with c.mu held.
func (c *Client) markLocked(carry *msg.Carry, pid page.ID) {
	if prev := c.llm.Carry(pid, carry.Seq, true); prev != 0 && prev != carry.Seq {
		carry.After = append(carry.After, msg.Mark{Page: pid, Seq: prev})
	}
}

// carryImageLocked puts img, page pid's image, into carry.  Called with
// c.mu held.
func (c *Client) carryImageLocked(carry *msg.Carry, pid page.ID, img []byte) {
	carry.Pages = append(carry.Pages, msg.PageImage{Page: pid, Image: img})
	c.markLocked(carry, pid)
}

// carryPageLocked prepares dirty page p to leave the client
// (prepareShipLocked) and puts its image into carry.  Called with c.mu
// held.
func (c *Client) carryPageLocked(carry *msg.Carry, p *page.Page) error {
	img, err := c.prepareShipLocked(p)
	if err == nil {
		c.carryImageLocked(carry, p.ID(), img)
	}
	return err
}

// shipLocked makes a carrier of dirty page p, with the queued releases
// riding along: one page per ship.  Called with c.mu held.
func (c *Client) shipLocked(p *page.Page) (*msg.Carry, error) {
	carry := c.newCarryLocked()
	if err := c.carryPageLocked(carry, p); err != nil {
		return nil, err
	}
	c.takeReleasesLocked(carry)
	return carry, nil
}

// ship sends each carrier (nil ones skipped) as a Ship for reason,
// ending its marks, and returns the first error.
func (c *Client) ship(reason msg.ShipReason, carriers ...*msg.Carry) error {
	var first error
	for _, carry := range carriers {
		if carry == nil {
			continue
		}
		err := c.srv.Ship(msg.ShipReq{Client: c.id, Reason: reason, Carry: *carry})
		c.endCarry(carry, err)
		if first == nil {
			first = err
		}
	}
	return first
}

// endCarry ends the marks of a carrier (nil: none) once its message is
// answered or failed, counting its images as shipped when the server
// applied them: the message succeeded, or failed in the GLM after they
// landed.
func (c *Client) endCarry(carry *msg.Carry, err error) {
	if carry == nil {
		return
	}
	if err == nil || errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout) {
		c.Metrics.PagesShipped.Add(uint64(len(carry.Pages)))
	}
	for _, p := range carry.Pages {
		c.llm.Carry(p.Page, carry.Seq, false)
	}
	for _, n := range carry.Releases {
		c.llm.Carry(n.Page, carry.Seq, false)
	}
}

// installGrants applies GLM grants, skipping those errs marks failed
// (whose first error it returns): the pages they carry enter the cache
// before any of the locks, so no lock is usable before its page is
// current, then the locks, then the callback log records of §3.1 for
// the callbacks the grants needed.
func (c *Client) installGrants(grants []msg.LockReply, errs []string) error {
	failed := func(i int) bool { return errs != nil && errs[i] != "" }
	for i, g := range grants {
		if g.Image != nil && !failed(i) {
			if err := c.installImage(g.Image); err != nil {
				return err
			}
		}
	}
	var firstErr error
	for i, g := range grants {
		if failed(i) {
			if firstErr == nil {
				firstErr = msg.LockErrFromString(errs[i])
			}
			continue
		}
		c.llm.InstallCached(g.Name, g.Mode)
		for _, o := range g.Origins {
			c.mu.Lock()
			_, err := c.appendLocked(&wal.Callback{Object: o.Object, Responder: o.Responder, PSN: o.PSN}, c.undoReserveLocked(nil))
			c.mu.Unlock()
			if err != nil {
				return err
			}
			c.Metrics.CallbackRecords.Add(1)
		}
	}
	return firstErr
}

// installImage brings a page image from the server into the cache:
// merged into the cached copy (§2 client merge procedure; the copy may
// be stale for objects this client held no lock on), or put when the
// page is not cached.
func (c *Client) installImage(img []byte) error {
	incoming := new(page.Page)
	if err := incoming.UnmarshalBinary(img); err != nil {
		return err
	}
	c.Metrics.PagesFetched.Add(1)
	pid := incoming.ID()
	c.mu.Lock()
	if cur, ok := c.pool.Get(pid); ok {
		c.pool.Put(page.Merge(cur, incoming), c.pool.IsDirty(pid))
		c.Metrics.ClientMerges.Add(1)
	} else {
		c.pool.Put(incoming, false)
	}
	c.unlockPage()
	return nil
}

// lockPage returns the cached page with the client mutex held, fetching
// the page from the server first if needed; the caller ends the section
// with unlockPage.  tr attributes the fetch to the calling transaction's
// trace (nil outside transactions).
func (c *Client) lockPage(tr *span.TxnTrace, pid page.ID) (*page.Page, error) {
	for {
		c.mu.Lock()
		if c.crashed {
			c.mu.Unlock()
			return nil, ErrCrashed
		}
		if p, ok := c.pool.Get(pid); ok {
			return p, nil
		}
		c.mu.Unlock()
		if err := c.fetchPage(tr, pid); err != nil {
			return nil, err
		}
	}
}

// unlockPage ends a section under c.mu, a lockPage one among them:
// pages over capacity are evicted and the dirty ones shipped once the
// mutex is released.
func (c *Client) unlockPage() {
	victims := c.collectVictimsLocked()
	c.mu.Unlock()
	c.ship(msg.ShipReplace, victims...)
}

// fetchPage pulls a page from the server into the cache, once the
// page's unanswered carrier, which it names, has landed.
func (c *Client) fetchPage(tr *span.TxnTrace, pid page.ID) error {
	sp := tr.Start(span.CatFetch, "fetch")
	reply, err := c.srv.Fetch(msg.FetchReq{Client: c.id, Page: pid, Carried: c.llm.Carried(pid), Trace: tr.Context(sp)})
	tr.End(sp)
	if err != nil {
		return err
	}
	return c.installImage(reply.Image)
}

// relqBound is the number of queued pages that makes the client release
// their locks without waiting for a ship to ride.
const relqBound = 16

// collectVictimsLocked evicts over-capacity pages and returns the
// carriers to ship: one per dirty victim, with its image (shipLocked)
// and the idle locks that leave with it (dropIdleLocked).  A clean
// victim's locks leave when the queue of such pages rides a carrier, or
// in one of their own at relqBound pages.  Called with c.mu held.
func (c *Client) collectVictimsLocked() []*msg.Carry {
	var out []*msg.Carry
	for c.pool.NeedsEviction() {
		victim, dirty, err := c.pool.EvictVictim()
		if err != nil {
			break
		}
		if !dirty {
			if !slices.Contains(c.relq, victim.ID()) {
				c.relq = append(c.relq, victim.ID())
			}
			continue
		}
		carry, err := c.shipLocked(victim)
		if err != nil {
			continue // the page stays lost from cache; recovery covers it
		}
		c.dropIdleLocked(carry, victim.ID())
		out = append(out, carry)
	}
	if len(c.relq) >= relqBound {
		carry := c.newCarryLocked()
		if c.takeReleasesLocked(carry); len(carry.Releases) > 0 {
			out = append(out, carry)
		}
	}
	return out
}

// dropIdleLocked drops the cached locks on a page the buffer evicted
// when the LLM finds nothing holding them up (LLM.DropIdlePage, DESIGN
// §6 item 15) and puts the names to release at the GLM into carry,
// marking the page: a lock request for the page must not overtake the
// release.  A page back in the cache keeps its locks, and so does
// restart recovery, whose redo pass tests the retained exclusive locks.
// Called with c.mu held.
func (c *Client) dropIdleLocked(carry *msg.Carry, pid page.ID) {
	if c.recovering || c.pool.Contains(pid) {
		return
	}
	if rel := c.llm.DropIdlePage(pid); rel != nil {
		carry.Releases = append(carry.Releases, rel...)
		c.markLocked(carry, pid)
	}
}

// takeReleasesLocked empties the queue of evicted clean pages, dropping
// their idle locks into carry as dropIdleLocked does.  Until the carrier
// lands the locks stay cached at the server, so a callback meanwhile
// finds them as it would without the eviction.  Called with c.mu held.
func (c *Client) takeReleasesLocked(carry *msg.Carry) {
	for _, pid := range c.relq {
		c.dropIdleLocked(carry, pid)
	}
	c.relq = c.relq[:0]
}

// prepareShipLocked makes a dirty page ready to leave the client: the
// log is forced through its updates (WAL) and the DPT entry remembers
// the current end of the log (§3.6).  Called with c.mu held.
func (c *Client) prepareShipLocked(p *page.Page) ([]byte, error) {
	if err := c.log.ForceAll(); err != nil {
		return nil, err
	}
	img, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if e, ok := c.dpt[p.ID()]; ok {
		e.rememberedEnd = c.log.End()
		e.lastShipPSN = p.PSN()
		e.dirtySinceShip = false
	}
	return img, nil
}

// appendLocked appends a log record, running the §3.6 log space
// protocol on ErrLogFull.  headroom is the undo reservation the append
// must leave free (zero for records allowed to consume the reserve:
// CLRs and abort records spend the space reserved for them).  Called
// with c.mu held; may briefly release it while talking to the server.
func (c *Client) appendLocked(rec wal.Record, headroom uint64) (wal.LSN, error) {
	if c.crashed {
		return wal.NilLSN, ErrCrashed
	}
	for attempt := 0; ; attempt++ {
		lsn, err := c.log.AppendWithHeadroom(rec, headroom)
		if err == nil {
			return lsn, nil
		}
		if !errors.Is(err, wal.ErrLogFull) || attempt > 64 {
			return wal.NilLSN, err
		}
		if attempt == 0 {
			// rec's before-image may be c.before, which others reuse
			// while mu is released below: retry with a private copy (a
			// fresh encoding always decodes).
			rec, _ = wal.Decode(wal.Encode(rec))
		}
		c.Metrics.LogFullEvents.Add(1)
		before := c.log.Horizon()
		c.mu.Unlock()
		ferr := c.freeLogSpace()
		c.mu.Lock()
		// Callback processing appends on this client concurrently with
		// the transaction, so two freeLogSpace calls can race: ours may
		// report no progress because the other one already reclaimed the
		// space it was after.  As long as the horizon moved while we were
		// out, the verdict is stale — retry the append.
		if ferr != nil && c.log.Horizon() <= before {
			return wal.NilLSN, ferr
		}
	}
}

// freeLogSpace implements §3.6: replace (ship) the page with the
// minimum RedoLSN from the cache, ask the server to force it, advance
// that entry's RedoLSN to the remembered end of the log, and reclaim
// the log prefix below the new minimum.
func (c *Client) freeLogSpace() error {
	c.Metrics.LogReclaims.Add(1)
	c.pidx.drop() // its oldest entries are about to be reclaimed
	c.mu.Lock()
	// All progress verdicts below compare against the horizon as of
	// entry: a concurrent freeLogSpace (callback processing appends on
	// this client too) advancing it counts as progress for us as well.
	horizon0 := c.log.Horizon()
	dpt0 := len(c.dpt)
	var victim page.ID
	var min wal.LSN
	found := false
	for pid, e := range c.dpt {
		if !found || e.redoLSN < min {
			victim, min, found = pid, e.redoLSN, true
		}
	}
	if !found {
		// No dirty pages: the log is pinned by active transactions or
		// the checkpoint.  The prefix below the pin may still be
		// reclaimable — records of aborted transactions are never
		// covered by a commit force, and the store only reuses durable
		// space — so force up to the pin and retry the reclaim before
		// giving up.  A stale checkpoint (restart recovery leaves one
		// behind and nothing else renews it) is rewritten first so the
		// pin travels to the end of the log.
		c.refreshCheckpointLocked()
		target := c.minRedoLocked()
		c.mu.Unlock()
		if target > horizon0 {
			if err := c.log.Force(target); err != nil {
				return err
			}
		}
		c.mu.Lock()
		c.reclaimLocked()
		progress := c.log.Horizon() > horizon0
		c.mu.Unlock()
		if progress {
			return nil
		}
		c.Metrics.LogReclaimFails.Add(1)
		return ErrNoLogSpace
	}
	var carry *msg.Carry
	if p, ok := c.pool.Get(victim); ok && c.pool.IsDirty(victim) {
		var err error
		if carry, err = c.shipLocked(p); err != nil {
			c.mu.Unlock()
			return err
		}
		c.pool.Clean(victim)
	}
	c.mu.Unlock()
	if err := c.ship(msg.ShipReplace, carry); err != nil {
		return err
	}
	if carry != nil {
		c.Metrics.ForcedShips.Add(1)
	}
	// Ask the server to force the page (§3.6: "asks the server to force
	// the page to disk", also when the page is not cached locally).
	if err := c.force(victim); err != nil {
		return err
	}
	c.mu.Lock()
	c.refreshCheckpointLocked()
	target := c.minRedoLocked()
	c.mu.Unlock()
	// The reclaim below only reuses durable space; force through the
	// reclaim point first so records no one will ever read again
	// (aborted transactions especially) actually free their bytes.
	if target > c.log.Durable() {
		if err := c.log.Force(target); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.reclaimLocked()
	// Progress is anything that moves the protocol forward, not only an
	// immediate horizon advance: when several DPT entries tie at the
	// minimum RedoLSN, each round retires one of them and the horizon
	// only moves once the last tie is gone — that retirement must count,
	// or the append's retry loop gives up with work still to do.
	ve, vok := c.dpt[victim]
	progress := len(c.dpt) == 0 || len(c.dpt) < dpt0 || !vok || ve.redoLSN > min ||
		c.minRedoLocked() > min || c.log.Horizon() > horizon0
	c.mu.Unlock()
	if !progress {
		c.Metrics.LogReclaimFails.Add(1)
		return ErrNoLogSpace
	}
	return nil
}

// force asks the server to force page pid to disk and applies the
// acknowledgment as the flush notification would (applyFlushedLocked).
// The copy this client sent last may still be on its way, so the
// request names it — its PSN and the page's unanswered carrier — and
// the server forces once it has landed (DESIGN §6 item 8).
func (c *Client) force(pid page.ID) error {
	c.mu.Lock()
	req := msg.ForceReq{Client: c.id, Page: pid, Carried: c.llm.Carried(pid)}
	if e, ok := c.dpt[pid]; ok {
		req.PSN = e.lastShipPSN
	}
	c.mu.Unlock()
	reply, err := c.srv.Force(req)
	if err != nil {
		return err
	}
	c.Metrics.ForceRequests.Add(1)
	c.mu.Lock()
	c.applyFlushedLocked(pid, reply.PSN)
	c.mu.Unlock()
	return nil
}

// applyFlushedLocked advances the DPT after the server confirmed a
// force whose copy had the given PSN.  The acknowledgment only covers
// this client's latest ship when psn >= the PSN of that shipped copy
// (merging only raises PSNs); a late ack for an older force must
// change nothing, or updates living only in the server's volatile pool
// would lose their DPT entry — and with it their log records' reclaim
// protection and their place in §3.4 server recovery.  Called with
// c.mu held.
func (c *Client) applyFlushedLocked(pid page.ID, psn page.PSN) {
	e, ok := c.dpt[pid]
	if !ok {
		return
	}
	if psn < e.lastShipPSN {
		return // stale acknowledgment
	}
	if !e.dirtySinceShip {
		c.dropRedoLocked(pid)
		return
	}
	if e.rememberedEnd > e.redoLSN {
		c.putRedoLocked(pid, e.rememberedEnd)
	}
}

// putRedoLocked sets pid's DPT RedoLSN, inserting the entry if there is
// none, and returns the entry.  With dropRedoLocked it is the DPT's only
// writer, which keeps the cached minimum true.  Called with c.mu held.
func (c *Client) putRedoLocked(pid page.ID, redo wal.LSN) *dptEntry {
	e, ok := c.dpt[pid]
	if !ok {
		e = &dptEntry{}
		c.dpt[pid] = e
	} else if redo > e.redoLSN && e.redoLSN == c.dptMin {
		c.dptMinOK = false // the minimum may rise
	}
	e.redoLSN = redo
	if redo < c.dptMin {
		c.dptMin = redo
	}
	return e
}

// dropRedoLocked deletes pid's DPT entry.  Called with c.mu held.
func (c *Client) dropRedoLocked(pid page.ID) {
	if e, ok := c.dpt[pid]; ok && e.redoLSN == c.dptMin {
		c.dptMinOK = false
	}
	delete(c.dpt, pid)
}

// dptMinLocked returns the minimum DPT RedoLSN (the largest LSN when
// the DPT is empty), scanning the DPT only after a write marked it
// stale.  Called with c.mu held.
func (c *Client) dptMinLocked() wal.LSN {
	if !c.dptMinOK {
		c.dptMin, c.dptMinOK = ^wal.LSN(0), true
		for _, e := range c.dpt {
			c.dptMin = min(c.dptMin, e.redoLSN)
		}
	}
	return c.dptMin
}

// minRedoLocked computes the lowest LSN the private log still needs:
// the minimum DPT RedoLSN, the first LSN of every active transaction
// (undo) and the last checkpoint (restart analysis).  Called with c.mu
// held.
func (c *Client) minRedoLocked() wal.LSN {
	lo := min(c.log.End(), c.dptMinLocked())
	for _, t := range c.txns {
		if t.firstLSN != wal.NilLSN {
			lo = min(lo, t.firstLSN)
		}
	}
	if c.lastCkpt != wal.NilLSN {
		lo = min(lo, c.lastCkpt)
	}
	return lo
}

// reclaimLocked releases reusable log space.  A crashed engine reclaims
// nothing: its emptied tables would put the reclaim point at the end of
// the log its restart is about to read, and a transaction that passed
// its alive check before the crash still ends here.  Called with c.mu
// held.
func (c *Client) reclaimLocked() {
	if !c.crashed {
		c.log.Reclaim(c.minRedoLocked())
	}
}

// refreshCheckpointLocked rewrites the fuzzy checkpoint at the current
// end of the log when the old checkpoint record has become the reclaim
// pin: the checkpoint exists for restart analysis, so it can travel —
// rewriting it frees every log byte it was holding down (§3.6).
// Returns true if a new checkpoint record was written.  Called with
// c.mu held.
func (c *Client) refreshCheckpointLocked() bool {
	if c.lastCkpt == wal.NilLSN || c.minRedoLocked() != c.lastCkpt {
		return false
	}
	lsn, err := c.log.AppendWithHeadroom(c.checkpointRecLocked(), c.undoReserveLocked(nil))
	if err != nil {
		return false
	}
	c.lastCkpt = lsn
	c.commitsCk = 0
	c.Metrics.Checkpoints.Add(1)
	return true
}

// checkpointRecLocked builds a checkpoint record of the active
// transaction table and the DPT.  Called with c.mu held.
func (c *Client) checkpointRecLocked() *wal.Checkpoint {
	rec := &wal.Checkpoint{}
	for _, t := range c.txns {
		rec.Active = append(rec.Active, wal.TxnInfo{ID: t.Txn, FirstLSN: t.firstLSN, LastLSN: t.lastLSN})
	}
	rec.DPT = c.dptEntriesLocked()
	return rec
}

// dptEntriesLocked lists the DPT.  Called with c.mu held.
func (c *Client) dptEntriesLocked() []wal.DPTEntry {
	var out []wal.DPTEntry
	for pid, e := range c.dpt {
		out = append(out, wal.DPTEntry{Page: pid, RedoLSN: e.redoLSN})
	}
	return out
}

// ensureToken acquires the page's update token (update-privilege
// baseline); the freshest copy of the page travels with it.
func (c *Client) ensureToken(tr *span.TxnTrace, pid page.ID) error {
	c.mu.Lock()
	owned := c.tokens[pid]
	c.mu.Unlock()
	if owned {
		return nil
	}
	sp := tr.Start(span.CatLockWait, "token")
	reply, err := c.srv.Token(msg.TokenReq{Client: c.id, Page: pid, Trace: tr.Context(sp)})
	tr.End(sp)
	if err != nil {
		return err
	}
	incoming := new(page.Page)
	if err := incoming.UnmarshalBinary(reply.Image); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.pool.Get(pid); ok {
		merged := page.Merge(cur, incoming)
		c.pool.Put(merged, c.pool.IsDirty(pid))
	} else {
		c.pool.Put(incoming, false)
	}
	c.tokens[pid] = true
	return nil
}

// ReplacePage deterministically exercises the steal path: the cached
// page is shipped to the server if dirty (honouring the WAL rule) and
// dropped from the cache, exactly as LRU replacement would.
func (c *Client) ReplacePage(pid page.ID) error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	c.mu.Lock()
	p, ok := c.pool.Get(pid)
	if !ok {
		c.mu.Unlock()
		return nil
	}
	var carry *msg.Carry
	if c.pool.IsDirty(pid) {
		var err error
		if carry, err = c.shipLocked(p); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.pool.Drop(pid)
	c.mu.Unlock()
	return c.ship(msg.ShipReplace, carry)
}

// FreePage deallocates a page: cached locks and buffered state for it
// are dropped and the server frees it in stable storage.  The caller is
// responsible for not freeing pages other clients still use.
func (c *Client) FreePage(pid page.ID) error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	// Ship our copy first so the server frees the page knowing its
	// latest PSN (the reincarnation seed must exceed it).
	c.mu.Lock()
	var carry *msg.Carry
	if p, ok := c.pool.Get(pid); ok {
		carry, _ = c.shipLocked(p) // unshipped, the server's copy is all it knows
	}
	c.pool.Drop(pid)
	c.dropRedoLocked(pid)
	delete(c.tokens, pid)
	c.relq = slices.DeleteFunc(c.relq, func(p page.ID) bool { return p == pid })
	c.mu.Unlock()
	if err := c.ship(msg.ShipCallback, carry); err != nil {
		return err
	}
	c.llm.DropCached(lock.PageName(pid))
	if err := c.srv.Free(msg.FreeReq{Client: c.id, Page: pid}); err != nil {
		return err
	}
	return c.srv.Unlock(msg.UnlockReq{Client: c.id, Action: msg.ActionRelease, Name: lock.PageName(pid)})
}

// Checkpoint takes an independent fuzzy checkpoint: the active
// transaction table and the DPT go to the private log; no coordination
// with the server or other clients (paper advantage 6).
func (c *Client) Checkpoint() error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	c.mu.Lock()
	// The checkpoint record is a forward append like any other: it must
	// respect the undo reservation (appendLocked also runs the §3.6
	// retry protocol on a full log).
	lsn, err := c.appendLocked(c.checkpointRecLocked(), c.undoReserveLocked(nil))
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if err := c.log.Force(lsn); err != nil {
		return err
	}
	c.mu.Lock()
	c.lastCkpt = lsn
	c.commitsCk = 0
	c.reclaimLocked()
	c.mu.Unlock()
	// A restart index left by a server restart is released here, on the
	// cold path, so the forward path never has to look at it.
	c.pidx.drop()
	c.Metrics.Checkpoints.Add(1)
	return nil
}

// FlushCache ships every dirty page to the server (orderly shutdown).
func (c *Client) FlushCache() error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	c.mu.Lock()
	var ships []*msg.Carry
	var err error
	for _, pid := range c.pool.DirtyIDs() {
		p, _ := c.pool.Get(pid)
		var carry *msg.Carry
		if carry, err = c.shipLocked(p); err != nil {
			break
		}
		c.pool.Clean(pid)
		ships = append(ships, carry)
	}
	c.mu.Unlock()
	c.ship(msg.ShipReplace, ships...)
	return err
}

// Disconnect leaves the cluster cleanly: dirty pages are shipped, every
// page still covered by this client's log is forced to server disk, and
// all locks released.  The forces are what make departure safe: server
// crash recovery (§3.4) replays lost pages from client logs, and a
// departed client's log is no longer available — so nothing on the
// server may depend on it.  The DPT is exactly the set of pages with
// that dependence.
func (c *Client) Disconnect() error {
	if err := c.FlushCache(); err != nil {
		return err
	}
	for _, e := range c.DPTSnapshot() {
		if err := c.force(e.Page); err != nil {
			return err
		}
	}
	return c.srv.Disconnect(c.id)
}

// Crash simulates a client crash: lock tables and cache contents are
// lost (§3.3), as is the unforced tail of the private log.  The server
// must be told separately (Server.ClientCrashed), as a real server
// learns from a broken connection.
func (c *Client) Crash() {
	c.mu.Lock()
	c.crashed = true
	c.pool.Clear()
	c.dpt, c.dptMinOK = make(map[page.ID]*dptEntry), false
	for _, st := range c.txns {
		st.active = false
	}
	c.txns, c.undoSum = nil, 0
	c.tokens = make(map[page.ID]bool)
	c.lastCkpt = wal.NilLSN
	c.relq = nil
	c.mu.Unlock()
	c.llm.Clear()
	// Any store that models volatility (a MemStore, a RemoteLogStore, or
	// a decorator forwarding to one) drops its unforced tail.
	if st, ok := c.log.Store().(interface{ Crash() }); ok {
		st.Crash()
	}
}

// DPTSnapshot returns the dirty page table (tests and §3.4 recovery).
func (c *Client) DPTSnapshot() []wal.DPTEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dptEntriesLocked()
}

// --- msg.Client handlers (the server talking to us) ---

// CallbackObject implements msg.Client: §3.2 object-level conflict
// handling (answerCallback).
func (c *Client) CallbackObject(req msg.CallbackReq) (msg.CallbackReply, error) {
	reply, _, err := c.answerCallback(req.Object, req.Wanted, req.Wait)
	return reply, err
}

// DeescalatePage implements msg.Client: §3.2 page-level conflict
// handling (answerCallback).
func (c *Client) DeescalatePage(req msg.DeescReq) (msg.DeescReply, error) {
	reply, objs, err := c.answerCallback(lock.PageName(req.Page), req.Wanted, req.Wait)
	return msg.DeescReply{Objs: objs, Image: reply.Image, HadPage: reply.HadPage, Busy: reply.Busy, Carried: reply.Carried}, err
}

// answerCallback is the holder's side of the callback conversation for
// name: an object callback, or a de-escalation for a page name.  It
// waits until no local transaction uses name in a mode conflicting with
// wanted (a de-escalation waits out every structural use of the page)
// and no grant of name is on its way — or, in the first phase (wait
// false), answers Busy instead of waiting.  Then it ships the page if
// it holds updates and gives the lock up: an object lock is released or
// downgraded, a page lock replaced by the object locks objs for the
// objects its transactions accessed.  A carrier holding the page's
// updates or releases is never waited for: the answer names the page's
// unanswered carrier (Carried), and the server applies the answer after
// it has landed.
func (c *Client) answerCallback(name lock.Name, wanted lock.Mode, wait bool) (msg.CallbackReply, []lock.ObjLock, error) {
	if err := c.checkAlive(); err != nil {
		return msg.CallbackReply{}, nil, err
	}
	// The GLM records a grant before its reply arrives, so a callback can
	// overtake it, and answering from the cache would let the grant
	// install a lock (or an upgrade) the server has just taken back.  So
	// while a request for name in flight asks for more than the cache
	// holds, the waiting phase waits and the first answers busy: a
	// transaction is about to use the name.  Only a request for name (or
	// a PreferPage request on its page) can be that grant; waiting on
	// other requests could wait on one queued at the GLM behind this
	// callback.
	pid := name.Page
	cur, busy, err := c.llm.AwaitGrant(name, wait)
	switch {
	case err != nil:
		return msg.CallbackReply{}, nil, err
	case busy:
		return msg.CallbackReply{Busy: true}, nil, nil
	case cur == lock.None:
		// Already released (racing callbacks are idempotent), or dropped
		// with an evicted page and the release on its way.  The release
		// lands first: the server keeps the origins of the objects the
		// lock covered as it applies it, and they would be lost if this
		// answer took the lock first.  A stale or repeated de-escalation
		// answers with the object locks actually held, or the GLM, about
		// to remove its (phantom) page lock entry, would let another
		// client take objects this one still owns.  The mark is read
		// under c.mu, which a drop holds until its release is marked.
		c.mu.Lock()
		carried := c.llm.Carried(pid)
		c.mu.Unlock()
		if name.IsPage {
			return msg.CallbackReply{Carried: carried}, c.llm.CachedObjLocks(pid), nil
		}
		return msg.CallbackReply{Released: true, Carried: carried}, nil, nil
	}
	fence := wanted
	if name.IsPage {
		fence = lock.X
	}
	c.llm.SetFence(name, fence)
	defer c.llm.ClearFence(name)
	if !wait && !c.llm.ObjectFree(name, fence) {
		// A local transaction uses the name: say so at once, so the
		// server counts the requester as waiting for it.  The fence is
		// down until the waiting second callback arrives: for that round
		// trip new local transactions may take the name first.
		return msg.CallbackReply{Busy: true}, nil, nil
	}
	if err := c.llm.WaitObjectFree(name, fence); err != nil {
		return msg.CallbackReply{}, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return msg.CallbackReply{}, nil, ErrCrashed
	}
	reply := msg.CallbackReply{Carried: c.llm.Carried(pid)}
	if p, ok := c.pool.Get(pid); ok && c.pool.IsDirty(pid) {
		img, err := c.prepareShipLocked(p)
		if err != nil {
			return msg.CallbackReply{}, nil, err
		}
		reply.Image, reply.HadPage = img, true
		c.pool.Clean(pid)
	}
	switch {
	case name.IsPage:
		objs := c.llm.RetainedObjLocks(pid)
		c.llm.Deescalate(pid, objs)
		return reply, objs, nil
	case wanted == lock.X:
		c.llm.DropCached(name)
		reply.Released = true
		if !c.llm.HoldsAnyOnPage(pid) {
			// §3.2: drop P from the cache if no other locks are held on
			// objects residing on the page.
			c.pool.Drop(pid)
		}
	default:
		c.llm.DowngradeCached(name)
		reply.Downgraded = true
	}
	if c.cfg.Update == UpdateToken && !c.llm.HoldsAnyOnPage(pid) {
		// The page leaves our control (token baseline bookkeeping).
		delete(c.tokens, pid)
	}
	return reply, nil, nil
}

// RecallToken implements msg.Client (update-privilege baseline): the
// token leaves with the current copy of the page.
func (c *Client) RecallToken(pid page.ID) (msg.TokenReply, error) {
	if err := c.checkAlive(); err != nil {
		return msg.TokenReply{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tokens, pid)
	var reply msg.TokenReply
	if p, ok := c.pool.Get(pid); ok && c.pool.IsDirty(pid) {
		img, err := c.prepareShipLocked(p)
		if err != nil {
			return msg.TokenReply{}, err
		}
		reply.Image = img
		c.pool.Clean(pid)
	}
	return reply, nil
}

// NotifyFlushed implements msg.Client: the server flushed a page this
// client had replaced (§3.2 DPT maintenance, §3.6 RedoLSN advance).
func (c *Client) NotifyFlushed(pid page.ID, psn page.PSN) {
	c.applyNotes([]msg.FlushedNote{{Page: pid, PSN: psn}})
}

// applyNotes applies flush notes, which lock replies carry and
// NotifyFlushed brings one at a time, in one c.mu section.
func (c *Client) applyNotes(notes []msg.FlushedNote) {
	if len(notes) == 0 {
		return
	}
	c.mu.Lock()
	if !c.crashed {
		for _, n := range notes {
			c.applyFlushedLocked(n.Page, n.PSN)
		}
		c.reclaimLocked()
	}
	c.mu.Unlock()
}

func (c *Client) String() string { return fmt.Sprintf("client(%s)", c.id) }

// DebugPage renders the cached copy of a page (debug tooling).
func (c *Client) DebugPage(pid page.ID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pool.Get(pid)
	if !ok {
		return fmt.Sprintf("%v: page %d not cached", c.id, pid)
	}
	out := fmt.Sprintf("%v: page %d psn=%d dirty=%v slots:", c.id, pid, p.PSN(), c.pool.IsDirty(pid))
	for _, s := range p.UsedSlotIDs() {
		d, _ := p.Read(s)
		out += fmt.Sprintf(" %d@%d=%x", s, p.SlotPSN(s), d[:min(4, len(d))])
	}
	if e, ok := c.dpt[pid]; ok {
		out += fmt.Sprintf(" [dpt redo=%v shipPSN=%d dirtySince=%v]", e.redoLSN, e.lastShipPSN, e.dirtySinceShip)
	}
	return out
}
