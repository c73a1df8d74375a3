// Package msg defines the client-server protocol of the system: every
// request and reply exchanged between the two tiers, the interfaces the
// engines in internal/core are written against (Server, Client), and
// the one seam every transport sits on (call.go).
//
// The seam is a method table plus Caller, Call(Method, request) →
// reply.  ServerConn and ClientConn turn a Caller into the typed
// interfaces; ServeServer and ServeClient turn a call back into a
// method of an engine.  Everything between them is middleware on
// Caller: the in-process Loopback (latency plus the message and byte
// accounting several experiments report), Faulty (the simulated lossy
// network with retries and a ReplyCache), the TCP transport in
// internal/netrpc, and the cluster's restart-surviving server handle.
package msg

import (
	"errors"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// ShipReason says why a client sends a page to the server.
type ShipReason uint8

const (
	// ShipReplace: the dirty page was evicted from the client cache.
	ShipReplace ShipReason = iota + 1
	// ShipCallback: the page travels in response to a callback.
	ShipCallback
	// ShipCommit: commit-time page shipping (Versant-style baseline
	// only; the paper's protocol never ships pages at commit).
	ShipCommit
	// ShipRecovery: a page recovered by a client during server restart
	// recovery (§3.4) returns to the server.
	ShipRecovery
)

// RegisterReq introduces a client to the server.  Recover is set when a
// previously crashed client reconnects to run restart recovery.
type RegisterReq struct {
	// ID is zero for a fresh client (the server assigns one) or the
	// previous id of a recovering client.
	ID      ident.ClientID
	Recover bool
}

// RegisterReply carries the assigned id and, for a recovering client,
// the exclusive locks the server retained on its behalf (§3.3).  After
// a complex crash (§3.5) the server lost its lock tables too and HeldX
// is empty; the client then relies purely on the PSN tests.
type RegisterReply struct {
	ID       ident.ClientID
	PageSize int
	HeldX    []lock.Holding
}

// DCTRow is the client-visible projection of a server DCT entry.
type DCTRow struct {
	Page page.ID
	PSN  page.PSN
}

// LockReq asks the GLM for a lock.  CachedPSN carries the PSN of the
// client's cached copy when it requests an exclusive lock on an object
// of a cached page; per §3.2 the server stores that PSN in the new DCT
// entry (footnote 4).
type LockReq struct {
	Client     ident.ClientID
	Name       lock.Name
	Mode       lock.Mode
	PreferPage bool
	// Upgrade says the client still caches a lock covering Name and is
	// strengthening it; upgrades bypass the GLM's fairness ordering and
	// the server's callback-application barrier (both would deadlock an
	// upgrade against a callback waiting for the upgrader's own
	// transaction).
	Upgrade   bool
	HasCached bool
	CachedPSN page.PSN
	// Fetch asks for the granted name's page with the grant, read after
	// it as Fetch reads it, so no fetch round trip follows the lock.
	Fetch bool
	// Trace carries the requester's causal-tracing context so the
	// server can attribute its GLM wait and callback round trips to the
	// originating transaction.  Zero (the common case) costs nothing on
	// the wire.
	Trace span.Context
	// Carry, when set, is applied before the request enters the GLM.  A
	// pointer, so the request stays comparable.
	Carry *Carry
	// Carried names the latest carrier of the client's about Name's page
	// that had no answer when the request left (0: none).  The server
	// waits for it to land before the request enters the GLM.
	Carried uint64
}

// Carry is a carrier: what leaves the client's cache for the server
// (DESIGN §6 item 15), riding a lock request ahead of its asks or sent
// alone as a Ship.  It holds the images of dirty pages the client
// evicted, shipped or handed over, and the cached locks it dropped with
// evicted pages.  Seq is the client's number for the carrier (never 0).
// Every later message about one of its pages names it until it is
// answered (LockReq.Carried, CallbackReply.Carried, ...), and the server
// waits for the carrier to land on that page before it acts on the
// message.  After names, for each page the carrier is about, the latest
// earlier carrier about the page that had no answer yet; the carrier
// lands only after those, so a page's carriers land in order.
type Carry struct {
	Seq      uint64
	After    []Mark
	Pages    []PageImage
	Releases []lock.Name
}

// Mark names a client's carrier numbered Seq that is about Page.
type Mark struct {
	Page page.ID
	Seq  uint64
}

// PageImage is a page image named by its page, so a router need not
// parse the image.
type PageImage struct {
	Page  page.ID
	Image []byte
}

// LockItem is one element of a LockBatchReq: the per-lock fields of a
// LockReq without the client identity and trace context, which are
// shared by the whole batch.
type LockItem struct {
	Name       lock.Name
	Mode       lock.Mode
	PreferPage bool
	Upgrade    bool
	HasCached  bool
	CachedPSN  page.PSN
	Fetch      bool
	Carried    uint64
}

// Request is the item as client c's LockReq.
func (it LockItem) Request(c ident.ClientID, trace span.Context) LockReq {
	return LockReq{Client: c, Name: it.Name, Mode: it.Mode, PreferPage: it.PreferPage, Upgrade: it.Upgrade,
		HasCached: it.HasCached, CachedPSN: it.CachedPSN, Fetch: it.Fetch, Trace: trace, Carried: it.Carried}
}

// LockBatchReq acquires several locks in one request/reply exchange.
// The server acquires the items in its own canonical order (ascending
// page, page-level before object-level, then ascending slot) regardless
// of the order sent, so two clients issuing overlapping batches cannot
// deadlock on batch-internal ordering; replies come back in the
// caller's order.  Items fail independently: one deadlocked item does
// not poison the grants before or after it.
type LockBatchReq struct {
	Client ident.ClientID
	Items  []LockItem
	Trace  span.Context
	// Carry is LockReq's.
	Carry *Carry
}

// LockBatchReply carries one slot per requested item, in request order.
// Errs[i] is the empty string for a granted item and the error text
// otherwise (use LockErrFromString to restore the typed lock errors);
// the RPC itself only fails on transport errors, so partial grants
// survive — crucial for exactly-once retries, where the reply cache
// must be able to replay a half-successful batch verbatim.  Flushed is
// LockReply's, taken once for the batch (its grants carry none).
type LockBatchReply struct {
	Grants  []LockReply
	Errs    []string
	Flushed []FlushedNote
}

// FetchBatchReq fetches several pages in one exchange.  Carried[i] is
// FetchReq.Carried for Pages[i]; a nil Carried names no carrier.
type FetchBatchReq struct {
	Client  ident.ClientID
	Pages   []page.ID
	Carried []uint64
	Trace   span.Context
}

// FetchBatchReply carries one slot per requested page, in request
// order; a failed page has its error text in Errs[i] and a nil image.
type FetchBatchReply struct {
	Images  [][]byte
	DCTPSNs []page.PSN
	Errs    []string
}

// LockErrFromString restores the typed lock errors that travelled as
// strings — inside a batch reply, or as the error text of any call over
// TCP — so errors.Is keeps working regardless of transport.
func LockErrFromString(s string) error {
	if s == "" {
		return nil
	}
	switch s {
	case lock.ErrDeadlock.Error():
		return lock.ErrDeadlock
	case lock.ErrTimeout.Error():
		return lock.ErrTimeout
	case lock.ErrStopped.Error():
		return lock.ErrStopped
	default:
		return errors.New(s)
	}
}

// CallbackOrigin reports, for an exclusive-lock grant that required a
// callback, which client responded and the PSN the page had when the
// responder sent it to the server.  The requester writes one callback
// log record per origin (§3.1).
type CallbackOrigin struct {
	Object    page.ObjectID
	Responder ident.ClientID
	PSN       page.PSN
}

// LockReply reports the actual grant (possibly page-level under
// adaptive granularity) and any callback origins.  Image is the page
// when the request asked Fetch.  Flushed holds the flush notes the
// server kept for the requester since its last lock reply: pages it
// shipped that reached disk, each at the forced copy's PSN (§3.2, §3.6;
// Client.NotifyFlushed's meaning).
type LockReply struct {
	Name    lock.Name
	Mode    lock.Mode
	Origins []CallbackOrigin
	Image   []byte
	Flushed []FlushedNote
}

// UnlockAction discriminates the lock-downgrade messages a client sends
// when it responds to callbacks or drops cached locks.
type UnlockAction uint8

const (
	// ActionRelease removes the lock.
	ActionRelease UnlockAction = iota + 1
	// ActionDowngrade demotes X to S.
	ActionDowngrade
	// ActionDeescalate replaces a page lock with object locks.
	ActionDeescalate
)

// UnlockReq updates the GLM when the client gives up cached locks.
type UnlockReq struct {
	Client ident.ClientID
	Action UnlockAction
	Name   lock.Name
	// Objs are the object locks that replace the page lock when Action
	// is ActionDeescalate.
	Objs []lock.ObjLock
}

// FetchReq asks for a page.  Recovery is set during client restart
// recovery; the client then installs the DCTPSN from the reply on the
// fetched page (§3.3).  During normal processing the client ignores it.
// Carried is LockReq's, for Page: the page is read once it has landed.
type FetchReq struct {
	Client   ident.ClientID
	Page     page.ID
	Recovery bool
	Carried  uint64
	Trace    span.Context
}

// FetchReply carries the page image and the PSN stored in the DCT entry
// for this client and page (NULL/zero when absent).
type FetchReply struct {
	Image  []byte
	DCTPSN page.PSN
}

// ShipReq sends a carrier that rides no lock request: at most one page
// image, and the releases of cached locks the client dropped with pages
// its buffer evicted, each a callback answered "released, no page"
// before the server asked (DESIGN §6 item 15).
type ShipReq struct {
	Client ident.ClientID
	Reason ShipReason
	Carry  Carry
	Trace  span.Context
}

// ForceReq asks the server to force a page to disk; the client's log
// space manager issues it when its private log fills up (§3.6).  PSN is
// the PSN of the copy of the page the client sent last, which the force
// must cover, and Carried is LockReq's: the server forces once its copy
// holds what the client sent (DESIGN §6 item 8).
type ForceReq struct {
	Client  ident.ClientID
	Page    page.ID
	PSN     page.PSN
	Carried uint64
	Trace   span.Context
}

// ForceReply reports the PSN of the copy that reached disk (zero when
// nothing was cached to force).  Flush acknowledgments carry the same
// PSN: a client may only drop its DPT entry when the forced PSN covers
// its latest shipped copy — a late ack for an older force must not.
type ForceReply struct {
	PSN page.PSN
}

// AllocReq asks the server to allocate a fresh page; the reply grants
// the client an exclusive page lock on it.
type AllocReq struct {
	Client ident.ClientID
}

// FreeReq deallocates a page.
type FreeReq struct {
	Client ident.ClientID
	Page   page.ID
}

// CommitShipReq implements the ARIES/CSA-style baseline: the client
// ships its transaction's log records (and optionally its dirty pages,
// Versant-style) to the server at commit and the server forces them to
// its own log.  The paper's protocol never sends this message.
type CommitShipReq struct {
	Client  ident.ClientID
	Txn     ident.TxnID
	Records [][]byte // encoded wal records
	Pages   [][]byte // page images (ShipPagesAtCommit mode)
	Trace   span.Context
}

// TokenReq requests the update token of a page (update-privilege
// baseline, §3.1); the reply carries the page as last seen by the
// previous owner.
type TokenReq struct {
	Client ident.ClientID
	Page   page.ID
	Trace  span.Context
}

// TokenReply carries the current page image, which travels with the
// token.
type TokenReply struct {
	Image []byte
}

// RecoveryFetchReq is the §3.4 step-3 fetch: while redoing its log a
// recovering client meets a callback record for an object absent from
// its CallBack_P list and must fetch the page as of (CID, PSN).  The
// server forwards the request to CID when CID's recovery has not yet
// progressed past PSN.
type RecoveryFetchReq struct {
	Client ident.ClientID
	Page   page.ID
	CID    ident.ClientID
	PSN    page.PSN
}

// LogOpKind discriminates remote-log operations (diskless clients).
type LogOpKind uint8

const (
	// LogAppend appends a record payload.
	LogAppend LogOpKind = iota + 1
	// LogFlush forces the log through LSN.
	LogFlush
	// LogRead reads the record at LSN.
	LogRead
	// LogEnd queries the next-append LSN.
	LogEnd
	// LogDurable queries the durability horizon.
	LogDurable
	// LogReclaim releases space below LSN.
	LogReclaim
	// LogHorizon queries the earliest readable LSN.
	LogHorizon
	// LogAppendBatch appends several record payloads in one exchange
	// and returns the LSN of the first; the client derives the rest
	// (its hosted log has a single appender, so offsets are
	// deterministic).
	LogAppendBatch
)

// LogReq is one remote-log operation.  Section 2 of the paper: "clients
// that do not have local disk space can ship their log records to the
// server"; the server then hosts that client's private log (still never
// merged with anyone else's).
type LogReq struct {
	Client  ident.ClientID
	Op      LogOpKind
	LSN     wal.LSN
	Payload []byte
	Batch   [][]byte // LogAppendBatch payloads
}

// LogReply answers a LogReq.
type LogReply struct {
	LSN     wal.LSN // assigned/queried LSN
	Next    wal.LSN // LSN following a read record
	Payload []byte  // read payload
}

// Server is the interface clients speak to the server.  Every method is
// one request/reply exchange (two messages) except where noted.
type Server interface {
	Register(RegisterReq) (RegisterReply, error)
	Lock(LockReq) (LockReply, error)
	// LockBatch acquires several locks in one exchange (see
	// LockBatchReq); items fail independently via LockBatchReply.Errs.
	LockBatch(LockBatchReq) (LockBatchReply, error)
	Unlock(UnlockReq) error
	Fetch(FetchReq) (FetchReply, error)
	// FetchBatch fetches several pages in one exchange.
	FetchBatch(FetchBatchReq) (FetchBatchReply, error)
	Ship(ShipReq) error
	Force(ForceReq) (ForceReply, error)
	Alloc(AllocReq) (FetchReply, error)
	Free(FreeReq) error
	CommitShip(CommitShipReq) error
	Token(TokenReq) (TokenReply, error)
	RecoveryFetch(RecoveryFetchReq) (FetchReply, error)
	// Reinstall re-registers locks in the GLM without conflict checks.
	// A client recovering from a complex crash (§3.5) uses it to regain
	// the exclusive locks covering its uncommitted transactions before
	// rolling them back.
	Reinstall(c ident.ClientID, holds []lock.Holding) error
	// RecoverQuery maps a recovering client's DPT pages to the DCT rows
	// that bound its redo work: live DCT entries in the client-crash
	// case, or rows reconstructed from replacement log records and disk
	// PSNs after a complex crash (§3.5).  Pages without a row need no
	// recovery (Property 1).
	RecoverQuery(c ident.ClientID, pages []page.ID) ([]DCTRow, error)
	// LogOp services a diskless client's remote private log.
	LogOp(LogReq) (LogReply, error)
	// RecoverEnd tells the server the client finished restart recovery;
	// queued callbacks may then be delivered.
	RecoverEnd(ident.ClientID) error
	// Disconnect removes a cleanly departing client.
	Disconnect(ident.ClientID) error
}

// CallbackReq asks a client to give up or downgrade a cached object
// lock.  A first callback has Wait false: a client whose local
// transactions use the object answers Busy at once instead of waiting
// for them, and the server re-sends the callback with Wait true, which
// waits.  The requester's wait on the holder becomes a waits-for edge
// only on that busy answer.
type CallbackReq struct {
	Requester ident.ClientID
	Object    lock.Name
	Wanted    lock.Mode
	Wait      bool
}

// CallbackReply reports what the client did.  Image is the page copy
// shipped along when the client held the object in X (the server merges
// it and forwards it to the requester); PSN is the page's PSN on that
// copy.  Busy (only when the request's Wait was false) says the client
// did nothing because it cannot give the object up at once: a local
// transaction uses it, or a grant of it is on its way.  Carried names
// the page's latest unanswered carrier (Carry.Seq), which may hold the
// page's updates or lock releases: the server applies the answer only
// after that carrier has landed.
type CallbackReply struct {
	Released   bool
	Downgraded bool
	Image      []byte
	HadPage    bool
	Busy       bool
	Carried    uint64
}

// DeescReq asks a client to replace its page lock with object locks.
// Wait has CallbackReq's meaning, for a structural use of the page.
type DeescReq struct {
	Requester ident.ClientID
	Page      page.ID
	Wanted    lock.Mode
	Wait      bool
}

// DeescReply lists the object locks the client retains; it also ships
// the page if it was dirty under an exclusive page lock.  Busy and
// Carried have CallbackReply's meaning.
type DeescReply struct {
	Objs    []lock.ObjLock
	Image   []byte
	HadPage bool
	Busy    bool
	Carried uint64
}

// FlushedNote names a page and a PSN.  It is a flush note (the server
// forced Page to disk at PSN), which lock replies carry and the one-way
// NotifyFlushed sends, and the request of RecoveryShipUpTo (ship Page
// once recovery has passed PSN).
type FlushedNote struct {
	Page page.ID
	PSN  page.PSN
}

// RecoveryInfoReply is a client's answer to the server's restart
// recovery solicitation (§3.4): its DPT, the pages in its cache, and
// its cached locks for GLM reconstruction.
type RecoveryInfoReply struct {
	DPT    []wal.DPTEntry
	Cached []page.ID
	Locks  []lock.Holding
}

// CallbackListReq asks a client (Ci in §3.4) for the CallBack_P list it
// can contribute for page P and recovering client C: the callback log
// records it wrote for objects called back from C, scanned from its DPT
// RedoLSN for P.
type CallbackListReq struct {
	Page   page.ID
	Target ident.ClientID
}

// CallbackListReply returns the (object, PSN) pairs; for repeated
// callbacks of the same object only the most recent PSN is kept.
type CallbackListReply struct {
	Entries []CallbackOrigin
}

// RecoverPageReq tells a client to recover its updates on page P during
// server restart recovery.  Image is the server's best current copy,
// DCTPSN the PSN to install on it, and Callbacks the merged CallBack_P
// list of §3.4.
type RecoverPageReq struct {
	Page      page.ID
	Image     []byte
	DCTPSN    page.PSN
	Callbacks []CallbackOrigin
}

// Client is the interface the server speaks to each connected client.
type Client interface {
	CallbackObject(CallbackReq) (CallbackReply, error)
	DeescalatePage(DeescReq) (DeescReply, error)
	// RecallToken takes the update token (and the page travelling with
	// it) away from its current owner; update-privilege baseline only.
	RecallToken(page.ID) (TokenReply, error)
	// RecoveryShipUpTo implements the forwarding of §3.4 step 3: the
	// client ships its in-recovery copy of the page to the server once
	// it has processed all of its log records for the page whose PSN is
	// below the threshold (or finished the page entirely).
	RecoveryShipUpTo(p page.ID, psn page.PSN) error
	// NotifyFlushed is one-way: the server tells a client that shipped a
	// page that the page reached disk (§3.2 DPT maintenance and §3.6).
	// The PSN identifies the forced copy so late acknowledgments cannot
	// drop DPT entries covering newer ships.  Lock replies carry these
	// notes (LockReply.Flushed); the server sends this message only
	// from Force and FlushAll.
	NotifyFlushed(p page.ID, psn page.PSN)
	// RecoveryInfo, CallbackList, RecoverPage and FetchCached implement
	// the client side of server restart recovery (§3.4).
	RecoveryInfo() (RecoveryInfoReply, error)
	FetchCached(ids []page.ID) ([][]byte, error)
	CallbackList(CallbackListReq) (CallbackListReply, error)
	RecoverPage(RecoverPageReq) error
}
