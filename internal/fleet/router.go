package fleet

import (
	"sort"
	"sync/atomic"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// Router is the client-side partition router: it implements msg.Server
// over one conn per partition (in-process loopback conns or resumable
// netrpc sessions) and forwards every page-addressed call to the owning
// partition.  The client engine is entirely unaware of the fleet — it
// holds a single msg.Server, which happens to be a Router.
//
// Routing table:
//
//   - by page owner: Lock, Unlock, Fetch, Force, Free, Token,
//     RecoveryFetch
//   - split by owner, ascending partition order: LockBatch, FetchBatch,
//     Reinstall, RecoverQuery, CommitShip (pages), Ship, and the
//     carriers lock requests carry (split)
//   - broadcast, ascending order: Register(Recover), RecoverEnd,
//     Disconnect
//   - home partition (index 0): fresh Register (the fleet-wide client
//     ID registry), LogOp (hosted diskless logs), CommitShip records
//   - round-robin: Alloc (each partition's store allocates only IDs it
//     owns, so the granted page's owner is the allocating partition)
type Router struct {
	parts []msg.Server
	alloc atomic.Uint64
}

// NewRouter builds a router over the per-partition conns, in partition
// order.  A single-conn router degenerates to plain forwarding.
func NewRouter(parts []msg.Server) *Router {
	return &Router{parts: parts}
}

// Partitions returns the fleet size.
func (r *Router) Partitions() int { return len(r.parts) }

// owner maps a page to its owning conn.
func (r *Router) owner(pid page.ID) msg.Server {
	return r.parts[Owner(pid, len(r.parts))]
}

// Register implements msg.Server.  A fresh registration is assigned by
// the home partition — the fleet's client-ID registry — and then
// announced to every other partition with a no-op recovery registration
// so their transports bind the session to the ID.  A recovery
// registration broadcasts in ascending order and merges the retained
// exclusive locks every partition reports (§3.3 per partition).
func (r *Router) Register(req msg.RegisterReq) (msg.RegisterReply, error) {
	if !req.Recover {
		reply, err := r.parts[0].Register(req)
		if err != nil {
			return msg.RegisterReply{}, err
		}
		announce := msg.RegisterReq{ID: reply.ID, Recover: true}
		for i := 1; i < len(r.parts); i++ {
			if _, err := r.parts[i].Register(announce); err != nil {
				return msg.RegisterReply{}, err
			}
		}
		return reply, nil
	}
	var out msg.RegisterReply
	for i, p := range r.parts {
		reply, err := p.Register(req)
		if err != nil {
			return msg.RegisterReply{}, err
		}
		if i == 0 {
			out = reply
		} else {
			out.HeldX = append(out.HeldX, reply.HeldX...)
		}
	}
	return out, nil
}

// Lock implements msg.Server.  What the request carries for pages
// other partitions own goes ahead to them (carryAhead); the owner of
// the asked page gets its own share with the request.
func (r *Router) Lock(req msg.LockReq) (msg.LockReply, error) {
	home := Owner(req.Name.Page, len(r.parts))
	if req.Carry != nil && len(r.parts) > 1 {
		req.Carry, _ = r.carryAhead(msg.ShipReq{Client: req.Client, Reason: msg.ShipReplace, Carry: *req.Carry}, home)
	}
	return r.parts[home].Lock(req)
}

// split divides a carrier among the partitions owning the pages it is
// about, each share under the carrier's number with the marks, images
// and releases of its partition's pages: the one splitter, which Ship
// and the lock requests reach through carryAhead.
func (r *Router) split(carry *msg.Carry) map[int]*msg.Carry {
	shares := make(map[int]*msg.Carry)
	share := func(pid page.ID) *msg.Carry {
		p := Owner(pid, len(r.parts))
		if shares[p] == nil {
			shares[p] = &msg.Carry{Seq: carry.Seq}
		}
		return shares[p]
	}
	for _, m := range carry.After {
		sh := share(m.Page)
		sh.After = append(sh.After, m)
	}
	for _, pi := range carry.Pages {
		sh := share(pi.Page)
		sh.Pages = append(sh.Pages, pi)
	}
	for _, n := range carry.Releases {
		sh := share(n.Page)
		sh.Releases = append(sh.Releases, n)
	}
	return shares
}

// ascending returns m's partitions in ascending order.
func ascending[T any](m map[int]T) []int {
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// carryAhead ships req's carrier split by owner, each share as a Ship
// in ascending partition order, but home's (-1: none), which it
// returns (nil if none) to ride a lock request: every share lands
// before the request can wait in a GLM, as a carrier does on a single
// server, since a message naming the carrier may wait for it.  A share
// that fails stops no other, nor the request: the client dropped those
// locks already, and a partition counts its own merge failures
// (Server.landCarry), so what fails here is a transport that gave up.
// It returns the first error.
func (r *Router) carryAhead(req msg.ShipReq, home int) (*msg.Carry, error) {
	var first error
	shares := r.split(&req.Carry)
	for _, p := range ascending(shares) {
		if p == home {
			continue
		}
		sub := req
		sub.Carry = *shares[p]
		if err := r.parts[p].Ship(sub); err != nil && first == nil {
			first = err
		}
	}
	return shares[home], first
}

// LockBatch implements msg.Server: what the batch carries goes ahead
// to the partitions owning its pages (carryAhead), then the batch
// splits by owning partition and the sub-batches are issued in
// ascending partition order — the fleet-wide extension of the
// server's canonical ascending-(page, level, slot) acquisition order,
// so overlapping batches from two clients cannot deadlock on
// batch-internal ordering.
// Per-item grants and errors are reassembled in request order, and
// every partition's flush notes ride the reply.
func (r *Router) LockBatch(req msg.LockBatchReq) (msg.LockBatchReply, error) {
	if len(r.parts) == 1 {
		return r.parts[0].LockBatch(req)
	}
	if req.Carry != nil {
		r.carryAhead(msg.ShipReq{Client: req.Client, Reason: msg.ShipReplace, Carry: *req.Carry}, -1)
	}
	reply := msg.LockBatchReply{
		Grants: make([]msg.LockReply, len(req.Items)),
		Errs:   make([]string, len(req.Items)),
	}
	byPart := make(map[int][]int)
	for i, it := range req.Items {
		p := Owner(it.Name.Page, len(r.parts))
		byPart[p] = append(byPart[p], i)
	}
	order := ascending(byPart)
	for _, p := range order {
		idx := byPart[p]
		sub := msg.LockBatchReq{Client: req.Client, Trace: req.Trace, Items: make([]msg.LockItem, len(idx))}
		for j, i := range idx {
			sub.Items[j] = req.Items[i]
		}
		subReply, err := r.parts[p].LockBatch(sub)
		if err != nil {
			return msg.LockBatchReply{}, err
		}
		for j, i := range idx {
			reply.Grants[i] = subReply.Grants[j]
			reply.Errs[i] = subReply.Errs[j]
		}
		reply.Flushed = append(reply.Flushed, subReply.Flushed...)
	}
	return reply, nil
}

// Unlock implements msg.Server.
func (r *Router) Unlock(req msg.UnlockReq) error {
	return r.owner(req.Name.Page).Unlock(req)
}

// Fetch implements msg.Server.
func (r *Router) Fetch(req msg.FetchReq) (msg.FetchReply, error) {
	return r.owner(req.Page).Fetch(req)
}

// FetchBatch implements msg.Server: split by owner, ascending
// partition order, results reassembled in request order.
func (r *Router) FetchBatch(req msg.FetchBatchReq) (msg.FetchBatchReply, error) {
	if len(r.parts) == 1 {
		return r.parts[0].FetchBatch(req)
	}
	reply := msg.FetchBatchReply{
		Images:  make([][]byte, len(req.Pages)),
		DCTPSNs: make([]page.PSN, len(req.Pages)),
		Errs:    make([]string, len(req.Pages)),
	}
	byPart := make(map[int][]int)
	for i, pid := range req.Pages {
		p := Owner(pid, len(r.parts))
		byPart[p] = append(byPart[p], i)
	}
	order := ascending(byPart)
	for _, p := range order {
		idx := byPart[p]
		sub := msg.FetchBatchReq{Client: req.Client, Trace: req.Trace, Pages: make([]page.ID, len(idx))}
		if req.Carried != nil {
			sub.Carried = make([]uint64, len(idx))
		}
		for j, i := range idx {
			sub.Pages[j] = req.Pages[i]
			if req.Carried != nil {
				sub.Carried[j] = req.Carried[i]
			}
		}
		subReply, err := r.parts[p].FetchBatch(sub)
		if err != nil {
			return msg.FetchBatchReply{}, err
		}
		for j, i := range idx {
			reply.Images[i] = subReply.Images[j]
			reply.DCTPSNs[i] = subReply.DCTPSNs[j]
			reply.Errs[i] = subReply.Errs[j]
		}
	}
	return reply, nil
}

// Ship implements msg.Server: each partition owning a page the
// carrier is about gets its share (carryAhead).
func (r *Router) Ship(req msg.ShipReq) error {
	if len(r.parts) == 1 {
		return r.parts[0].Ship(req)
	}
	_, err := r.carryAhead(req, -1)
	return err
}

// Force implements msg.Server.
func (r *Router) Force(req msg.ForceReq) (msg.ForceReply, error) {
	return r.owner(req.Page).Force(req)
}

// Alloc implements msg.Server: allocations round-robin across
// partitions.  Each partition's store allocates with a (stride, offset)
// rule so it only ever mints page IDs it owns.
func (r *Router) Alloc(req msg.AllocReq) (msg.FetchReply, error) {
	n := r.alloc.Add(1)
	return r.parts[int(n%uint64(len(r.parts)))].Alloc(req)
}

// Free implements msg.Server.
func (r *Router) Free(req msg.FreeReq) error {
	return r.owner(req.Page).Free(req)
}

// CommitShip implements msg.Server (ship-log / ship-pages baselines
// only; the paper's scheme never ships at commit).  Shipped pages
// split by owner; the log records go to the home partition, which
// hosts the shipped-log baselines' server log for this client.
func (r *Router) CommitShip(req msg.CommitShipReq) error {
	if len(r.parts) == 1 {
		return r.parts[0].CommitShip(req)
	}
	byPart := make(map[int][][]byte)
	for _, img := range req.Pages {
		p := new(page.Page)
		if err := p.UnmarshalBinary(img); err != nil {
			return err
		}
		o := Owner(p.ID(), len(r.parts))
		byPart[o] = append(byPart[o], img)
	}
	// Records always land at the home partition, even with no pages.
	if _, ok := byPart[0]; !ok {
		byPart[0] = nil
	}
	order := ascending(byPart)
	for _, p := range order {
		sub := msg.CommitShipReq{Client: req.Client, Txn: req.Txn, Trace: req.Trace, Pages: byPart[p]}
		if p == 0 {
			sub.Records = req.Records
		}
		if len(sub.Records) == 0 && len(sub.Pages) == 0 {
			continue
		}
		if err := r.parts[p].CommitShip(sub); err != nil {
			return err
		}
	}
	return nil
}

// Token implements msg.Server.
func (r *Router) Token(req msg.TokenReq) (msg.TokenReply, error) {
	return r.owner(req.Page).Token(req)
}

// RecoveryFetch implements msg.Server.
func (r *Router) RecoveryFetch(req msg.RecoveryFetchReq) (msg.FetchReply, error) {
	return r.owner(req.Page).RecoveryFetch(req)
}

// Reinstall implements msg.Server: holdings split by the owning
// partition of each lock name's page, ascending order.
func (r *Router) Reinstall(c ident.ClientID, holds []lock.Holding) error {
	if len(r.parts) == 1 {
		return r.parts[0].Reinstall(c, holds)
	}
	byPart := make(map[int][]lock.Holding)
	for _, h := range holds {
		p := Owner(h.Name.Page, len(r.parts))
		byPart[p] = append(byPart[p], h)
	}
	order := ascending(byPart)
	for _, p := range order {
		if err := r.parts[p].Reinstall(c, byPart[p]); err != nil {
			return err
		}
	}
	return nil
}

// RecoverQuery implements msg.Server: the recovering client's DPT
// pages split by owner and the DCT rows merge back (row order is
// per-partition ascending; the client indexes rows by page).
func (r *Router) RecoverQuery(c ident.ClientID, pages []page.ID) ([]msg.DCTRow, error) {
	if len(r.parts) == 1 {
		return r.parts[0].RecoverQuery(c, pages)
	}
	byPart := make(map[int][]page.ID)
	for _, pid := range pages {
		p := Owner(pid, len(r.parts))
		byPart[p] = append(byPart[p], pid)
	}
	order := ascending(byPart)
	var rows []msg.DCTRow
	for _, p := range order {
		sub, err := r.parts[p].RecoverQuery(c, byPart[p])
		if err != nil {
			return nil, err
		}
		rows = append(rows, sub...)
	}
	return rows, nil
}

// LogOp implements msg.Server: hosted (diskless) private logs live at
// the home partition.
func (r *Router) LogOp(req msg.LogReq) (msg.LogReply, error) {
	return r.parts[0].LogOp(req)
}

// RecoverEnd implements msg.Server: broadcast, ascending order — every
// partition gates grants on the recovering client (§3.5) and must hear
// the all-clear.
func (r *Router) RecoverEnd(c ident.ClientID) error {
	for _, p := range r.parts {
		if err := p.RecoverEnd(c); err != nil {
			return err
		}
	}
	return nil
}

// Disconnect implements msg.Server: broadcast, ascending order.
func (r *Router) Disconnect(c ident.ClientID) error {
	for _, p := range r.parts {
		if err := p.Disconnect(c); err != nil {
			return err
		}
	}
	return nil
}
