package core

import (
	"sort"

	"clientlog/internal/msg"
	"clientlog/internal/page"
)

// LockBatch implements msg.Server: the batched variant of Lock.  The
// items are acquired in the server's canonical order — ascending page,
// page-level locks before object-level, then ascending slot — so that
// two clients issuing overlapping batches cannot deadlock on
// batch-internal ordering (the same rule every multi-shard operation in
// this codebase follows: take resources in one global order).  Each
// item goes through the exact single-item lock path, so DCT insertion,
// callback-origin delivery, complex-crash gating and the
// callback-application barrier behave identically to a client issuing
// the RPCs one at a time.
//
// Items fail independently: the reply carries a per-item error string
// and the RPC only errors at the transport level.  That keeps the
// exchange idempotent under exactly-once retry — a retransmitted batch
// replays the cached reply, including its partial grants, instead of
// re-acquiring half the locks.
//
// What the request carries lands first, as it does for Lock.  Items
// that ask Fetch get their page once per page, read after every
// item of the batch is granted and carried by the page's last granted
// item: an image read at an earlier item's grant could predate a later
// item's callback merge.  The flush notes are taken once, for the
// batch (takeNotes).
func (s *Server) LockBatch(req msg.LockBatchReq) (msg.LockBatchReply, error) {
	s.landCarry(req.Client, msg.ShipReplace, req.Carry)
	reply := msg.LockBatchReply{
		Grants: make([]msg.LockReply, len(req.Items)),
		Errs:   make([]string, len(req.Items)),
	}
	order := make([]int, len(req.Items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := req.Items[order[a]].Name, req.Items[order[b]].Name
		if na.Page != nb.Page {
			return na.Page < nb.Page
		}
		if na.IsPage != nb.IsPage {
			return na.IsPage // page-level before object-level
		}
		return na.Slot < nb.Slot
	})
	carrier := make(map[page.ID]int) // page -> item its image travels with
	for _, i := range order {
		it := req.Items[i]
		one := it.Request(req.Client, req.Trace)
		one.Fetch = false // read below, once per page
		grant, err := s.lock(one)
		if err != nil {
			reply.Errs[i] = err.Error()
			continue
		}
		reply.Grants[i] = grant
		if it.Fetch {
			carrier[grant.Name.Page] = i
		}
	}
	for _, i := range order { // canonical order: a seeded run replays
		if pid := reply.Grants[i].Name.Page; reply.Errs[i] != "" || carrier[pid] != i {
			continue
		}
		f, err := s.Fetch(msg.FetchReq{Client: req.Client, Page: reply.Grants[i].Name.Page})
		if err != nil {
			reply.Errs[i] = err.Error()
			continue
		}
		reply.Grants[i].Image = f.Image
	}
	reply.Flushed = s.takeNotes(req.Client)
	return reply, nil
}

// FetchBatch implements msg.Server: the batched variant of Fetch.
// Pages are read in request order, each as Fetch reads it; failures are
// per-page.
func (s *Server) FetchBatch(req msg.FetchBatchReq) (msg.FetchBatchReply, error) {
	reply := msg.FetchBatchReply{
		Images:  make([][]byte, len(req.Pages)),
		DCTPSNs: make([]page.PSN, len(req.Pages)),
		Errs:    make([]string, len(req.Pages)),
	}
	for i, pid := range req.Pages {
		one := msg.FetchReq{Client: req.Client, Page: pid}
		if i < len(req.Carried) {
			one.Carried = req.Carried[i]
		}
		f, err := s.Fetch(one)
		if err != nil {
			reply.Errs[i] = err.Error()
			continue
		}
		reply.Images[i], reply.DCTPSNs[i] = f.Image, f.DCTPSN
	}
	return reply, nil
}
