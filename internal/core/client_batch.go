package core

import (
	"fmt"
	"sort"

	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// ReadMany reads several objects under shared locks, coalescing the
// server round trips: every global lock acquisition the batch needs
// travels in one LockBatch request, and every page image in one
// FetchBatch, instead of one RPC per object.  Semantically it is
// exactly a sequence of Read calls — same locks, same callback log
// records, same coherence refreshes — so a deadlock or timeout on any
// object aborts the whole call with that object's error.
func (t *Txn) ReadMany(objs []page.ObjectID) ([][]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, nil
	}
	if err := t.c.acquireBatch(&t.st, objs, lock.S); err != nil {
		return nil, err
	}
	// Prefetch the distinct missing pages in one exchange; lockPage
	// below then runs entirely against the cache.
	var missing []page.ID
	seen := make(map[page.ID]bool)
	for _, obj := range objs {
		if !seen[obj.Page] && !t.c.pool.Contains(obj.Page) {
			seen[obj.Page] = true
			missing = append(missing, obj.Page)
		}
	}
	if len(missing) > 0 {
		if err := t.c.fetchPages(t.st.tr, missing); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, len(objs))
	for i, obj := range objs {
		p, err := t.c.lockPage(t.st.tr, obj.Page)
		if err != nil {
			return nil, err
		}
		data, ok := p.Read(obj.Slot)
		t.c.unlockPage()
		if !ok {
			return nil, page.ErrBadSlot
		}
		out[i] = data
	}
	return out, nil
}

// acquireBatch is the batched analog of acquire: one LLM pass finds the
// names that need a global lock, one LockBatch acquires them, and the
// loop repeats until the LLM grants everything locally (a callback may
// snatch a cached lock away between rounds, exactly as in acquire).
func (c *Client) acquireBatch(t *txnState, objs []page.ObjectID, mode lock.Mode) error {
	names := make([]lock.Name, len(objs))
	for i, o := range objs {
		n := lock.ObjName(o)
		if c.cfg.Granularity == GranPage {
			n = lock.PageName(n.Page)
		}
		names[i] = n
	}
	for {
		var pending []lock.Name
		seen := make(map[lock.Name]bool)
		for _, n := range names {
			res, err := c.llm.AcquireLocal(t.id, n, mode)
			if err != nil {
				return err
			}
			if res == lock.Granted {
				if mode == lock.X {
					c.noteExclusive(n.Page)
				}
				continue
			}
			if !seen[n] {
				seen[n] = true
				pending = append(pending, n)
			}
		}
		if len(pending) == 0 {
			return nil
		}
		items := make([]msg.LockItem, len(pending))
		for i, n := range pending {
			items[i] = msg.LockItem{
				Name:       n,
				Mode:       mode,
				PreferPage: c.cfg.Granularity == GranAdaptive,
				Upgrade:    c.llm.CachesAny(n),
			}
			if mode == lock.X {
				c.mu.Lock()
				if p, ok := c.pool.Get(n.Page); ok {
					items[i].HasCached, items[i].CachedPSN = true, p.PSN()
				}
				c.mu.Unlock()
			}
		}
		var label string
		if t.tr != nil {
			label = fmt.Sprintf("batch(%d)", len(items))
		}
		sp := t.tr.Start(span.CatLockWait, label)
		req := msg.LockBatchReq{Client: c.id, Items: items, Trace: t.tr.Context(sp)}
		reply, err := c.srv.LockBatch(req)
		t.tr.End(sp)
		if err != nil {
			return err
		}
		if len(reply.Grants) != len(items) || len(reply.Errs) != len(items) {
			return fmt.Errorf("core: lock batch reply shape: %d grants, %d errs for %d items",
				len(reply.Grants), len(reply.Errs), len(items))
		}
		var firstErr error
		var refresh []page.ID
		seenPg := make(map[page.ID]bool)
		for i := range items {
			if e := msg.LockErrFromString(reply.Errs[i]); e != nil {
				// Grants before and after the failed item stand (the
				// client caches them; strict 2PL releases at txn end), but
				// the batch as a whole fails with the first error.
				if firstErr == nil {
					firstErr = e
				}
				continue
			}
			g := reply.Grants[i]
			c.llm.InstallCached(g.Name, g.Mode)
			for _, o := range g.Origins {
				c.mu.Lock()
				_, aerr := c.appendLocked(&wal.Callback{Object: o.Object, Responder: o.Responder, PSN: o.PSN}, c.undoReserveLocked(nil))
				c.mu.Unlock()
				if aerr != nil {
					return aerr
				}
				c.Metrics.CallbackRecords.Add(1)
			}
			// Coherence, as in acquire: a cached copy may be stale for
			// objects this client held no lock on.
			if !seenPg[g.Name.Page] && c.pool.Contains(g.Name.Page) {
				seenPg[g.Name.Page] = true
				refresh = append(refresh, g.Name.Page)
			}
		}
		if len(refresh) > 0 {
			if err := c.fetchPages(t.tr, refresh); err != nil {
				return err
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}
}

// fetchPages pulls several pages in one FetchBatch exchange, merging
// each into the cache exactly as refreshPage does (§2 client merge);
// pages absent from the cache are installed directly.
func (c *Client) fetchPages(tr *span.TxnTrace, pids []page.ID) error {
	sort.Slice(pids, func(a, b int) bool { return pids[a] < pids[b] })
	var label string
	if tr != nil {
		label = fmt.Sprintf("fetch-batch(%d)", len(pids))
	}
	sp := tr.Start(span.CatFetch, label)
	reply, err := c.srv.FetchBatch(msg.FetchBatchReq{Client: c.id, Pages: pids, Trace: tr.Context(sp)})
	tr.End(sp)
	if err != nil {
		return err
	}
	if len(reply.Images) != len(pids) || len(reply.Errs) != len(pids) {
		return fmt.Errorf("core: fetch batch reply shape: %d images, %d errs for %d pages",
			len(reply.Images), len(reply.Errs), len(pids))
	}
	for i, pid := range pids {
		if reply.Errs[i] != "" {
			return fmt.Errorf("core: fetch page %d: %s", pid, reply.Errs[i])
		}
		incoming := new(page.Page)
		if err := incoming.UnmarshalBinary(reply.Images[i]); err != nil {
			return err
		}
		c.Metrics.PagesFetched.Add(1)
		c.mu.Lock()
		if cur, ok := c.pool.Get(pid); ok {
			merged := page.Merge(cur, incoming)
			c.Metrics.ClientMerges.Add(1)
			c.pool.Put(merged, c.pool.IsDirty(pid))
		} else {
			c.pool.Put(incoming, false)
		}
		victims := c.collectVictimsLocked()
		c.mu.Unlock()
		c.shipVictims(victims)
	}
	return nil
}
