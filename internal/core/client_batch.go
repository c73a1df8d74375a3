package core

import (
	"fmt"
	"slices"
	"sort"

	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
)

// ReadMany reads several objects under shared locks, coalescing the
// server round trips: every lock acquisition the batch needs travels in
// one LockBatch request, whose grants carry their pages, and the pages
// of locks the cache granted that are not cached in one FetchBatch.
// Semantically it is exactly a sequence of Read calls — same locks,
// same callback log records, same page coherence — so a deadlock or
// timeout on any object aborts the whole call with that object's error.
func (t *Txn) ReadMany(objs []page.ObjectID) ([][]byte, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, nil
	}
	if err := t.settle(objs...); err != nil {
		return nil, err
	}
	want := make([]msg.LockItem, len(objs))
	for i, o := range objs {
		want[i] = msg.LockItem{Name: lock.ObjName(o), Mode: lock.S}
	}
	if err := t.c.acquireBatch(&t.st, want); err != nil {
		return nil, err
	}
	// Prefetch the distinct pages still missing — those of locks the
	// cache granted — in one exchange; lockPage below then runs entirely
	// against the cache (and fetches a page evicted meanwhile itself).
	var missing []page.ID
	seen := make(map[page.ID]bool)
	t.c.mu.Lock()
	for _, obj := range objs {
		if !seen[obj.Page] && !t.c.pool.Contains(obj.Page) {
			seen[obj.Page] = true
			missing = append(missing, obj.Page)
		}
	}
	t.c.mu.Unlock()
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

// acquireBatch obtains each of want's names in its own mode for txn t:
// one LLM pass finds the names that need a global lock, one lockGlobal
// acquires them, each once in the strongest mode asked, and the loop
// repeats until the LLM grants everything locally (a callback may
// snatch a cached lock away between rounds).
func (c *Client) acquireBatch(t *txnState, want []msg.LockItem) error {
	for {
		var global []msg.LockItem
		for _, w := range want {
			n := c.lockName(w.Name)
			res, err := c.llm.Acquire(&t.Uses, n, w.Mode)
			if err != nil {
				return err
			}
			if res == lock.Granted {
				continue
			}
			if i := slices.IndexFunc(global, func(g msg.LockItem) bool { return g.Name == n }); i >= 0 {
				global[i].Mode = lock.Max(global[i].Mode, w.Mode)
			} else {
				global = append(global, msg.LockItem{Name: n, Mode: w.Mode})
			}
		}
		if len(global) == 0 {
			return nil
		}
		// A crashed client's cache is empty: it stops here, not at the server.
		if err := c.checkAlive(); err != nil {
			return err
		}
		if err := c.lockGlobal(t, global); err != nil {
			return err
		}
	}
}

// fetchPages pulls several pages in one FetchBatch exchange into the
// cache (installImage), each once its unanswered carrier, which the
// request names, has landed.
func (c *Client) fetchPages(tr *span.TxnTrace, pids []page.ID) error {
	sort.Slice(pids, func(a, b int) bool { return pids[a] < pids[b] })
	carried := make([]uint64, len(pids))
	for i, pid := range pids {
		carried[i] = c.llm.Carried(pid)
	}
	var label string
	if tr != nil {
		label = fmt.Sprintf("fetch-batch(%d)", len(pids))
	}
	sp := tr.Start(span.CatFetch, label)
	reply, err := c.srv.FetchBatch(msg.FetchBatchReq{Client: c.id, Pages: pids, Carried: carried, Trace: tr.Context(sp)})
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
		if err := c.installImage(reply.Images[i]); err != nil {
			return err
		}
	}
	return nil
}
