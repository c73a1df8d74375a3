// Package buffer implements the steal/no-force buffer pools used by the
// clients and the server (Section 2 of the paper).
//
// "Steal" means a dirty page may be evicted while the updating
// transaction is still active; the engine that owns the pool decides
// what eviction means (a client ships the page to the server, the
// server forces a replacement log record and writes the page in
// place).  "No-force" means commit never writes pages anywhere.
package buffer

import (
	"container/list"
	"errors"
	"fmt"

	"clientlog/internal/page"
)

// ErrAllPinned reports that eviction failed because every frame is
// pinned.
var ErrAllPinned = errors.New("buffer: all frames pinned")

type frame struct {
	pg    *page.Page
	dirty bool
	pins  int
	elem  *list.Element // position in the LRU list (front = most recent)
}

// Pool is a fixed-capacity page cache with LRU replacement.  It has no
// lock of its own: its owner serializes every call under the mutex it
// already holds around the page (a client's engine mutex, the server's
// pool mutex), so a cached access costs no second critical section.
type Pool struct {
	capacity int
	frames   map[page.ID]*frame
	lru      *list.List // of page.ID
}

// New returns a pool that holds at most capacity pages (capacity <= 0
// panics: the engines always size their pools explicitly).
func New(capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer.New: capacity %d", capacity))
	}
	return &Pool{capacity: capacity, frames: make(map[page.ID]*frame), lru: list.New()}
}

// Capacity returns the configured frame count.
func (b *Pool) Capacity() int { return b.capacity }

// Len returns the number of cached pages.
func (b *Pool) Len() int {
	return len(b.frames)
}

// Get returns the cached page and marks it recently used.  The page is
// shared, not copied: callers serialize page access through the lock
// protocol, exactly as the paper's clients do.
func (b *Pool) Get(id page.ID) (*page.Page, bool) {
	f, ok := b.frames[id]
	if !ok {
		return nil, false
	}
	b.lru.MoveToFront(f.elem)
	return f.pg, true
}

// Contains reports whether the page is cached.
func (b *Pool) Contains(id page.ID) bool {
	_, ok := b.frames[id]
	return ok
}

// Put inserts or replaces a page.  The caller must have made room with
// EvictVictim if the pool was full; Put on a full pool still succeeds
// (the pool grows past capacity) so that correctness never depends on
// eviction, but NeedsEviction turns true.
func (b *Pool) Put(p *page.Page, dirty bool) {
	if f, ok := b.frames[p.ID()]; ok {
		f.pg = p
		f.dirty = f.dirty || dirty
		b.lru.MoveToFront(f.elem)
		return
	}
	f := &frame{pg: p, dirty: dirty}
	f.elem = b.lru.PushFront(p.ID())
	b.frames[p.ID()] = f
}

// NeedsEviction reports whether the pool exceeds its capacity.
func (b *Pool) NeedsEviction() bool {
	return len(b.frames) > b.capacity
}

// MarkDirty flags a cached page as modified.
func (b *Pool) MarkDirty(id page.ID) {
	if f, ok := b.frames[id]; ok {
		f.dirty = true
	}
}

// IsDirty reports whether the page is cached and dirty.
func (b *Pool) IsDirty(id page.ID) bool {
	f, ok := b.frames[id]
	return ok && f.dirty
}

// Clean clears the dirty flag (after the page reached the server/disk
// and was not modified since).
func (b *Pool) Clean(id page.ID) {
	if f, ok := b.frames[id]; ok {
		f.dirty = false
	}
}

// Pin prevents eviction of the page until Unpin.
func (b *Pool) Pin(id page.ID) {
	if f, ok := b.frames[id]; ok {
		f.pins++
	}
}

// Unpin releases a pin.
func (b *Pool) Unpin(id page.ID) {
	if f, ok := b.frames[id]; ok && f.pins > 0 {
		f.pins--
	}
}

// Drop removes a page without returning it (callback in exclusive mode
// drops the page from the client cache).
func (b *Pool) Drop(id page.ID) {
	if f, ok := b.frames[id]; ok {
		b.lru.Remove(f.elem)
		delete(b.frames, id)
	}
}

// EvictVictim removes and returns the least recently used unpinned
// page.  The caller ships it (client) or writes it in place (server) if
// dirty.
func (b *Pool) EvictVictim() (p *page.Page, dirty bool, err error) {
	for e := b.lru.Back(); e != nil; e = e.Prev() {
		id := e.Value.(page.ID)
		f := b.frames[id]
		if f.pins > 0 {
			continue
		}
		b.lru.Remove(e)
		delete(b.frames, id)
		return f.pg, f.dirty, nil
	}
	return nil, false, ErrAllPinned
}

// EvictCandidate returns the id of the least recently used unpinned
// page WITHOUT removing it.  Callers that must hold an external
// per-page lock while flushing the victim (the server's page-state
// shards) peek first, take the victim's lock, and then call Remove —
// evicting blindly and locking afterwards would let a concurrent merge
// update a copy that is already on its way to disk.
func (b *Pool) EvictCandidate() (page.ID, bool) {
	for e := b.lru.Back(); e != nil; e = e.Prev() {
		id := e.Value.(page.ID)
		if b.frames[id].pins > 0 {
			continue
		}
		return id, true
	}
	return 0, false
}

// Remove removes a specific unpinned page, returning it and its dirty
// flag.  ok is false when the page is absent or pinned (a concurrent
// Get/Pin won the race after EvictCandidate peeked).
func (b *Pool) Remove(id page.ID) (p *page.Page, dirty bool, ok bool) {
	f, present := b.frames[id]
	if !present || f.pins > 0 {
		return nil, false, false
	}
	b.lru.Remove(f.elem)
	delete(b.frames, id)
	return f.pg, f.dirty, true
}

// IDs returns the ids of all cached pages (unordered); §3.4 server
// recovery asks each client for this list.
func (b *Pool) IDs() []page.ID {
	out := make([]page.ID, 0, len(b.frames))
	for id := range b.frames {
		out = append(out, id)
	}
	return out
}

// DirtyIDs returns the ids of all dirty cached pages.
func (b *Pool) DirtyIDs() []page.ID {
	var out []page.ID
	for id, f := range b.frames {
		if f.dirty {
			out = append(out, id)
		}
	}
	return out
}

// Clear empties the pool (a crash loses all cached pages).
func (b *Pool) Clear() {
	b.frames = make(map[page.ID]*frame)
	b.lru.Init()
}
