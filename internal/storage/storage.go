// Package storage implements the server's stable storage: a page store
// with in-place page writes and a space allocation map.
//
// Per Section 2 of the paper, the server initializes the PSN value of a
// newly allocated page following Mohan-Narang: the allocation map keeps,
// for every page, the PSN to seed the page with at (re)allocation time.
// When a page is freed the map records the page's final PSN + 1, so a
// later reincarnation of the page continues the PSN sequence and log
// records written against the old incarnation can never be mistaken for
// applicable updates.
package storage

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"clientlog/internal/page"
)

// Errors returned by page stores.
var (
	ErrNotAllocated = errors.New("storage: page not allocated")
	ErrPageSize     = errors.New("storage: page has wrong size")
)

// Stats counts stable-storage traffic; the benchmark harness reads it to
// report server disk I/Os.
type Stats struct {
	Reads  uint64
	Writes uint64
}

// Store is the stable page store.  Implementations must be safe for
// concurrent use.
type Store interface {
	// Allocate creates a new page whose PSN is seeded from the
	// allocation map and writes its initial image durably.
	Allocate() (*page.Page, error)
	// Free deallocates a page, remembering PSN+1 as the seed for a
	// future reincarnation.
	Free(id page.ID) error
	// Read fetches the durable image of an allocated page.
	Read(id page.ID) (*page.Page, error)
	// Write stores a page image in place.
	Write(p *page.Page) error
	// Allocated returns the ids of all allocated pages in ascending
	// order.
	Allocated() []page.ID
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Stats returns cumulative I/O counters.
	Stats() Stats
	// Close releases resources.
	Close() error
}

// MemStore is an in-memory Store.  Its contents play the role of the
// disk: they survive a simulated server crash (the crash discards the
// server's buffer pool and tables, never the store).
type MemStore struct {
	mu       sync.Mutex
	pageSize int
	pages    map[page.ID][]byte
	seeds    map[page.ID]page.PSN // PSN seeds for freed pages
	nextID   page.ID
	stride   int // fresh ids satisfy id % stride == offset (fleet)
	offset   int

	reads  atomic.Uint64
	writes atomic.Uint64
}

// NewMemStore returns an empty store with the given page size.
func NewMemStore(pageSize int) *MemStore {
	return &MemStore{
		pageSize: pageSize,
		pages:    make(map[page.ID][]byte),
		seeds:    make(map[page.ID]page.PSN),
		nextID:   1,
	}
}

// Allocate implements Store.  Freed page ids are reused (smallest
// first), which is what makes the Mohan-Narang PSN seeding necessary:
// the reincarnated page continues the PSN sequence of its predecessor.
func (s *MemStore) Allocate() (*page.Page, error) {
	s.mu.Lock()
	var id page.ID
	var seed page.PSN
	if fid, ok := smallestSeed(s.seeds); ok {
		id, seed = fid, s.seeds[fid]
		delete(s.seeds, fid)
	} else {
		id = alignStride(s.nextID, s.stride, s.offset)
		s.nextID = id + 1
	}
	s.mu.Unlock()

	p := page.New(id, s.pageSize)
	p.SetPSN(seed)
	if err := s.Write(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Free implements Store.
func (s *MemStore) Free(id page.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.pages[id]
	if !ok {
		return ErrNotAllocated
	}
	var p page.Page
	if err := p.UnmarshalBinary(img); err != nil {
		return err
	}
	s.seeds[id] = p.PSN() + 1
	delete(s.pages, id)
	return nil
}

// Read implements Store.
func (s *MemStore) Read(id page.ID) (*page.Page, error) {
	s.mu.Lock()
	img, ok := s.pages[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotAllocated
	}
	s.reads.Add(1)
	p := new(page.Page)
	if err := p.UnmarshalBinary(img); err != nil {
		return nil, err
	}
	return p, nil
}

// Write implements Store.  The store keeps the page's image, which
// holds only the bytes the page uses.
func (s *MemStore) Write(p *page.Page) error {
	if p.Size() != s.pageSize {
		return ErrPageSize
	}
	img, err := p.MarshalBinary()
	if err != nil {
		return err
	}
	s.writes.Add(1)
	s.mu.Lock()
	s.pages[p.ID()] = img
	s.mu.Unlock()
	return nil
}

// Allocated implements Store.
func (s *MemStore) Allocated() []page.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]page.ID, 0, len(s.pages))
	for id := range s.pages {
		ids = append(ids, id)
	}
	sortIDs(ids)
	return ids
}

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.pageSize }

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	return Stats{Reads: s.reads.Load(), Writes: s.writes.Load()}
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

func sortIDs(ids []page.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// SetAllocStride restricts fresh allocations to page ids congruent to
// offset modulo stride: a fleet partition mints only ids it owns, so a
// page granted by Alloc is always served by the allocating partition.
// Freed-id reuse is unaffected (only owned ids are ever freed here).
func (s *MemStore) SetAllocStride(stride, offset int) {
	s.mu.Lock()
	s.stride, s.offset = stride, offset
	s.mu.Unlock()
}

// alignStride returns the smallest id >= next with id % stride == offset
// (stride <= 1 means no constraint).
func alignStride(next page.ID, stride, offset int) page.ID {
	if stride <= 1 {
		return next
	}
	r := int(uint64(next) % uint64(stride))
	if r == offset {
		return next
	}
	d := offset - r
	if d < 0 {
		d += stride
	}
	return next + page.ID(d)
}

// smallestSeed returns the smallest freed page id awaiting reuse.
func smallestSeed(seeds map[page.ID]page.PSN) (page.ID, bool) {
	var best page.ID
	found := false
	for id := range seeds {
		if !found || id < best {
			best, found = id, true
		}
	}
	return best, found
}
