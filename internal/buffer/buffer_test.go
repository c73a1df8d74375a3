package buffer

import (
	"errors"
	"sync"
	"testing"

	"clientlog/internal/page"
)

func mkPage(id page.ID) *page.Page { return page.New(id, 256) }

func TestPutGetDrop(t *testing.T) {
	b := New(4)
	p := mkPage(1)
	b.Put(p, false)
	got, ok := b.Get(1)
	if !ok || got != p {
		t.Fatal("Get after Put")
	}
	if b.IsDirty(1) {
		t.Fatal("clean page reported dirty")
	}
	b.MarkDirty(1)
	if !b.IsDirty(1) {
		t.Fatal("MarkDirty")
	}
	b.Clean(1)
	if b.IsDirty(1) {
		t.Fatal("Clean")
	}
	b.Drop(1)
	if _, ok := b.Get(1); ok {
		t.Fatal("Get after Drop")
	}
}

func TestPutMergesDirtyFlag(t *testing.T) {
	b := New(4)
	b.Put(mkPage(1), true)
	// Re-putting the same id clean must not wash out the dirty flag.
	b.Put(mkPage(1), false)
	if !b.IsDirty(1) {
		t.Fatal("dirty flag lost on re-Put")
	}
}

func TestLRUEviction(t *testing.T) {
	b := New(2)
	b.Put(mkPage(1), false)
	b.Put(mkPage(2), true)
	b.Get(1) // make 2 the LRU victim
	b.Put(mkPage(3), false)
	if !b.NeedsEviction() {
		t.Fatal("over-capacity pool must need eviction")
	}
	victim, dirty, err := b.EvictVictim()
	if err != nil {
		t.Fatal(err)
	}
	if victim.ID() != 2 || !dirty {
		t.Fatalf("victim %d dirty=%v, want 2 dirty", victim.ID(), dirty)
	}
	if b.NeedsEviction() {
		t.Fatal("still over capacity")
	}
}

func TestPinnedPagesSkipped(t *testing.T) {
	b := New(1)
	b.Put(mkPage(1), false)
	b.Put(mkPage(2), false)
	b.Pin(1)
	b.Pin(2)
	if _, _, err := b.EvictVictim(); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("got %v, want ErrAllPinned", err)
	}
	b.Unpin(2)
	victim, _, err := b.EvictVictim()
	if err != nil || victim.ID() != 2 {
		t.Fatalf("victim %v err=%v, want 2", victim, err)
	}
}

func TestIDsAndDirtyIDs(t *testing.T) {
	b := New(4)
	b.Put(mkPage(1), true)
	b.Put(mkPage(2), false)
	b.Put(mkPage(3), true)
	if got := len(b.IDs()); got != 3 {
		t.Fatalf("IDs: %d", got)
	}
	dirty := b.DirtyIDs()
	if len(dirty) != 2 {
		t.Fatalf("DirtyIDs: %v", dirty)
	}
	b.Clear()
	if b.Len() != 0 || len(b.IDs()) != 0 {
		t.Fatal("Clear")
	}
}

func TestConcurrentAccess(t *testing.T) {
	// The pool has no lock: its owner serializes the calls of many
	// goroutines (a client's transactions and callbacks) under its own
	// mutex, and the pool must stay consistent across them.
	b := New(16)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := page.ID(1 + (g*31+i)%64)
				mu.Lock()
				switch i % 5 {
				case 0:
					b.Put(mkPage(id), i%2 == 0)
				case 1:
					b.Get(id)
				case 2:
					b.MarkDirty(id)
				case 3:
					if b.NeedsEviction() {
						b.EvictVictim()
					}
				case 4:
					b.Drop(id)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if n := b.Len(); n != len(b.IDs()) || n != b.lru.Len() {
		t.Fatalf("%d frames, %d ids, %d in the LRU list", n, len(b.IDs()), b.lru.Len())
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	b := New(8)
	for i := 1; i <= 4; i++ {
		b.Put(mkPage(page.ID(i)), false)
	}
	// Touch in a known order: 3, 1, 4, 2 — victims must come out 3, 1, 4, 2.
	for _, id := range []page.ID{3, 1, 4, 2} {
		b.Get(id)
	}
	for _, want := range []page.ID{3, 1, 4, 2} {
		v, _, err := b.EvictVictim()
		if err != nil {
			t.Fatal(err)
		}
		if v.ID() != want {
			t.Fatalf("victim %d, want %d", v.ID(), want)
		}
	}
}
