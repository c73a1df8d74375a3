package lock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/page"
)

// TestGLMConcurrentStress hammers the GLM from many client goroutines
// with a cooperative callbacker and verifies that (a) nothing deadlocks
// permanently, (b) the final table holds no incompatible grants.
func TestGLMConcurrentStress(t *testing.T) {
	g := NewGLM(nil, 2*time.Second)
	rc := &recordingCallbacker{}
	rc.react = func(cb callback) {
		// Cooperative holder: yield after a tiny delay.
		time.Sleep(time.Millisecond)
		if cb.name.IsPage {
			g.Deescalate(cb.holder, cb.name.Page, nil)
		} else if cb.wanted == S {
			g.Downgrade(cb.holder, cb.name)
		} else {
			g.Release(cb.holder, cb.name)
		}
	}
	g.SetCallbacker(rc)

	const clients = 8
	var grants, denials atomic.Uint64
	var wg sync.WaitGroup
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func(c ident.ClientID) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				name := obj(page.ID(1+i%3), uint16(i%4))
				mode := S
				if i%3 == 0 {
					mode = X
				}
				if _, err := g.Acquire(Request{Client: c, Name: name, Mode: mode}); err != nil {
					denials.Add(1)
					continue
				}
				grants.Add(1)
				if i%5 == 0 {
					g.Release(c, name)
				}
			}
		}(ident.ClientID(c))
	}
	wg.Wait()
	if grants.Load() == 0 {
		t.Fatal("no grants at all")
	}
	// Invariant: no incompatible grants coexist.
	g.forEachPageLocked(func(pid page.ID, pl *pageLocks) {
		for c1, m1 := range pl.page {
			for c2, m2 := range pl.page {
				if c1 != c2 && !Compatible(m1, m2) {
					t.Errorf("page %d: incompatible page locks %v/%v", pid, m1, m2)
				}
			}
		}
		for slot, owners := range pl.objs {
			for c1, m1 := range owners {
				for c2, m2 := range owners {
					if c1 != c2 && !Compatible(m1, m2) {
						t.Errorf("obj %d.%d: incompatible locks", pid, slot)
					}
				}
				for c2, m2 := range pl.page {
					if c1 != c2 && !Compatible(m1, m2) {
						t.Errorf("obj %d.%d vs page lock: incompatible", pid, slot)
					}
				}
			}
		}
	})
	t.Logf("grants=%d denials=%d", grants.Load(), denials.Load())
}

// TestLLMConcurrentStress runs transactions and callbacks against one
// LLM concurrently.
func TestLLMConcurrentStress(t *testing.T) {
	l := NewLLM(2 * time.Second)
	for p := page.ID(1); p <= 2; p++ {
		for s := uint16(0); s < 4; s++ {
			l.InstallCached(Name{Page: p, Slot: s}, X)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				txn := ident.MakeTxnID(1, uint32(w*1000+i))
				name := Name{Page: page.ID(1 + i%2), Slot: uint16((w + i) % 4)}
				if res, err := l.AcquireLocal(txn, name, S); err == nil && res == Granted {
					l.ReleaseTxn(txn)
				}
			}
		}(w)
	}
	// Concurrent callbacks taking locks away and reinstalling them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			name := Name{Page: 1, Slot: uint16(i % 4)}
			l.SetFence(name, X)
			if err := l.WaitObjectFree(name, X); err == nil {
				l.DropCached(name)
			}
			l.ClearFence(name)
			l.InstallCached(name, X)
		}
	}()
	wg.Wait()
}
