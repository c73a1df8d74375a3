package wake

import (
	"sync"
	"testing"
	"time"
)

func TestBroadcastWakesEveryWaiter(t *testing.T) {
	var mu sync.Mutex
	var l List
	const n = 8
	woken := make(chan bool, n)
	var registered sync.WaitGroup
	registered.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			mu.Lock()
			w := l.Add()
			mu.Unlock()
			registered.Done()
			woken <- w.Wait(time.Time{})
		}()
	}
	registered.Wait()
	mu.Lock()
	l.Broadcast()
	mu.Unlock()
	for i := 0; i < n; i++ {
		if !<-woken {
			t.Fatal("a woken waiter reported its deadline")
		}
	}
}

func TestWaiterAfterBroadcastNotWoken(t *testing.T) {
	var l List
	early := l.Add()
	l.Broadcast()
	late := l.Add()
	if !early.Wait(time.Now().Add(time.Minute)) {
		t.Fatal("the broadcast did not wake the waiter registered before it")
	}
	if late.Wait(time.Now().Add(10 * time.Millisecond)) {
		t.Fatal("a broadcast woke a waiter registered after it")
	}
	l.Broadcast()
	if !late.Wait(time.Now().Add(time.Minute)) {
		t.Fatal("the next broadcast did not wake the late waiter")
	}
}

func TestDeadline(t *testing.T) {
	var mu sync.Mutex
	var l List
	if l.Add().Wait(time.Now().Add(-time.Second)) {
		t.Fatal("a passed deadline reported a wakeup")
	}
	// A zero deadline never passes: the wait ends at the broadcast, and
	// only there.
	w := l.Add()
	done := make(chan bool)
	go func() { done <- w.Wait(time.Time{}) }()
	select {
	case <-done:
		t.Fatal("a zero deadline ended the wait before any broadcast")
	case <-time.After(20 * time.Millisecond):
	}
	mu.Lock()
	l.Broadcast()
	mu.Unlock()
	if !<-done {
		t.Fatal("a zero-deadline wait reported a deadline")
	}
}

// TestNoLostWakeup runs the engines' pattern from many goroutines at
// once: each waits under the mutex for a counter it did not advance
// itself to pass the value it saw, registering before it unlocks.  A
// lost wakeup leaves a waiter blocked past the test's deadline.
func TestNoLostWakeup(t *testing.T) {
	const goroutines, rounds = 64, 200
	var mu sync.Mutex
	var l List
	var count int
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				if g%2 == 0 {
					count++
					l.Broadcast()
					mu.Unlock()
					continue
				}
				seen := count
				for count == seen && count < goroutines/2*rounds {
					w := l.Add()
					mu.Unlock()
					if !w.Wait(deadline) {
						t.Error("a waiter missed its wakeup")
						return
					}
					mu.Lock()
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}
