package msg

import (
	"errors"
	"sync"
	"testing"
)

func TestReplyCacheExecutesOnce(t *testing.T) {
	rc := NewReplyCache(8)
	calls := 0
	exec := func() (any, error) { calls++; return calls, nil }
	for i := 0; i < 5; i++ {
		body, err := rc.Do(1, exec)
		if err != nil || body.(int) != 1 {
			t.Fatalf("attempt %d: body=%v err=%v", i, body, err)
		}
	}
	if calls != 1 {
		t.Fatalf("exec ran %d times, want 1", calls)
	}
	if got := rc.Suppressed.Load(); got != 4 {
		t.Fatalf("suppressed=%d want 4", got)
	}
}

func TestReplyCacheCachesErrors(t *testing.T) {
	rc := NewReplyCache(8)
	boom := errors.New("boom")
	calls := 0
	exec := func() (any, error) { calls++; return nil, boom }
	for i := 0; i < 3; i++ {
		if _, err := rc.Do(7, exec); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err=%v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed exec retried server-side %d times, want 1", calls)
	}
}

func TestReplyCacheCoalescesInflight(t *testing.T) {
	rc := NewReplyCache(8)
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	go rc.Do(3, func() (any, error) {
		calls++
		close(started)
		<-release
		return "done", nil
	})
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := rc.Do(3, func() (any, error) { calls++; return "dup", nil })
			if err != nil || body != "done" {
				t.Errorf("duplicate got body=%v err=%v", body, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("exec ran %d times, want 1", calls)
	}
}

func TestReplyCacheBoundedEviction(t *testing.T) {
	rc := NewReplyCache(4)
	for seq := uint64(1); seq <= 100; seq++ {
		rc.Do(seq, func() (any, error) { return seq, nil })
	}
	rc.mu.Lock()
	n := len(rc.entries)
	rc.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache holds %d entries, limit 4", n)
	}
}

// TestForgetBelow pins ReplyCache.ForgetBelow: completed entries below
// the floor go, an entry still executing stays (its duplicate must find
// it) and goes once it completes, entries at or above the floor are
// still answered from the cache, and a late copy of a forgotten request
// is refused, not executed again.
func TestForgetBelow(t *testing.T) {
	rc := NewReplyCache(0)
	runs := make(map[uint64]int)
	exec := func(seq uint64) func() (any, error) {
		return func() (any, error) { runs[seq]++; return seq, nil }
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if seq == 2 {
			continue
		}
		rc.Do(seq, exec(seq))
	}
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan any)
	go func() {
		body, _ := rc.Do(2, func() (any, error) { close(started); <-gate; return uint64(2), nil })
		done <- body
	}()
	<-started

	rc.ForgetBelow(5)
	if got := rc.Len(); got != 2 {
		t.Fatalf("after ForgetBelow(5): %d entries, want 2 (seq 2 executing, seq 5)", got)
	}
	dup := make(chan any)
	go func() {
		body, _ := rc.Do(2, func() (any, error) { t.Error("seq 2 executed twice"); return nil, nil })
		dup <- body
	}()
	close(gate)
	if a, b := <-done, <-dup; a != uint64(2) || b != uint64(2) {
		t.Fatalf("seq 2 answered %v and %v, want 2 twice", a, b)
	}
	if body, _ := rc.Do(5, exec(5)); body != uint64(5) || runs[5] != 1 {
		t.Fatalf("seq 5 at the floor: body %v after %d runs, want the cached answer", body, runs[5])
	}

	rc.ForgetBelow(6)
	if got := rc.Len(); got != 0 {
		t.Fatalf("after ForgetBelow(6): %d entries, want 0", got)
	}
	if len(rc.order) != 0 {
		t.Fatalf("order keeps %d forgotten entries", len(rc.order))
	}
	if _, err := rc.Do(3, exec(3)); !errors.Is(err, ErrForgotten) || runs[3] != 1 {
		t.Fatalf("late copy of seq 3: err %v after %d runs, want ErrForgotten after 1", err, runs[3])
	}
	if body, _ := rc.Do(6, exec(6)); body != uint64(6) || runs[6] != 1 {
		t.Fatalf("seq 6 at the floor: body %v after %d runs, want one execution", body, runs[6])
	}
}
