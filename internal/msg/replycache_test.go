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
