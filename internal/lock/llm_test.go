package lock

import (
	"errors"
	"testing"
	"time"

	"clientlog/internal/ident"
)

var (
	t1 = ident.MakeTxnID(1, 1)
	t2 = ident.MakeTxnID(1, 2)
)

func TestLLMCacheMissThenInstall(t *testing.T) {
	l := NewLLM(time.Second)
	res, err := l.AcquireLocal(t1, obj(1, 0), X)
	if err != nil || res != NeedGlobal {
		t.Fatalf("cold cache: res=%v err=%v", res, err)
	}
	l.InstallCached(obj(1, 0), X)
	res, err = l.AcquireLocal(t1, obj(1, 0), X)
	if err != nil || res != Granted {
		t.Fatalf("after install: res=%v err=%v", res, err)
	}
	if l.UseMode(t1, obj(1, 0)) != X {
		t.Fatal("use not recorded")
	}
}

func TestLLMPageLockCoversObjects(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(PageName(1), X)
	for slot := uint16(0); slot < 3; slot++ {
		res, err := l.AcquireLocal(t1, obj(1, slot), X)
		if err != nil || res != Granted {
			t.Fatalf("slot %d: res=%v err=%v", slot, res, err)
		}
	}
	// Accessed objects feed de-escalation.
	objs := l.AccessedObjects(1)
	if len(objs) != 3 {
		t.Fatalf("AccessedObjects = %v", objs)
	}
	for _, ol := range objs {
		if ol.Mode != X {
			t.Fatalf("mode %v, want X", ol.Mode)
		}
	}
}

func TestLLMInterTxnCaching(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(obj(1, 0), X)
	if res, _ := l.AcquireLocal(t1, obj(1, 0), X); res != Granted {
		t.Fatal("t1 not granted")
	}
	l.ReleaseTxn(t1)
	// The cached lock survives the transaction (inter-transaction
	// caching): t2 gets it locally without a server round trip.
	if res, _ := l.AcquireLocal(t2, obj(1, 0), X); res != Granted {
		t.Fatal("lock not retained across transactions")
	}
}

func TestLLMLocalConflictBlocksUntilRelease(t *testing.T) {
	l := NewLLM(2 * time.Second)
	l.InstallCached(obj(1, 0), X)
	if res, _ := l.AcquireLocal(t1, obj(1, 0), X); res != Granted {
		t.Fatal("setup")
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.AcquireLocal(t2, obj(1, 0), X)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("t2 acquired a lock t1 holds")
	case <-time.After(30 * time.Millisecond):
	}
	l.ReleaseTxn(t1)
	if err := <-done; err != nil {
		t.Fatalf("t2 after release: %v", err)
	}
}

// TestLLMWaitTimeout: a local conflict that outlasts the LLM's timeout
// ends in ErrTimeout and leaves the tables as they were.
func TestLLMWaitTimeout(t *testing.T) {
	l := NewLLM(50 * time.Millisecond)
	l.InstallCached(obj(1, 0), X)
	if res, _ := l.AcquireLocal(t1, obj(1, 0), X); res != Granted {
		t.Fatal("setup")
	}
	if _, err := l.AcquireLocal(t2, obj(1, 0), X); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if l.UseMode(t2, obj(1, 0)) != None || l.UseMode(t1, obj(1, 0)) != X {
		t.Fatal("the timed-out wait changed the uses")
	}
	l.ReleaseTxn(t1)
	if res, err := l.AcquireLocal(t2, obj(1, 0), X); err != nil || res != Granted {
		t.Fatalf("after release: res=%v err=%v", res, err)
	}
}

func TestLLMSharedReadersCoexistLocally(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(obj(1, 0), S)
	if res, _ := l.AcquireLocal(t1, obj(1, 0), S); res != Granted {
		t.Fatal("t1")
	}
	if res, _ := l.AcquireLocal(t2, obj(1, 0), S); res != Granted {
		t.Fatal("t2")
	}
}

func TestLLMLocalDeadlock(t *testing.T) {
	l := NewLLM(5 * time.Second)
	l.InstallCached(obj(1, 0), X)
	l.InstallCached(obj(1, 1), X)
	if res, _ := l.AcquireLocal(t1, obj(1, 0), X); res != Granted {
		t.Fatal("setup t1")
	}
	if res, _ := l.AcquireLocal(t2, obj(1, 1), X); res != Granted {
		t.Fatal("setup t2")
	}
	errs := make(chan error, 2)
	go func() { _, err := l.AcquireLocal(t1, obj(1, 1), X); errs <- err }()
	go func() { _, err := l.AcquireLocal(t2, obj(1, 0), X); errs <- err }()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("got %v, want ErrDeadlock", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("local deadlock not detected")
	}
}

func TestLLMFenceBlocksNewAcquisitions(t *testing.T) {
	l := NewLLM(2 * time.Second)
	l.InstallCached(obj(1, 0), X)
	l.SetFence(obj(1, 0), X)
	done := make(chan struct{})
	go func() {
		// Blocks on the fence; once it clears, the cache was dropped, so
		// the request must go global.
		res, err := l.AcquireLocal(t1, obj(1, 0), X)
		if err != nil || res != NeedGlobal {
			t.Errorf("after fence: res=%v err=%v", res, err)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("fence did not block")
	case <-time.After(30 * time.Millisecond):
	}
	l.DropCached(obj(1, 0))
	l.ClearFence(obj(1, 0))
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("acquisition stuck after fence cleared")
	}
}

func TestLLMFenceSharedKeepsReaders(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(obj(1, 0), X)
	l.SetFence(obj(1, 0), S) // downgrade pending: shared access survives
	if res, err := l.AcquireLocal(t1, obj(1, 0), S); err != nil || res != Granted {
		t.Fatalf("S under S-fence: res=%v err=%v", res, err)
	}
}

func TestLLMWaitObjectFree(t *testing.T) {
	l := NewLLM(2 * time.Second)
	l.InstallCached(obj(1, 0), X)
	if res, _ := l.AcquireLocal(t1, obj(1, 0), X); res != Granted {
		t.Fatal("setup")
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitObjectFree(obj(1, 0), X) }()
	select {
	case <-done:
		t.Fatal("object reported free while t1 uses it")
	case <-time.After(30 * time.Millisecond):
	}
	l.ReleaseTxn(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLLMWaitObjectFreeSharedWanted(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(obj(1, 0), S)
	if res, _ := l.AcquireLocal(t1, obj(1, 0), S); res != Granted {
		t.Fatal("setup")
	}
	// A downgrade callback (wanted S) is satisfiable while readers are
	// active.
	if err := l.WaitObjectFree(obj(1, 0), S); err != nil {
		t.Fatal(err)
	}
}

func TestLLMDeescalate(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(PageName(1), X)
	if res, _ := l.AcquireLocal(t1, obj(1, 2), X); res != Granted {
		t.Fatal("setup")
	}
	l.ReleaseTxn(t1)
	if err := l.WaitObjectFree(PageName(1), X); err != nil {
		t.Fatal(err)
	}
	l.Deescalate(1, []ObjLock{{Slot: 2, Mode: X}})
	if l.CachedMode(PageName(1)) != None {
		t.Fatal("page lock survived de-escalation")
	}
	if l.CachedMode(obj(1, 2)) != X {
		t.Fatal("object lock not installed by de-escalation")
	}
	if !l.HoldsAnyOnPage(1) {
		t.Fatal("HoldsAnyOnPage")
	}
	l.DropCached(obj(1, 2))
	if l.HoldsAnyOnPage(1) {
		t.Fatal("HoldsAnyOnPage after drop")
	}
}

func TestLLMStructuralPageUseBlocksObjects(t *testing.T) {
	l := NewLLM(2 * time.Second)
	l.InstallCached(PageName(1), X)
	// t1 performs a structural operation: page-name use.
	if res, _ := l.AcquireLocal(t1, PageName(1), X); res != Granted {
		t.Fatal("setup")
	}
	done := make(chan error, 1)
	go func() { _, err := l.AcquireLocal(t2, obj(1, 0), S); done <- err }()
	select {
	case <-done:
		t.Fatal("object acquired during structural operation")
	case <-time.After(30 * time.Millisecond):
	}
	l.ReleaseTxn(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLLMClearAndCachedLocks(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(obj(1, 0), X)
	l.InstallCached(PageName(2), S)
	if got := len(l.CachedLocks()); got != 2 {
		t.Fatalf("CachedLocks = %d entries", got)
	}
	l.Clear()
	if got := len(l.CachedLocks()); got != 0 {
		t.Fatalf("after Clear: %d entries", got)
	}
}

// TestLLMReleaseAfterClearDropsOnlyOwnUses: a transaction whose
// client crashed (Clear) and restarted while it was still ending
// releases its own uses only.  Its list still names what it used before
// the crash; a later transaction on the rebuilt tables uses some of the
// same names and keeps them.  Release visits each shard once, wakes its
// waiters, and empties the list for reuse.
func TestLLMReleaseAfterClearDropsOnlyOwnUses(t *testing.T) {
	l := NewLLM(time.Second)
	install := func() {
		l.InstallCached(obj(1, 0), X)
		l.InstallCached(PageName(2), X)
		l.InstallCached(PageName(9), X) // page 1's shard
	}
	install()
	old := &Uses{Txn: t1}
	for _, n := range []Name{obj(1, 0), obj(2, 1), obj(9, 4), PageName(2)} {
		if res, err := l.Acquire(old, n, X); err != nil || res != Granted {
			t.Fatalf("old %v: res=%v err=%v", n, res, err)
		}
	}
	if len(old.Names) != 4 {
		t.Fatalf("old uses %v, want 4 names", old.Names)
	}
	l.Clear() // the crash
	install() // the restart reinstalls the retained locks
	later := &Uses{Txn: t2}
	for _, n := range []Name{obj(1, 0), obj(2, 1)} {
		if res, err := l.Acquire(later, n, X); err != nil || res != Granted {
			t.Fatalf("later %v: res=%v err=%v", n, res, err)
		}
	}
	l.Release(old)
	if len(old.Names) != 0 || cap(old.Names) == 0 {
		t.Fatalf("old list after Release: %v (cap %d), want empty and kept", old.Names, cap(old.Names))
	}
	for _, n := range []Name{obj(1, 0), obj(2, 1)} {
		if m := l.UseMode(t2, n); m != X {
			t.Fatalf("the later transaction's use of %v is %v after the old Release, want X", n, m)
		}
		if l.ObjectFree(n, S) {
			t.Fatalf("%v free while the later transaction uses it", n)
		}
	}
	// A waiter on the later transaction's name wakes once it ends.
	done := make(chan error, 1)
	go func() {
		_, err := l.Acquire(&Uses{Txn: ident.MakeTxnID(1, 3)}, obj(1, 0), X)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	l.Release(later)
	if err := <-done; err != nil {
		t.Fatalf("waiter after the later Release: %v", err)
	}
	if uses := l.TxnUses(t2); len(uses) != 0 {
		t.Fatalf("the later transaction keeps %v", uses)
	}
}

// TestEvictionDropsIdleLocksOnly: an evicted page's locks go all
// together, page lock first, with the objects accessed under the page
// lock named too — and none go while a transaction uses a name of the
// page or a callback fences one.  Other pages' locks stay.
func TestEvictionDropsIdleLocksOnly(t *testing.T) {
	l := NewLLM(time.Second)
	l.InstallCached(PageName(1), X)
	l.InstallCached(obj(1, 5), S)
	l.InstallCached(PageName(9), S) // same shard as page 1
	if _, err := l.AcquireLocal(t1, obj(1, 3), X); err != nil {
		t.Fatal(err)
	}
	if got := l.DropIdlePage(1); got != nil {
		t.Fatalf("dropped %v while t1 uses object 3", got)
	}
	l.ReleaseTxn(t1)
	l.SetFence(obj(1, 5), X)
	if got := l.DropIdlePage(1); got != nil {
		t.Fatalf("dropped %v under a callback fence", got)
	}
	l.ClearFence(obj(1, 5))
	want := []Name{PageName(1), obj(1, 3), obj(1, 5)}
	if got := l.DropIdlePage(1); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("DropIdlePage(1) = %v, want %v", got, want)
	}
	if l.HoldsAnyOnPage(1) || len(l.AccessedObjects(1)) != 0 {
		t.Fatal("page 1 keeps locks or access history after the drop")
	}
	if l.CachedMode(PageName(9)) != S {
		t.Fatal("page 9's lock went with page 1's")
	}
	if got := l.DropIdlePage(1); got != nil {
		t.Fatalf("second drop returned %v", got)
	}
}
