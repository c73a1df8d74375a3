package netrpc

import (
	"bytes"
	"net"
	"testing"
	"time"

	"clientlog/internal/core"
	"clientlog/internal/msg"
	"clientlog/internal/page"
	"clientlog/internal/storage"
	"clientlog/internal/wal"
)

// startEngine builds a memory-backed engine with seeded pages and a
// listener, without serving yet.
func startEngine(t *testing.T, cfg core.Config, pages int) (*core.Server, net.Listener, []page.ID) {
	t.Helper()
	store := storage.NewMemStore(cfg.PageSize)
	var ids []page.ID
	for i := 0; i < pages; i++ {
		p, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 8; s++ {
			if _, _, err := p.Insert(make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Write(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID())
	}
	engine := core.NewServer(cfg, store, wal.NewMemStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return engine, ln, ids
}

// startCluster spins a TCP server over a memory-backed engine and
// returns the engine plus its address.
func startCluster(t *testing.T, cfg core.Config, pages int) (*core.Server, *Server, []page.ID) {
	t.Helper()
	engine, ln, ids := startEngine(t, cfg, pages)
	srv := Serve(engine, ln)
	t.Cleanup(func() { srv.Close() })
	return engine, srv, ids
}

// dialClient connects a core.Client engine over TCP.
func dialClient(t *testing.T, cfg core.Config, addr string) (*core.Client, *Transport) {
	t.Helper()
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewClient(cfg, tr, wal.NewMemStore(0))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLocal(c)
	t.Cleanup(func() { tr.Close() })
	return c, tr
}

func testCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.PageSize = 1024
	cfg.LockTimeout = 5 * time.Second
	return cfg
}

func TestTCPCommitAndReadBack(t *testing.T) {
	cfg := testCfg()
	_, srv, ids := startCluster(t, cfg, 2)
	c, _ := dialClient(t, cfg, srv.Addr().String())

	obj := page.ObjectID{Page: ids[0], Slot: 0}
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("over-the-wire!!!")
	if err := txn.Overwrite(obj, want); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	txn2, _ := c.Begin()
	got, err := txn2.Read(obj)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: %q err=%v", got, err)
	}
	txn2.Commit()
}

// TestTCPCallbackBetweenTwoClients drives every per-transaction
// server->client message over a v3<->v3 pair — de-escalation, object
// callback and flush note — and asserts from the server's own wire
// accounting that none of them took the gob escape.
func TestTCPCallbackBetweenTwoClients(t *testing.T) {
	cfg := testCfg()
	cfg.ClientPool = 2
	engine, srv, ids := startCluster(t, cfg, 4)
	ws, reg := instanceWireStats()
	srv.SetWireStats(ws)
	a, _ := dialClient(t, cfg, srv.Addr().String())
	b, _ := dialClient(t, cfg, srv.Addr().String())
	obj := page.ObjectID{Page: ids[0], Slot: 3}

	ta, _ := a.Begin()
	want := []byte("from client A!!!")
	if err := ta.Overwrite(obj, want); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	// B's read triggers a real network callback to A.
	tb, _ := b.Begin()
	got, err := tb.Read(obj)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cross-client read over TCP: %q err=%v", got, err)
	}
	tb.Commit()

	// A dirties more pages than its pool holds, so replaced pages travel
	// to the server; forcing them makes the server send A flush notes.
	for _, pid := range ids[1:] {
		txn, _ := a.Begin()
		if err := txn.Overwrite(page.ObjectID{Page: pid, Slot: 0}, want); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.FlushAll(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, method := range []string{"cb.object", "cb.deescalate", "cb.flushed"} {
		if n := wireFrames(snap, method, wireVerV3Gob); n != 0 {
			t.Errorf("%s: %d frames took the gob escape on a v3 connection", method, n)
		}
		if n := wireFrames(snap, method, wireVerV3); n == 0 {
			t.Errorf("%s: no binary v3 frames recorded", method)
		}
	}
}

func TestTCPConcurrentSamePageUpdates(t *testing.T) {
	cfg := testCfg()
	_, srv, ids := startCluster(t, cfg, 1)
	a, _ := dialClient(t, cfg, srv.Addr().String())
	b, _ := dialClient(t, cfg, srv.Addr().String())

	ta, _ := a.Begin()
	if err := ta.Overwrite(page.ObjectID{Page: ids[0], Slot: 0}, []byte("aaaaaaaaaaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	tb, _ := b.Begin()
	if err := tb.Overwrite(page.ObjectID{Page: ids[0], Slot: 1}, []byte("bbbbbbbbbbbbbbbb")); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDisconnectTreatedAsCrash(t *testing.T) {
	cfg := testCfg()
	cfg.LockTimeout = 500 * time.Millisecond
	engine, srv, ids := startCluster(t, cfg, 1)
	a, tra := dialClient(t, cfg, srv.Addr().String())
	b, _ := dialClient(t, cfg, srv.Addr().String())
	obj := page.ObjectID{Page: ids[0], Slot: 0}

	ta, _ := a.Begin()
	if err := ta.Overwrite(obj, []byte("holder goes away")); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	// Drop A's connection without disconnecting cleanly: the server must
	// treat it as a crash and retain A's exclusive lock, so B times out.
	tra.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !engine.GLM().Crashed(a.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the dropped connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb, _ := b.Begin()
	if err := tb.Overwrite(obj, []byte("should time out!")); err != nil {
		t.Fatal(err) // the write waits for its lock until the commit
	}
	if err := tb.Commit(); err == nil {
		t.Fatal("B acquired a lock held by a crashed client")
	}
	tb.Abort()
}

func TestTCPErrorPropagation(t *testing.T) {
	cfg := testCfg()
	_, srv, _ := startCluster(t, cfg, 1)
	tr, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Fetch of an unallocated page must surface the server's error.
	if _, err := tr.Fetch(fetchUnknown()); err == nil {
		t.Fatal("no error for unallocated page")
	}
}

func TestTCPManyClientsWorkload(t *testing.T) {
	cfg := testCfg()
	_, srv, ids := startCluster(t, cfg, 4)
	const n = 4
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		c, _ := dialClient(t, cfg, srv.Addr().String())
		go func(i int, c *core.Client) {
			for round := 0; round < 10; round++ {
				txn, err := c.Begin()
				if err != nil {
					done <- err
					return
				}
				obj := page.ObjectID{Page: ids[round%len(ids)], Slot: uint16(i)}
				if err := txn.Overwrite(obj, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
					txn.Abort()
					done <- err
					return
				}
				if err := txn.Commit(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i, c)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// fetchUnknown builds a request for a page that does not exist.
func fetchUnknown() msg.FetchReq {
	return msg.FetchReq{Page: 9999}
}
