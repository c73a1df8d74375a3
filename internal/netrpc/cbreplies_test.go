package netrpc

import (
	"sync"
	"testing"

	"clientlog/internal/core"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
)

// attachSpy is an engine that hands the test each session's conn to its
// client, so the test can call the client the way the server does.
type attachSpy struct {
	*core.Server
	conns chan msg.Client
}

func (a attachSpy) Attach(id ident.ClientID, c msg.Client) {
	a.Server.Attach(id, c)
	a.conns <- c
}

// imageClient answers every object callback with a page image, as a
// holder of a dirty page does; the client's other handlers are unused.
type imageClient struct{ msg.Client }

func (imageClient) CallbackObject(msg.CallbackReq) (msg.CallbackReply, error) {
	return msg.CallbackReply{Released: true, HadPage: true, Image: make([]byte, 4096)}, nil
}

// TestCbRepliesBounded: the client's reply cache for the server's
// requests keeps only the answers the server may still ask for again,
// not the last 1 024 with their page images.  Each request carries the
// lowest sequence number still open at the server, and the client
// forgets the answers below it.
func TestCbRepliesBounded(t *testing.T) {
	engine, ln, _ := startEngine(t, testCfg(), 1)
	spy := attachSpy{Server: engine, conns: make(chan msg.Client, 1)}
	srv := Serve(spy, ln)
	t.Cleanup(func() { srv.Close() })
	tr, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.SetLocal(imageClient{})
	if _, err := tr.Register(msg.RegisterReq{}); err != nil {
		t.Fatal(err)
	}
	conn := <-spy.conns
	req := msg.CallbackReq{Requester: 9, Object: lock.Name{Page: 1, Slot: 1}, Wanted: lock.X}
	call := func() {
		if reply, err := conn.CallbackObject(req); err != nil || len(reply.Image) != 4096 {
			t.Errorf("callback: %d-byte image, %v", len(reply.Image), err)
		}
	}
	for i := 0; i < 4000; i++ {
		call()
		if n := tr.cbReplies.Len(); n > 1 {
			t.Fatalf("after %d sequential callbacks the cache holds %d answers, want the last one", i+1, n)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				call()
			}
		}()
	}
	wg.Wait()
	call() // alone: its floor is its own number
	if n := tr.cbReplies.Len(); n != 1 {
		t.Fatalf("after 5 000 callbacks the cache holds %d answers, want 1", n)
	}
}
