package msg_test

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"

	"clientlog/internal/fault"
	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/netrpc"
	"clientlog/internal/page"
	"clientlog/internal/wal"
)

// sample is one method's request and the reply a fake answers it with
// (nil for calls without a reply).  Slices are non-empty so both wire
// codecs hand them back equal.
type sample struct{ req, reply any }

var (
	obj     = lock.Name{Page: 9, Slot: 4}
	origins = []msg.CallbackOrigin{{Object: page.ObjectID{Page: 9, Slot: 4}, Responder: 2, PSN: 5}}
	objs    = []lock.ObjLock{{Slot: 4, Mode: lock.X}}
	image   = []byte{1, 2, 3}
)

var samples = map[msg.Method]sample{
	msg.MRegister:      {msg.RegisterReq{ID: 3, Recover: true}, msg.RegisterReply{ID: 3, PageSize: 1024, HeldX: []lock.Holding{{Name: obj, Mode: lock.X}}}},
	msg.MLock:          {msg.LockReq{Client: 3, Name: obj, Mode: lock.X, HasCached: true, CachedPSN: 7}, msg.LockReply{Name: obj, Mode: lock.X, Origins: origins}},
	msg.MLockBatch:     {msg.LockBatchReq{Client: 3, Items: []msg.LockItem{{Name: obj, Mode: lock.S}}}, msg.LockBatchReply{Grants: []msg.LockReply{{Name: obj, Mode: lock.S}}, Errs: []string{"x"}}},
	msg.MUnlock:        {msg.UnlockReq{Client: 3, Action: msg.ActionDeescalate, Name: lock.PageName(9), Objs: objs}, nil},
	msg.MFetch:         {msg.FetchReq{Client: 3, Page: 9, Recovery: true}, msg.FetchReply{Image: image, DCTPSN: 4}},
	msg.MFetchBatch:    {msg.FetchBatchReq{Client: 3, Pages: []page.ID{9, 10}}, msg.FetchBatchReply{Images: [][]byte{image}, DCTPSNs: []page.PSN{4}, Errs: []string{"y"}}},
	msg.MShip:          {msg.ShipReq{Client: 3, Reason: msg.ShipReplace, Carry: msg.Carry{Seq: 2, Pages: []msg.PageImage{{Page: 9, Image: image}}}}, nil},
	msg.MForce:         {msg.ForceReq{Client: 3, Page: 9, PSN: 8, Carried: 2}, msg.ForceReply{PSN: 8}},
	msg.MAlloc:         {msg.AllocReq{Client: 3}, msg.FetchReply{Image: image}},
	msg.MFree:          {msg.FreeReq{Client: 3, Page: 9}, nil},
	msg.MCommitShip:    {msg.CommitShipReq{Client: 3, Txn: 1 << 33, Records: [][]byte{image}}, nil},
	msg.MToken:         {msg.TokenReq{Client: 3, Page: 9}, msg.TokenReply{Image: image}},
	msg.MRecoveryFetch: {msg.RecoveryFetchReq{Client: 3, Page: 9, CID: 2, PSN: 6}, msg.FetchReply{Image: image, DCTPSN: 6}},
	msg.MReinstall:     {msg.ReinstallReq{Client: 3, Holds: []lock.Holding{{Name: obj, Mode: lock.X}}}, nil},
	msg.MRecoverQuery:  {msg.RecoverQueryReq{Client: 3, Pages: []page.ID{9}}, []msg.DCTRow{{Page: 9, PSN: 6}}},
	msg.MLogOp:         {msg.LogReq{Client: 3, Op: msg.LogAppend, Payload: image}, msg.LogReply{LSN: 12, Payload: image}},
	msg.MRecoverEnd:    {ident.ClientID(3), nil},
	msg.MDisconnect:    {ident.ClientID(3), nil},

	msg.MCallbackObject:   {msg.CallbackReq{Requester: 2, Object: obj, Wanted: lock.X}, msg.CallbackReply{Released: true, HadPage: true, Image: image}},
	msg.MDeescalatePage:   {msg.DeescReq{Requester: 2, Page: 9, Wanted: lock.S}, msg.DeescReply{Objs: objs, HadPage: true, Image: image}},
	msg.MRecallToken:      {page.ID(9), msg.TokenReply{Image: image}},
	msg.MRecoveryShipUpTo: {msg.FlushedNote{Page: 9, PSN: 6}, nil},
	msg.MNotifyFlushed:    {msg.FlushedNote{Page: 9, PSN: 6}, nil},
	msg.MRecoveryInfo:     {nil, msg.RecoveryInfoReply{DPT: []wal.DPTEntry{{Page: 9, RedoLSN: 40}}, Cached: []page.ID{9}, Locks: []lock.Holding{{Name: obj, Mode: lock.S}}}},
	msg.MFetchCached:      {[]page.ID{9}, [][]byte{image}},
	msg.MCallbackList:     {msg.CallbackListReq{Page: 9, Target: 2}, msg.CallbackListReply{Entries: origins}},
	msg.MRecoverPage:      {msg.RecoverPageReq{Page: 9, Image: image, DCTPSN: 6, Callbacks: origins}, nil},
}

// fake is a recording Caller: it counts calls per method, keeps the
// last request of each, and answers with the method's sample reply or
// with err.  msg.ServerConn{fake} and msg.ClientConn{fake} make it a
// fake engine of either side without a per-method list.
type fake struct {
	mu    sync.Mutex
	calls map[msg.Method]int
	last  map[msg.Method]any
	err   error
	seen  chan msg.Method // optional: every call, in order
}

func newFake() *fake {
	return &fake{calls: make(map[msg.Method]int), last: make(map[msg.Method]any)}
}

func (f *fake) Call(m msg.Method, req any) (any, error) {
	f.mu.Lock()
	f.calls[m]++
	f.last[m] = req
	err := f.err
	f.mu.Unlock()
	if f.seen != nil {
		f.seen <- m
	}
	if err != nil {
		return nil, err
	}
	return samples[m].reply, nil
}

func (f *fake) count(m msg.Method) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[m]
}

func (f *fake) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

// serverMethods and clientMethods are the two halves of the table.
func methodRange(from, to msg.Method) []msg.Method {
	var ms []msg.Method
	for m := from; m <= to; m++ {
		ms = append(ms, m)
	}
	return ms
}

var (
	serverMethods = methodRange(msg.MRegister, msg.MDisconnect)
	clientMethods = methodRange(msg.MCallbackObject, msg.MRecoverPage)
)

// roundTrip sends every method's sample through c and checks what the
// far end f received and what came back; then, with f failing every
// call with lock.ErrDeadlock, that the typed error survives the trip.
// delivered, when set, waits until a call has reached f (notifications
// travel asynchronously over TCP) and reports false for a notification
// the transport may lose.
func roundTrip(t *testing.T, c msg.Caller, f *fake, ms []msg.Method, delivered func(msg.Method) bool) {
	t.Helper()
	for _, m := range ms {
		s := samples[m]
		reply, err := c.Call(m, s.req)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if delivered != nil && !delivered(m) {
			continue
		}
		f.mu.Lock()
		got := f.last[m]
		f.mu.Unlock()
		if !reflect.DeepEqual(got, s.req) {
			t.Errorf("%v: request arrived as %#v, sent %#v", m, got, s.req)
		}
		if !reflect.DeepEqual(reply, s.reply) {
			t.Errorf("%v: reply came back as %#v, sent %#v", m, reply, s.reply)
		}
	}
	f.setErr(lock.ErrDeadlock)
	defer f.setErr(nil)
	for _, m := range ms {
		_, err := c.Call(m, samples[m].req)
		if m.OneWay() {
			if err != nil {
				t.Errorf("%v: one-way call returned %v", m, err)
			}
			continue
		}
		if !errors.Is(err, lock.ErrDeadlock) {
			t.Errorf("%v: err=%v, want lock.ErrDeadlock", m, err)
		}
	}
}

// TestSeamCoversEveryMethod pins the seam: every Server and Client
// method has exactly one Method, the stubs and dispatchers agree on it,
// and every method crosses each transport — loopback, faulty and TCP —
// with its request and reply intact and its typed lock error restored.
func TestSeamCoversEveryMethod(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		check := func(iface reflect.Type, stub func(msg.Caller) any, serve func(msg.Caller, msg.Method, any) (any, error), want []msg.Method) {
			seen := make(map[msg.Method]string)
			for i := 0; i < iface.NumMethod(); i++ {
				meth := iface.Method(i)
				rec := newFake()
				fn := reflect.ValueOf(stub(rec)).MethodByName(meth.Name)
				args := make([]reflect.Value, fn.Type().NumIn())
				for j := range args {
					args[j] = reflect.Zero(fn.Type().In(j))
				}
				fn.Call(args)
				if len(rec.calls) != 1 {
					t.Fatalf("%s issued %d calls, want 1", meth.Name, len(rec.calls))
				}
				var m msg.Method
				for m = range rec.calls {
				}
				if prev, dup := seen[m]; dup {
					t.Fatalf("%s and %s share %v", prev, meth.Name, m)
				}
				seen[m] = meth.Name
				// The dispatcher must reach the same method, which the
				// stub maps back to the same Method.
				again := newFake()
				if _, err := serve(again, m, rec.last[m]); err != nil {
					t.Fatalf("%v: dispatch: %v", m, err)
				}
				if again.count(m) != 1 || len(again.calls) != 1 {
					t.Fatalf("%v dispatched as %v, want %s", m, again.calls, meth.Name)
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("%v: %d methods map to %d Methods, table has %d", iface, iface.NumMethod(), len(seen), len(want))
			}
			for _, m := range want {
				if _, ok := seen[m]; !ok {
					t.Errorf("%v (%q) is no %v method", m, m.String(), iface)
				}
			}
		}
		check(reflect.TypeOf((*msg.Server)(nil)).Elem(),
			func(c msg.Caller) any { return msg.ServerConn{Caller: c} },
			func(c msg.Caller, m msg.Method, req any) (any, error) {
				return msg.ServeServer(msg.ServerConn{Caller: c}, m, req)
			}, serverMethods)
		check(reflect.TypeOf((*msg.Client)(nil)).Elem(),
			func(c msg.Caller) any { return msg.ClientConn{Caller: c} },
			func(c msg.Caller, m msg.Method, req any) (any, error) {
				return msg.ServeClient(msg.ClientConn{Caller: c}, m, req)
			}, clientMethods)
		for _, m := range []msg.Method{msg.MHello, msg.MNone} {
			if _, err := msg.ServeServer(msg.ServerConn{Caller: newFake()}, m, nil); err == nil {
				t.Errorf("ServeServer accepted %v", m)
			}
			if _, err := msg.ServeClient(msg.ClientConn{Caller: newFake()}, m, nil); err == nil {
				t.Errorf("ServeClient accepted %v", m)
			}
		}
		for m := msg.MNone + 1; m < msg.NumMethods; m++ {
			if msg.MethodNamed(m.String()) != m {
				t.Errorf("%v does not round-trip through its name", m)
			}
		}
	})

	all := append(append([]msg.Method(nil), serverMethods...), clientMethods...)

	t.Run("loopback", func(t *testing.T) {
		f := newFake()
		stats := msg.NewStats()
		roundTrip(t, &msg.Loopback{Next: f, Stats: stats}, f, all, nil)
		if stats.Messages() == 0 {
			t.Fatal("loopback counted nothing")
		}
	})

	t.Run("faulty", func(t *testing.T) {
		f := newFake()
		c := msg.NewFaulty(f, fault.New(5, hostilePlan()), msg.NewReplyCache(0), "seam",
			msg.RetryPolicy{MaxAttempts: 30, BaseBackoff: 1, MaxBackoff: 10})
		lossy := func(m msg.Method) bool { return !m.OneWay() || f.count(m) > 0 }
		roundTrip(t, c, f, all, lossy)
		for _, m := range all {
			if n := f.count(m); !m.OneWay() && n != 2 {
				t.Errorf("%v executed %d times for 2 logical calls", m, n)
			}
		}
	})

	t.Run("tcp", func(t *testing.T) {
		srvSide, cliSide := newFake(), newFake()
		// Room for every call of both passes, so the fake never blocks.
		cliSide.seen = make(chan msg.Method, 2*len(clientMethods))
		eng := &fakeEngine{ServerConn: msg.ServerConn{Caller: srvSide}, attached: make(chan msg.Client, 1)}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := netrpc.Serve(eng, ln)
		defer srv.Close()
		tr, err := netrpc.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.SetLocal(msg.ClientConn{Caller: cliSide})
		roundTrip(t, tr, srvSide, serverMethods, nil)

		// Register attached the session as the engine's conn back to
		// this client: the server-to-client half of the seam.
		back := msg.ClientCaller(<-eng.attached)
		roundTrip(t, back, cliSide, clientMethods, func(m msg.Method) bool {
			// A notification has no reply to wait for: wait for delivery.
			for got := range cliSide.seen {
				if got == m {
					break
				}
			}
			return true
		})
	})
}

// fakeEngine is a netrpc.Engine over a recording Caller.
type fakeEngine struct {
	msg.ServerConn
	attached chan msg.Client
}

func (e *fakeEngine) Attach(_ ident.ClientID, c msg.Client) {
	select {
	case e.attached <- c:
	default:
	}
}

func (e *fakeEngine) ClientCrashed(ident.ClientID) {}
