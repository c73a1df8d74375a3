package msg

import (
	"math/rand"
	"reflect"
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs/span"
	"clientlog/internal/page"
)

// wireType is the common shape of every hand-rolled codec type.
type wireType interface {
	WireSize() int
	AppendWire(b []byte) []byte
	DecodeWire(d *WireDec)
}

// randBytes returns nil or a non-empty random slice: the encoding does
// not distinguish nil from empty, and decode normalizes to nil, so
// round-trip comparison must never start from a non-nil empty slice.
func randBytes(r *rand.Rand, maxLen int) []byte {
	n := r.Intn(maxLen + 1)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.Read(b)
	return b
}

func randName(r *rand.Rand) lock.Name {
	return lock.Name{
		Page:   page.ID(r.Uint64()),
		Slot:   uint16(r.Uint32()),
		IsPage: r.Intn(2) == 0,
	}
}

// randNames returns up to three random names (nil for none, as the
// codec decodes an empty list).
func randNames(r *rand.Rand) []lock.Name {
	var out []lock.Name
	for i := r.Intn(4); i > 0; i-- {
		out = append(out, randName(r))
	}
	return out
}

func randTrace(r *rand.Rand) span.Context {
	if r.Intn(2) == 0 {
		return span.Context{}
	}
	return span.Context{
		Txn:     ident.TxnID(r.Uint64()),
		Span:    r.Uint64(),
		Sampled: r.Intn(2) == 0,
	}
}

func randOrigins(r *rand.Rand) []CallbackOrigin {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]CallbackOrigin, n)
	for i := range out {
		out[i] = CallbackOrigin{
			Object:    page.ObjectID{Page: page.ID(r.Uint64()), Slot: uint16(r.Uint32())},
			Responder: ident.ClientID(r.Uint32()),
			PSN:       page.PSN(r.Uint64()),
		}
	}
	return out
}

func randLockReply(r *rand.Rand) LockReply {
	return LockReply{Name: randName(r), Mode: lock.Mode(r.Intn(4)), Origins: randOrigins(r), Image: randBytes(r, 128), Flushed: randNotes(r)}
}

// randNotes returns nil or up to three random flush notes.
func randNotes(r *rand.Rand) []FlushedNote {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	notes := make([]FlushedNote, n)
	for i := range notes {
		notes[i] = FlushedNote{Page: page.ID(r.Uint64()), PSN: page.PSN(r.Uint64())}
	}
	return notes
}

// randWire builds one random instance of every codec type per call.
// Slices are nil or non-empty (never non-nil empty) so decoded values
// compare equal under reflect.DeepEqual.
// randCarry returns a random carrier, or nil: a lock request carries
// one only when it made room.
func randCarry(r *rand.Rand) *Carry {
	if r.Intn(3) == 0 {
		return nil
	}
	c := randShipCarry(r)
	if n := r.Intn(3); n > 0 {
		c.Pages = make([]PageImage, n)
		for i := range c.Pages {
			c.Pages[i] = PageImage{Page: page.ID(r.Uint64()), Image: randBytes(r, 64)}
		}
	}
	return &c
}

// randShipCarry returns a random carrier of at most one page, as a
// ship sends.
func randShipCarry(r *rand.Rand) Carry {
	c := Carry{Seq: r.Uint64(), Releases: randNames(r)}
	if n := r.Intn(3); n > 0 {
		c.After = make([]Mark, n)
		for i := range c.After {
			c.After[i] = Mark{Page: page.ID(r.Uint64()), Seq: r.Uint64()}
		}
	}
	if r.Intn(2) == 0 {
		c.Pages = []PageImage{{Page: page.ID(r.Uint64()), Image: randBytes(r, 128)}}
	}
	return c
}

// randCarried returns n random carrier numbers, or nil.
func randCarried(r *rand.Rand, n int) []uint64 {
	if n == 0 || r.Intn(2) == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func randWire(r *rand.Rand) []wireType {
	lockBatch := &LockBatchReq{Client: ident.ClientID(r.Uint32()), Trace: randTrace(r)}
	if n := r.Intn(5); n > 0 {
		lockBatch.Items = make([]LockItem, n)
		for i := range lockBatch.Items {
			lockBatch.Items[i] = LockItem{
				Name:       randName(r),
				Mode:       lock.Mode(r.Intn(4)),
				PreferPage: r.Intn(2) == 0,
				Upgrade:    r.Intn(2) == 0,
				HasCached:  r.Intn(2) == 0,
				CachedPSN:  page.PSN(r.Uint64()),
				Fetch:      r.Intn(2) == 0,
				Carried:    r.Uint64(),
			}
		}
	}
	batchReply := &LockBatchReply{Flushed: randNotes(r)}
	if n := r.Intn(4); n > 0 {
		batchReply.Grants = make([]LockReply, n)
		batchReply.Errs = make([]string, n)
		for i := range batchReply.Grants {
			batchReply.Grants[i] = randLockReply(r)
			if r.Intn(2) == 0 {
				batchReply.Errs[i] = string(randBytes(r, 12))
			}
		}
	}
	fetchBatch := &FetchBatchReq{Client: ident.ClientID(r.Uint32()), Trace: randTrace(r)}
	if n := r.Intn(5); n > 0 {
		fetchBatch.Pages = make([]page.ID, n)
		for i := range fetchBatch.Pages {
			fetchBatch.Pages[i] = page.ID(r.Uint64())
		}
		fetchBatch.Carried = randCarried(r, n)
	}
	fetchBatchReply := &FetchBatchReply{}
	if n := r.Intn(4); n > 0 {
		fetchBatchReply.Images = make([][]byte, n)
		fetchBatchReply.DCTPSNs = make([]page.PSN, n)
		fetchBatchReply.Errs = make([]string, n)
		for i := range fetchBatchReply.Images {
			fetchBatchReply.Images[i] = randBytes(r, 64)
			fetchBatchReply.DCTPSNs[i] = page.PSN(r.Uint64())
			if r.Intn(3) == 0 {
				fetchBatchReply.Errs[i] = string(randBytes(r, 8))
			}
		}
	}
	unlock := &UnlockReq{
		Client: ident.ClientID(r.Uint32()),
		Action: UnlockAction(r.Intn(3) + 1),
		Name:   randName(r),
	}
	if n := r.Intn(4); n > 0 {
		unlock.Objs = make([]lock.ObjLock, n)
		for i := range unlock.Objs {
			unlock.Objs[i] = lock.ObjLock{Slot: uint16(r.Uint32()), Mode: lock.Mode(r.Intn(4))}
		}
	}
	commit := &CommitShipReq{
		Client: ident.ClientID(r.Uint32()),
		Txn:    ident.TxnID(r.Uint64()),
		Trace:  randTrace(r),
	}
	if n := r.Intn(4); n > 0 {
		commit.Records = make([][]byte, n)
		for i := range commit.Records {
			commit.Records[i] = randBytes(r, 48)
		}
	}
	if n := r.Intn(3); n > 0 {
		commit.Pages = make([][]byte, n)
		for i := range commit.Pages {
			commit.Pages[i] = randBytes(r, 64)
		}
	}
	lr := randLockReply(r)
	deesc := &DeescReply{Image: randBytes(r, 128), HadPage: r.Intn(2) == 0, Busy: r.Intn(2) == 0, Carried: r.Uint64()}
	if n := r.Intn(4); n > 0 {
		deesc.Objs = make([]lock.ObjLock, n)
		for i := range deesc.Objs {
			deesc.Objs[i] = lock.ObjLock{Slot: uint16(r.Uint32()), Mode: lock.Mode(r.Intn(4))}
		}
	}
	lockBatch.Carry = randCarry(r)
	return []wireType{
		&LockReq{
			Client:     ident.ClientID(r.Uint32()),
			Name:       randName(r),
			Mode:       lock.Mode(r.Intn(4)),
			PreferPage: r.Intn(2) == 0,
			Upgrade:    r.Intn(2) == 0,
			HasCached:  r.Intn(2) == 0,
			CachedPSN:  page.PSN(r.Uint64()),
			Fetch:      r.Intn(2) == 0,
			Trace:      randTrace(r),
			Carry:      randCarry(r),
			Carried:    r.Uint64(),
		},
		&lr,
		lockBatch,
		batchReply,
		&FetchReq{
			Client:   ident.ClientID(r.Uint32()),
			Page:     page.ID(r.Uint64()),
			Recovery: r.Intn(2) == 0,
			Carried:  r.Uint64(),
			Trace:    randTrace(r),
		},
		&FetchReply{Image: randBytes(r, 128), DCTPSN: page.PSN(r.Uint64())},
		fetchBatch,
		fetchBatchReply,
		unlock,
		&ShipReq{
			Client: ident.ClientID(r.Uint32()),
			Reason: ShipReason(r.Intn(4) + 1),
			Carry:  randShipCarry(r),
			Trace:  randTrace(r),
		},
		&ForceReq{
			Client:  ident.ClientID(r.Uint32()),
			Page:    page.ID(r.Uint64()),
			PSN:     page.PSN(r.Uint64()),
			Carried: r.Uint64(),
			Trace:   randTrace(r),
		},
		&ForceReply{PSN: page.PSN(r.Uint64())},
		commit,
		&CallbackReq{Requester: ident.ClientID(r.Uint32()), Object: randName(r), Wanted: lock.Mode(r.Intn(4)), Wait: r.Intn(2) == 0},
		&CallbackReply{
			Released:   r.Intn(2) == 0,
			Downgraded: r.Intn(2) == 0,
			Image:      randBytes(r, 128),
			HadPage:    r.Intn(2) == 0,
			Busy:       r.Intn(2) == 0,
			Carried:    r.Uint64(),
		},
		&DeescReq{Requester: ident.ClientID(r.Uint32()), Page: page.ID(r.Uint64()), Wanted: lock.Mode(r.Intn(4)), Wait: r.Intn(2) == 0},
		deesc,
		&FlushedNote{Page: page.ID(r.Uint64()), PSN: page.PSN(r.Uint64())},
	}
}

// TestWireRoundTrip encodes random instances of every codec type and
// decodes them into a zero struct of the same type: values must come
// back identical and WireSize must price the encoding exactly.
func TestWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		for _, v := range randWire(r) {
			b := v.AppendWire(nil)
			if len(b) != v.WireSize() {
				t.Fatalf("%T: WireSize=%d but encoded %d bytes", v, v.WireSize(), len(b))
			}
			got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(wireType)
			var d WireDec
			d.Reset(b)
			got.DecodeWire(&d)
			if d.Err() != nil {
				t.Fatalf("%T: decode error: %v", v, d.Err())
			}
			if d.Remaining() != 0 {
				t.Fatalf("%T: %d bytes left after decode", v, d.Remaining())
			}
			if !reflect.DeepEqual(v, got) {
				t.Fatalf("%T round trip mismatch:\n in: %+v\nout: %+v", v, v, got)
			}
		}
	}
}

// TestWireDecodeReusesCapacity decodes twice into the same struct and
// checks the second decode allocates nothing new for its slices.
func TestWireDecodeReusesCapacity(t *testing.T) {
	img := []byte{1, 2, 3, 4}
	var fetch FetchReply
	var cb CallbackReply
	var deesc DeescReply
	cases := []struct {
		in, out wireType
		backing func() []interface{} // first element of every decoded slice
		check   func() bool
	}{
		{
			in: &FetchReply{Image: img, DCTPSN: 7}, out: &fetch,
			backing: func() []interface{} { return []interface{}{&fetch.Image[0]} },
			check:   func() bool { return string(fetch.Image) == string(img) && fetch.DCTPSN == 7 },
		},
		{
			in: &CallbackReply{Released: true, Image: img, HadPage: true}, out: &cb,
			backing: func() []interface{} { return []interface{}{&cb.Image[0]} },
			check: func() bool {
				return string(cb.Image) == string(img) && cb.Released && cb.HadPage && !cb.Downgraded
			},
		},
		{
			in: &DeescReply{Objs: []lock.ObjLock{{Slot: 5, Mode: lock.X}}, Image: img, HadPage: true}, out: &deesc,
			backing: func() []interface{} { return []interface{}{&deesc.Image[0], &deesc.Objs[0]} },
			check: func() bool {
				return string(deesc.Image) == string(img) && deesc.HadPage &&
					len(deesc.Objs) == 1 && deesc.Objs[0] == lock.ObjLock{Slot: 5, Mode: lock.X}
			},
		},
	}
	for _, tc := range cases {
		b := tc.in.AppendWire(nil)
		var d WireDec
		d.Reset(b)
		tc.out.DecodeWire(&d)
		first := tc.backing()
		d.Reset(b)
		tc.out.DecodeWire(&d)
		for i, p := range tc.backing() {
			if p != first[i] { // pointer identity, not pointee equality
				t.Fatalf("%T: second decode reallocated slice %d", tc.out, i)
			}
		}
		if d.Err() != nil || !tc.check() {
			t.Fatalf("%T: reuse decode wrong: err=%v out=%+v", tc.out, d.Err(), tc.out)
		}
	}
}

// TestWireDecTruncation checks the decoder goes fail-sticky on every
// truncation point rather than panicking or reading stale bytes.
func TestWireDecTruncation(t *testing.T) {
	img := []byte{9, 8, 7}
	for _, v := range []wireType{
		&LockReq{Client: 3, Name: lock.Name{Page: 9, Slot: 2}, Mode: lock.X},
		&CallbackReq{Requester: 3, Object: lock.Name{Page: 9, Slot: 2}, Wanted: lock.X},
		&CallbackReply{Released: true, Image: img, HadPage: true},
		&DeescReq{Requester: 3, Page: 9, Wanted: lock.S},
		&DeescReply{Objs: []lock.ObjLock{{Slot: 1, Mode: lock.X}}, Image: img, HadPage: true},
		&FlushedNote{Page: 9, PSN: 77},
		&LockReply{Name: lock.Name{Page: 9, Slot: 2}, Mode: lock.X, Flushed: []FlushedNote{{Page: 9, PSN: 77}}},
	} {
		full := v.AppendWire(nil)
		for cut := 0; cut < len(full); cut++ {
			got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(wireType)
			var d WireDec
			d.Reset(full[:cut])
			got.DecodeWire(&d)
			if d.Err() == nil {
				t.Fatalf("%T: truncation at %d/%d not detected", v, cut, len(full))
			}
		}
	}
}

// TestWireDecHostileCount checks an inflated element count is rejected
// before any allocation sized by it.
func TestWireDecHostileCount(t *testing.T) {
	// LockBatchReq header (client + zero trace) then a count claiming
	// 2^31 items with no bytes behind it.
	b := appendU32(nil, 1)
	b = span.Context{}.AppendWire(b)
	b = appendU32(b, 1<<31)
	var r LockBatchReq
	var d WireDec
	d.Reset(b)
	r.DecodeWire(&d)
	if d.Err() == nil {
		t.Fatal("hostile count accepted")
	}
	if r.Items != nil {
		t.Fatalf("hostile count allocated %d items", len(r.Items))
	}

	// DeescReply: HadPage, then an object-lock count with nothing behind
	// it; CallbackReply: three flags, then an image length likewise.
	var dr DeescReply
	d.Reset(appendU32([]byte{1}, 1<<31))
	dr.DecodeWire(&d)
	if d.Err() == nil || dr.Objs != nil || dr.Image != nil {
		t.Fatalf("DeescReply: hostile count: err=%v objs=%d image=%d", d.Err(), len(dr.Objs), len(dr.Image))
	}
	var cr CallbackReply
	d.Reset(appendU32([]byte{1, 0, 1}, 1<<31))
	cr.DecodeWire(&d)
	if d.Err() == nil || cr.Image != nil {
		t.Fatalf("CallbackReply: hostile image length: err=%v image=%d", d.Err(), len(cr.Image))
	}
}

// FuzzWireDec throws arbitrary bytes at every decoder: none may panic,
// and any payload a decoder accepts cleanly must re-encode to a payload
// that decodes back to the same value.
func FuzzWireDec(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 4; iter++ {
		for _, v := range randWire(r) {
			f.Add(v.AppendWire(nil))
		}
	}
	// Every field added by ProtocolVersion 5 set, so each has a seed that
	// carries it (random draws may leave a flag false in all four rounds).
	for _, v := range []wireType{
		&LockReq{Fetch: true},
		&LockReply{Image: []byte{1, 2, 3}},
		&LockBatchReq{Items: []LockItem{{Fetch: true}}},
		&LockBatchReply{Grants: []LockReply{{Image: []byte{4}}}, Errs: []string{""}},
		&CallbackReq{Wait: true},
		&CallbackReply{Busy: true},
		&DeescReq{Wait: true},
		&DeescReply{Busy: true},
		// ProtocolVersion 7: a carrier on the lock requests, its number
		// on the callback answers.
		&LockReq{Carry: &Carry{Seq: 1, Pages: []PageImage{{Page: 2, Image: []byte{3}}}, Releases: []lock.Name{{Page: 2}}}},
		&LockBatchReq{Carry: &Carry{Seq: 1}},
		&CallbackReply{Carried: 1},
		&DeescReply{Carried: 1},
		// ProtocolVersion 8: every ship a carrier, which names the carriers
		// it lands after; the carrier numbers requests name; the PSN a
		// force must cover.
		&ShipReq{Carry: Carry{Seq: 2, After: []Mark{{Page: 2, Seq: 1}}, Pages: []PageImage{{Page: 2, Image: []byte{3}}}}},
		&LockReq{Carried: 1},
		&LockBatchReq{Items: []LockItem{{Carried: 1}}},
		&FetchReq{Carried: 1},
		&FetchBatchReq{Pages: []page.ID{2}, Carried: []uint64{1}},
		&ForceReq{PSN: 3, Carried: 1},
		// ProtocolVersion 9: flush notes ride the lock replies.
		&LockReply{Flushed: []FlushedNote{{Page: 9, PSN: 77}, {Page: 12, PSN: 3}}},
		&LockBatchReply{Grants: []LockReply{{}}, Errs: []string{""}, Flushed: []FlushedNote{{Page: 9, PSN: 77}}},
	} {
		f.Add(v.AppendWire(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() []wireType {
			return []wireType{
				&LockReq{}, &LockReply{}, &LockBatchReq{}, &LockBatchReply{},
				&FetchReq{}, &FetchReply{}, &FetchBatchReq{}, &FetchBatchReply{},
				&UnlockReq{}, &ShipReq{}, &ForceReq{}, &ForceReply{}, &CommitShipReq{},
				&CallbackReq{}, &CallbackReply{}, &DeescReq{}, &DeescReply{}, &FlushedNote{},
			}
		}
		for _, v := range fresh() {
			var d WireDec
			d.Reset(data)
			v.DecodeWire(&d)
			if d.Err() != nil || d.Remaining() != 0 {
				continue
			}
			// Clean decode: the value must survive a second round trip.
			b := v.AppendWire(nil)
			got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(wireType)
			var d2 WireDec
			d2.Reset(b)
			got.DecodeWire(&d2)
			if d2.Err() != nil || d2.Remaining() != 0 {
				t.Fatalf("%T: re-encode of clean decode does not decode: %v", v, d2.Err())
			}
			if !reflect.DeepEqual(v, got) {
				t.Fatalf("%T: re-encoded round trip diverged:\n in: %+v\nout: %+v", v, v, got)
			}
		}
	})
}
