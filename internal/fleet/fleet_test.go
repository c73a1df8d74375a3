package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/msg"
	"clientlog/internal/page"
)

func TestOwnerCoversAndAgrees(t *testing.T) {
	if Owner(42, 1) != 0 || Owner(42, 0) != 0 {
		t.Fatalf("degenerate fleet must own everything at partition 0")
	}
	for n := 2; n <= 5; n++ {
		seen := make(map[int]bool)
		for pid := page.ID(1); pid < 100; pid++ {
			o := Owner(pid, n)
			if o < 0 || o >= n {
				t.Fatalf("Owner(%d, %d) = %d out of range", pid, n, o)
			}
			seen[o] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d: only %d partitions ever own a page", n, len(seen))
		}
	}
}

// fakePart is one partition's conn as a recording msg.Caller; any call
// it has no answer for fails the test loudly.
type fakePart struct {
	part       int
	lockItems  [][]msg.LockItem
	fetchPages [][]page.ID
	allocs     int
	registers  []msg.RegisterReq
	ships      []msg.ShipReq
	locks      []msg.LockReq
	notes      []msg.FlushedNote // the flush notes its next lock batch hands over
}

func (f *fakePart) Call(m msg.Method, req any) (any, error) {
	switch m {
	case msg.MLockBatch:
		items := req.(msg.LockBatchReq).Items
		f.lockItems = append(f.lockItems, items)
		reply := msg.LockBatchReply{Grants: make([]msg.LockReply, len(items)), Errs: make([]string, len(items)), Flushed: f.notes}
		f.notes = nil
		for i, it := range items {
			reply.Grants[i] = msg.LockReply{Name: it.Name, Mode: it.Mode}
		}
		return reply, nil
	case msg.MFetchBatch:
		pages := req.(msg.FetchBatchReq).Pages
		f.fetchPages = append(f.fetchPages, pages)
		reply := msg.FetchBatchReply{
			Images:  make([][]byte, len(pages)),
			DCTPSNs: make([]page.PSN, len(pages)),
			Errs:    make([]string, len(pages)),
		}
		for i, pid := range pages {
			reply.Images[i] = []byte{byte(pid)}
			reply.DCTPSNs[i] = page.PSN(pid) * 10
		}
		return reply, nil
	case msg.MAlloc:
		f.allocs++
		return msg.FetchReply{}, nil
	case msg.MShip:
		f.ships = append(f.ships, req.(msg.ShipReq))
		return nil, nil
	case msg.MLock:
		lr := req.(msg.LockReq)
		f.locks = append(f.locks, lr)
		return msg.LockReply{Name: lr.Name, Mode: lr.Mode}, nil
	case msg.MRegister:
		r := req.(msg.RegisterReq)
		f.registers = append(f.registers, r)
		if r.ID == 0 {
			r.ID = 7
		}
		return msg.RegisterReply{ID: r.ID, HeldX: []lock.Holding{
			{Name: lock.PageName(page.ID(f.part)), Mode: lock.X},
		}}, nil
	}
	panic(fmt.Sprintf("partition %d: unrouted %v", f.part, m))
}

func newFakeFleet(n int) ([]*fakePart, *Router) {
	parts := make([]*fakePart, n)
	conns := make([]msg.Server, n)
	for i := range parts {
		parts[i] = &fakePart{part: i}
		conns[i] = msg.ServerConn{Caller: parts[i]}
	}
	return parts, NewRouter(conns)
}

func TestRouterLockBatchSplitsAndReassembles(t *testing.T) {
	parts, r := newFakeFleet(3)
	// Pages 5,3,4,6,9 over 3 partitions: owners 2,0,1,0,0.
	pages := []page.ID{5, 3, 4, 6, 9}
	req := msg.LockBatchReq{Client: 1}
	for _, pid := range pages {
		req.Items = append(req.Items, msg.LockItem{Name: lock.PageName(pid), Mode: lock.X})
	}
	reply, err := r.LockBatch(req)
	if err != nil {
		t.Fatalf("LockBatch: %v", err)
	}
	// Grants come back in request order despite the partition split.
	for i, g := range reply.Grants {
		if g.Name.Page != pages[i] {
			t.Fatalf("grant %d: got page %d, want %d", i, g.Name.Page, pages[i])
		}
	}
	// Each partition saw exactly its owned pages, in request order.
	wantByPart := [][]page.ID{{3, 6, 9}, {4}, {5}}
	for p, fp := range parts {
		if len(fp.lockItems) != 1 {
			t.Fatalf("partition %d: %d sub-batches, want 1", p, len(fp.lockItems))
		}
		var got []page.ID
		for _, it := range fp.lockItems[0] {
			got = append(got, it.Name.Page)
		}
		if !reflect.DeepEqual(got, wantByPart[p]) {
			t.Fatalf("partition %d saw %v, want %v", p, got, wantByPart[p])
		}
	}
}

// TestRouterLockBatchCarriesEveryPartitionsNotes: a batch spanning
// three partitions hands the client the flush notes of each, in
// ascending partition order.
func TestRouterLockBatchCarriesEveryPartitionsNotes(t *testing.T) {
	parts, r := newFakeFleet(3)
	var want []msg.FlushedNote
	for p, fp := range parts {
		fp.notes = []msg.FlushedNote{{Page: page.ID(30 + p), PSN: page.PSN(p + 1)}}
		if p == 1 {
			fp.notes = append(fp.notes, msg.FlushedNote{Page: 40, PSN: 9})
		}
		want = append(want, fp.notes...)
	}
	// Pages 5, 4, 3 are owned by partitions 2, 1, 0.
	req := msg.LockBatchReq{Client: 1}
	for _, pid := range []page.ID{5, 4, 3} {
		req.Items = append(req.Items, msg.LockItem{Name: lock.PageName(pid), Mode: lock.S})
	}
	reply, err := r.LockBatch(req)
	if err != nil {
		t.Fatalf("LockBatch: %v", err)
	}
	if !reflect.DeepEqual(reply.Flushed, want) {
		t.Fatalf("batch reply carried notes %v, want %v", reply.Flushed, want)
	}
}

// TestRouterShipSplitsReleases: the one carrier splitter.  A ship's
// carrier reaches each partition owning a page it is about as a share
// under the carrier's number, with that partition's marks, image and
// releases (the image is not parsed: it is not a page here).  A
// carrying lock request splits its carrier the same way: its own
// partition's share rides it, and the others go ahead as ships, never
// as lock batches without items; a carrying lock batch sends every
// share ahead.
func TestRouterShipSplitsReleases(t *testing.T) {
	parts, r := newFakeFleet(3)
	// Pages 3,4,5,6 over 3 partitions: owners 0,1,2,0.
	carry := msg.Carry{
		Seq:      9,
		After:    []msg.Mark{{Page: 6, Seq: 8}},
		Pages:    []msg.PageImage{{Page: 4, Image: []byte{1}}},
		Releases: []lock.Name{lock.PageName(4), {Page: 3, Slot: 1}, {Page: 5, Slot: 2}, {Page: 6, Slot: 0}},
	}
	shares := []msg.Carry{
		{Seq: 9, After: []msg.Mark{{Page: 6, Seq: 8}}, Releases: []lock.Name{{Page: 3, Slot: 1}, {Page: 6, Slot: 0}}},
		{Seq: 9, Pages: []msg.PageImage{{Page: 4, Image: []byte{1}}}, Releases: []lock.Name{lock.PageName(4)}},
		{Seq: 9, Releases: []lock.Name{{Page: 5, Slot: 2}}},
	}
	if err := r.Ship(msg.ShipReq{Client: 1, Reason: msg.ShipReplace, Carry: carry}); err != nil {
		t.Fatal(err)
	}
	for p, fp := range parts {
		if want := []msg.ShipReq{{Client: 1, Reason: msg.ShipReplace, Carry: shares[p]}}; !reflect.DeepEqual(fp.ships, want) {
			t.Fatalf("partition %d got %+v, want %+v", p, fp.ships, want)
		}
	}
	// Releases alone: nothing goes to a partition that owns none of them.
	if err := r.Ship(msg.ShipReq{Client: 1, Carry: msg.Carry{Seq: 10, Releases: []lock.Name{{Page: 5, Slot: 3}}}}); err != nil {
		t.Fatal(err)
	}
	if n0, n1, n2 := len(parts[0].ships), len(parts[1].ships), len(parts[2].ships); n0 != 1 || n1 != 1 || n2 != 2 {
		t.Fatalf("ships per partition %d/%d/%d after a ship of releases alone, want 1/1/2", n0, n1, n2)
	}

	// A lock request for page 4 carrying the same carrier.
	if _, err := r.Lock(msg.LockReq{Client: 1, Name: lock.PageName(4), Mode: lock.X, Carry: &carry}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2} {
		last := parts[p].ships[len(parts[p].ships)-1]
		if want := (msg.ShipReq{Client: 1, Reason: msg.ShipReplace, Carry: shares[p]}); !reflect.DeepEqual(last, want) {
			t.Fatalf("partition %d got %+v ahead of the lock request, want %+v", p, last, want)
		}
	}
	if len(parts[1].locks) != 1 || !reflect.DeepEqual(parts[1].locks[0].Carry, &shares[1]) {
		t.Fatalf("partition 1 got lock requests %+v, want one carrying %+v", parts[1].locks, shares[1])
	}
	// A lock batch for pages 3 and 5 carrying it: every share goes ahead.
	ships := []int{len(parts[0].ships), len(parts[1].ships), len(parts[2].ships)}
	batch := msg.LockBatchReq{Client: 1, Carry: &carry, Items: []msg.LockItem{{Name: lock.PageName(3), Mode: lock.S}, {Name: lock.PageName(5), Mode: lock.S}}}
	if _, err := r.LockBatch(batch); err != nil {
		t.Fatal(err)
	}
	for p, fp := range parts {
		if len(fp.ships) != ships[p]+1 || !reflect.DeepEqual(fp.ships[ships[p]].Carry, shares[p]) {
			t.Fatalf("partition %d got ships %+v after the lock batch, want one more carrying %+v", p, fp.ships[ships[p]:], shares[p])
		}
		for _, items := range fp.lockItems {
			if len(items) == 0 {
				t.Fatalf("partition %d got a lock batch without items", p)
			}
		}
	}
}

func TestRouterFetchBatchReassemblesInRequestOrder(t *testing.T) {
	_, r := newFakeFleet(3)
	pages := []page.ID{7, 2, 3, 8}
	reply, err := r.FetchBatch(msg.FetchBatchReq{Client: 1, Pages: pages})
	if err != nil {
		t.Fatalf("FetchBatch: %v", err)
	}
	for i, pid := range pages {
		if len(reply.Images[i]) != 1 || reply.Images[i][0] != byte(pid) {
			t.Fatalf("image %d: got %v, want [%d]", i, reply.Images[i], byte(pid))
		}
		if reply.DCTPSNs[i] != page.PSN(pid)*10 {
			t.Fatalf("psn %d: got %d, want %d", i, reply.DCTPSNs[i], pid*10)
		}
	}
}

func TestRouterAllocRoundRobins(t *testing.T) {
	parts, r := newFakeFleet(3)
	for i := 0; i < 9; i++ {
		if _, err := r.Alloc(msg.AllocReq{Client: 1}); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
	}
	for p, fp := range parts {
		if fp.allocs != 3 {
			t.Fatalf("partition %d got %d allocs, want 3", p, fp.allocs)
		}
	}
}

func TestRouterRegisterFreshAssignsAtHomeThenAnnounces(t *testing.T) {
	parts, r := newFakeFleet(3)
	reply, err := r.Register(msg.RegisterReq{})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if reply.ID != 7 {
		t.Fatalf("assigned id %d, want the home partition's 7", reply.ID)
	}
	if len(parts[0].registers) != 1 || parts[0].registers[0].Recover {
		t.Fatalf("home partition should see the one fresh registration")
	}
	for p := 1; p < 3; p++ {
		regs := parts[p].registers
		if len(regs) != 1 || !regs[0].Recover || regs[0].ID != 7 {
			t.Fatalf("partition %d should see one recovery announce for id 7, got %+v", p, regs)
		}
	}
}

func TestRouterRegisterRecoverMergesHeldLocks(t *testing.T) {
	_, r := newFakeFleet(3)
	reply, err := r.Register(msg.RegisterReq{ID: 7, Recover: true})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if len(reply.HeldX) != 3 {
		t.Fatalf("merged %d retained locks, want one per partition", len(reply.HeldX))
	}
}

// detMember fabricates one partition's waits-for view for the Detector.
type detMember struct {
	part  int
	edges []lock.WaitEdge
	kills []ident.ClientID
}

func (m *detMember) Partition() int { return m.part }
func (m *detMember) WaitsFor() lock.WaitsForSnapshot {
	return lock.WaitsForSnapshot{Edges: m.edges}
}
func (m *detMember) KillWaiter(c ident.ClientID, cycle []ident.ClientID) bool {
	m.kills = append(m.kills, c)
	return true
}

func edge(w, b ident.ClientID, part int) lock.WaitEdge {
	return lock.WaitEdge{Waiter: w, Blocker: b, Partition: part}
}

func detector(ms ...*detMember) *Detector {
	return NewDetector(func() []Member {
		out := make([]Member, len(ms))
		for i, m := range ms {
			out[i] = m
		}
		return out
	})
}

func TestDetectorKillsCrossPartitionCycle(t *testing.T) {
	// c1 blocked on c2 at partition 0; c2 blocked on c1 at partition 1.
	m0 := &detMember{part: 0, edges: []lock.WaitEdge{edge(1, 2, 0)}}
	m1 := &detMember{part: 1, edges: []lock.WaitEdge{edge(2, 1, 1)}}
	d := detector(m0, m1)
	if kills := d.Sweep(); kills != 1 {
		t.Fatalf("Sweep killed %d, want 1", kills)
	}
	// Victim is the highest client id, killed at the partition where it
	// waits (c2 waits at partition 1).
	if len(m1.kills) != 1 || m1.kills[0] != 2 {
		t.Fatalf("partition 1 kills = %v, want [2]", m1.kills)
	}
	if len(m0.kills) != 0 {
		t.Fatalf("partition 0 should not kill, got %v", m0.kills)
	}
	if got := d.Metrics.Cycles.Load(); got != 1 {
		t.Fatalf("cycles metric %d, want 1", got)
	}
}

func TestDetectorIgnoresLocalCycle(t *testing.T) {
	// Both edges of the cycle live at partition 0: the local GLM's own
	// synchronous detection owns it, the fleet detector must not race it.
	m0 := &detMember{part: 0, edges: []lock.WaitEdge{edge(1, 2, 0), edge(2, 1, 0)}}
	m1 := &detMember{part: 1}
	d := detector(m0, m1)
	if kills := d.Sweep(); kills != 0 {
		t.Fatalf("Sweep killed %d on a partition-local cycle, want 0", kills)
	}
	if d.Metrics.Cycles.Load() != 0 {
		t.Fatalf("local cycle must not count as a fleet cycle")
	}
}

func TestDetectorNoCycleNoKill(t *testing.T) {
	// A cross-partition chain without a cycle: c1→c2→c3.
	m0 := &detMember{part: 0, edges: []lock.WaitEdge{edge(1, 2, 0)}}
	m1 := &detMember{part: 1, edges: []lock.WaitEdge{edge(2, 3, 1)}}
	d := detector(m0, m1)
	if kills := d.Sweep(); kills != 0 {
		t.Fatalf("Sweep killed %d on an acyclic graph, want 0", kills)
	}
}

func TestDetectorThreePartitionCycleOneVictim(t *testing.T) {
	// c1@p0 → c2, c2@p1 → c3, c3@p2 → c1: one cycle, one victim (c3).
	m0 := &detMember{part: 0, edges: []lock.WaitEdge{edge(1, 2, 0)}}
	m1 := &detMember{part: 1, edges: []lock.WaitEdge{edge(2, 3, 1)}}
	m2 := &detMember{part: 2, edges: []lock.WaitEdge{edge(3, 1, 2)}}
	d := detector(m0, m1, m2)
	if kills := d.Sweep(); kills != 1 {
		t.Fatalf("Sweep killed %d, want 1", kills)
	}
	if len(m2.kills) != 1 || m2.kills[0] != 3 {
		t.Fatalf("partition 2 kills = %v, want [3]", m2.kills)
	}
}

func TestMergeSnapshotsConcatenatesProvenance(t *testing.T) {
	s0 := lock.WaitsForSnapshot{Edges: []lock.WaitEdge{edge(1, 2, 0)}}
	s1 := lock.WaitsForSnapshot{Edges: []lock.WaitEdge{edge(2, 1, 1)}}
	merged := MergeSnapshots([]lock.WaitsForSnapshot{s0, s1})
	if len(merged.Edges) != 2 {
		t.Fatalf("merged %d edges, want 2", len(merged.Edges))
	}
	if merged.Edges[0].Partition != 0 || merged.Edges[1].Partition != 1 {
		t.Fatalf("partition provenance lost in merge: %+v", merged.Edges)
	}
}
