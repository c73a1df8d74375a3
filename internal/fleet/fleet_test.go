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
}

func (f *fakePart) Call(m msg.Method, req any) (any, error) {
	switch m {
	case msg.MLockBatch:
		items := req.(msg.LockBatchReq).Items
		f.lockItems = append(f.lockItems, items)
		reply := msg.LockBatchReply{Grants: make([]msg.LockReply, len(items)), Errs: make([]string, len(items))}
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
