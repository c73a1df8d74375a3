package fleet

import (
	"sort"
	"sync"
	"time"

	"clientlog/internal/ident"
	"clientlog/internal/lock"
	"clientlog/internal/obs"
)

// Member is one partition's view as the Detector needs it: the
// partition id, its live waits-for snapshot (the PR 3 introspection
// edges, partition-tagged), and the kill hook into its GLM.
type Member interface {
	Partition() int
	WaitsFor() lock.WaitsForSnapshot
	// KillWaiter dooms a currently blocked Acquire of the client so it
	// returns ErrDeadlock with the given cycle recorded in the victim
	// history.  It reports false when the client is not waiting there
	// anymore (the cycle resolved itself between snapshot and kill).
	KillWaiter(c ident.ClientID, cycle []ident.ClientID) bool
}

// DetectorMetrics counts distributed deadlock detection events.
type DetectorMetrics struct {
	Cycles obs.Counter // cross-partition cycles found
	Kills  obs.Counter // victims successfully doomed
}

// Detector is the lightweight distributed deadlock coordinator: it
// periodically unions the partitions' waits-for graphs and kills a
// victim in every cycle that spans more than one partition.  Cycles
// confined to one partition are left alone — the local GLM detects
// those synchronously at edge-insertion time and they cannot persist.
//
// The union is an epoch snapshot, not an atomic cut: edges are
// collected one partition at a time, so a cycle assembled from
// slightly stale views can be a phantom.  Killing a phantom victim
// aborts one transaction that would have proceeded; every caller of
// Acquire already treats ErrDeadlock as retryable, so the cost is one
// retry.  The kill itself is guarded — GLM.KillWaiter refuses unless
// the victim is still blocked — which suppresses most phantoms.
type Detector struct {
	members func() []Member
	Metrics DetectorMetrics

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewDetector builds a detector over a member provider.  members is
// called on every sweep so partition restarts (fresh *Server engines)
// are picked up automatically.
func NewDetector(members func() []Member) *Detector {
	return &Detector{members: members}
}

// Snapshot returns the merged fleet-wide waits-for view (admin
// endpoints and the chaos failure report use it).
func (d *Detector) Snapshot() lock.WaitsForSnapshot {
	ms := d.members()
	snaps := make([]lock.WaitsForSnapshot, 0, len(ms))
	for _, m := range ms {
		snaps = append(snaps, m.WaitsFor())
	}
	return MergeSnapshots(snaps)
}

// edgeInfo is one waiter node of the union graph: who it waits for and
// the partition where it is blocked.
type edgeInfo struct {
	blockers  []ident.ClientID
	partition int
}

// Sweep runs one union-and-search pass and returns the number of
// victims killed.  Safe to call concurrently with the background loop;
// tests call it directly for deterministic resolution.
func (d *Detector) Sweep() int {
	ms := d.members()
	graph := make(map[ident.ClientID]*edgeInfo)
	for _, m := range ms {
		snap := m.WaitsFor()
		for _, e := range snap.Edges {
			if e.Pending {
				continue // closes no cycle until the holder reports busy
			}
			ei := graph[e.Waiter]
			if ei == nil {
				ei = &edgeInfo{partition: e.Partition}
				graph[e.Waiter] = ei
			}
			ei.blockers = append(ei.blockers, e.Blocker)
		}
	}
	// Deterministic iteration order: ascending client id.
	nodes := make([]ident.ClientID, 0, len(graph))
	for c := range graph {
		nodes = append(nodes, c)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	byPart := make(map[int]Member, len(ms))
	for _, m := range ms {
		byPart[m.Partition()] = m
	}
	kills := 0
	killed := make(map[ident.ClientID]bool)
	for _, start := range nodes {
		cycle := findCycle(graph, start)
		if cycle == nil {
			continue
		}
		parts := make(map[int]bool)
		for _, c := range cycle {
			if ei := graph[c]; ei != nil {
				parts[ei.partition] = true
			}
		}
		if len(parts) < 2 {
			continue // partition-local; the GLM's own detection owns it
		}
		d.Metrics.Cycles.Inc()
		victim := pickVictim(cycle, killed)
		if victim == 0 {
			continue // every node of this cycle was already doomed
		}
		ei := graph[victim]
		m := byPart[ei.partition]
		if m != nil && m.KillWaiter(victim, cycle) {
			kills++
			killed[victim] = true
			d.Metrics.Kills.Inc()
			// Drop the victim's edges so overlapping cycles through it
			// count as resolved within this sweep.
			delete(graph, victim)
		}
	}
	return kills
}

// findCycle returns the node sequence of a cycle reachable from start,
// or nil.  The DFS visits blockers in ascending id order so the result
// is deterministic for a given graph.
func findCycle(graph map[ident.ClientID]*edgeInfo, start ident.ClientID) []ident.ClientID {
	seen := make(map[ident.ClientID]bool)
	onPath := make(map[ident.ClientID]bool)
	var path []ident.ClientID
	var found []ident.ClientID
	var dfs func(n ident.ClientID) bool
	dfs = func(n ident.ClientID) bool {
		path = append(path, n)
		onPath[n] = true
		ei := graph[n]
		var blockers []ident.ClientID
		if ei != nil {
			blockers = append(blockers, ei.blockers...)
			sort.Slice(blockers, func(i, j int) bool { return blockers[i] < blockers[j] })
		}
		for _, b := range blockers {
			if onPath[b] {
				// Close the cycle: the suffix of path from b onward.
				for i, c := range path {
					if c == b {
						found = append([]ident.ClientID(nil), path[i:]...)
						return true
					}
				}
			}
			if !seen[b] {
				seen[b] = true
				if dfs(b) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		delete(onPath, n)
		return false
	}
	seen[start] = true
	if dfs(start) {
		return found
	}
	return nil
}

// pickVictim chooses deterministically among the cycle's members that
// are not already doomed: the highest client id (the youngest client,
// under the monotone registry) loses.
func pickVictim(cycle []ident.ClientID, killed map[ident.ClientID]bool) ident.ClientID {
	var victim ident.ClientID
	for _, c := range cycle {
		if killed[c] {
			continue
		}
		if c > victim {
			victim = c
		}
	}
	return victim
}

// Start launches the background sweep loop with the given cadence.
// Stop terminates it; Start after Stop restarts it.
func (d *Detector) Start(every time.Duration) {
	if every <= 0 {
		every = 20 * time.Millisecond
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop != nil {
		return // already running
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	stop, done := d.stop, d.done
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				d.Sweep()
			}
		}
	}()
}

// Stop terminates the background loop and waits for it to exit.
func (d *Detector) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
