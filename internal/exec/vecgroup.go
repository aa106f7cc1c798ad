// Per-workspace partitioning of the decoded-vector cache (§3.2 of the
// paper: read-only workspaces isolate analytic compute from the primary).
// A single process-wide vector cache would re-couple them — a cold
// analytic sweep on one workspace would evict the primary's hot set — so
// the primary and each workspace get their own VecCache LRU. A partition's
// byte budget is its tenant's share of the whole cache, computed by
// qos.Split, the same rule the QoS governor applies to every other
// resource, so one share map sizes everything a tenant may hold.
//
// Partitions share nothing. Cache keys are segment pointers, and every
// replica and workspace decodes its own Segment objects, so a segment is
// cached only in the partition whose tables own it: invalidation, heat and
// peeks on that partition are exact, and a vector one partition evicts
// could only ever be wanted again by that same partition.
package exec

import (
	"fmt"
	"sync"

	"s2db/internal/qos"
)

// VecCacheGroup splits one decoded-vector cache budget across the primary
// cluster and its read-only workspaces. A nil group (disabled cache) is
// valid: every method degrades to a no-op and Primary/AttachPartition
// return nil handles.
type VecCacheGroup struct {
	totalBytes int64
	shares     map[string]float64
	primary    *VecCache

	mu    sync.Mutex
	parts map[string]*VecCache // every partition by name, the primary's included
}

// NewVecCacheGroup builds a partitioned cache over totalBytes, with the
// primary's partition named primary. shares maps partition names to
// fractions of totalBytes (see qos.Split) and must already pass
// qos.ValidateShares. totalBytes <= 0 disables the cache (nil group).
func NewVecCacheGroup(totalBytes int, primary string, shares map[string]float64) *VecCacheGroup {
	if totalBytes <= 0 {
		return nil
	}
	g := &VecCacheGroup{
		totalBytes: int64(totalBytes),
		shares:     shares,
		parts:      make(map[string]*VecCache),
	}
	g.primary = g.addLocked(primary)
	return g
}

// Primary returns the primary cluster's partition handle (nil when the
// group is disabled).
func (g *VecCacheGroup) Primary() *VecCache {
	if g == nil {
		return nil
	}
	return g.primary
}

// AttachPartition provisions the partition for a workspace and rebalances
// every partition's budget.
func (g *VecCacheGroup) AttachPartition(name string) (*VecCache, error) {
	if g == nil {
		return nil, nil
	}
	if name == "" {
		return nil, fmt.Errorf("veccache: workspace name cannot be empty")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.parts[name]; dup {
		return nil, fmt.Errorf("veccache: partition %q already attached", name)
	}
	return g.addLocked(name), nil
}

// addLocked creates a partition and rebalances. Caller holds g.mu (or is
// the constructor).
func (g *VecCacheGroup) addLocked(name string) *VecCache {
	p := NewVecCache(1)
	p.name = name
	g.parts[name] = p
	g.rebalanceLocked()
	return p
}

// DetachPartition drops a workspace's partition and rebalances. Its
// entries are discarded: its segments belong to the detached workspace's
// replica tables and can never be referenced again.
func (g *VecCacheGroup) DetachPartition(name string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.parts[name]
	if !ok || p == g.primary {
		return
	}
	delete(g.parts, name)
	p.discardAll()
	g.rebalanceLocked()
}

// rebalanceLocked sizes every partition to its share of the whole budget
// (minimum 1 byte, so the admission filter stays well-defined). Caller
// holds g.mu.
func (g *VecCacheGroup) rebalanceLocked() {
	names := make([]string, 0, len(g.parts))
	for name := range g.parts {
		names = append(names, name)
	}
	for name, share := range qos.Split(g.shares, names) {
		g.parts[name].resize(max(int64(share*float64(g.totalBytes)), 1))
	}
}

// GroupStats snapshots every partition: the primary and each workspace by
// name.
type GroupStats struct {
	Primary    VecCacheStats
	Workspaces map[string]VecCacheStats
}

// Stats snapshots all partitions; zero-valued on a nil (disabled) group.
func (g *VecCacheGroup) Stats() GroupStats {
	gs := GroupStats{Workspaces: map[string]VecCacheStats{}}
	if g == nil {
		return gs
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, p := range g.parts {
		if p == g.primary {
			gs.Primary = p.Stats()
		} else {
			gs.Workspaces[name] = p.Stats()
		}
	}
	return gs
}

// Total folds every partition's counters into one VecCacheStats.
func (s GroupStats) Total() VecCacheStats {
	t := s.Primary
	for _, ws := range s.Workspaces {
		t.Add(ws)
	}
	return t
}
