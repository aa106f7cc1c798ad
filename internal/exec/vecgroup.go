// Per-workspace partitioning of the decoded-vector cache (§5 of the
// paper, via its workspace isolation story): read-only workspaces exist so
// a heavy analytic workload cannot degrade the primary's operational
// latency, but a single process-wide vector cache re-couples them — a cold
// analytic sweep on one workspace evicts the primary's hot set. The group
// gives each workspace (and the primary) its own LRU hot tier with a byte
// share of the budget, backed by one shared second tier that holds demoted
// vectors, so an eviction from a hot tier is a demotion, not a decode
// sentence: any partition that later touches the same (segment, column)
// re-pins the vector from the backing tier without decoding.
//
// Invalidation and heat stay global: a merge retiring a segment purges
// every hot tier and the backing tier (anything less would resurrect stale
// vectors), and SegmentHeat sums residency across all tiers so merge
// planning sees the whole node's cached footprint.
package exec

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"s2db/internal/colstore"
	"s2db/internal/core"
)

// PrimaryCachePartition is the reserved partition name for the primary
// cluster's share in WorkspaceCacheShares-style maps and stats.
const PrimaryCachePartition = "primary"

// sharedEntry is one demoted decoded vector resident in the backing tier.
type sharedEntry struct {
	key  vecKey
	ints []int64
	strs []string
	size int64
	el   *list.Element
}

// sharedTier is the group's second cache tier: an LRU of fully decoded
// vectors demoted from partition hot tiers. It has no single-flight
// machinery — entries arrive decoded and lookups either hit or miss.
type sharedTier struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	entries  map[vecKey]*sharedEntry
	lru      *list.List // of *sharedEntry, front = most recent

	hits, evictions, invalidations, demotions int64
}

func newSharedTier(maxBytes int64) *sharedTier {
	return &sharedTier{
		maxBytes: maxBytes,
		entries:  make(map[vecKey]*sharedEntry),
		lru:      list.New(),
	}
}

// put installs a demoted vector. A vector for a retired segment is refused
// (the retirement check runs under the tier lock, so it cannot interleave
// with an invalidation purge), as is a vector larger than the whole tier.
func (s *sharedTier) put(k vecKey, ints []int64, strs []string, size int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k.seg.Retired() || size > s.maxBytes {
		return false
	}
	if old, ok := s.entries[k]; ok {
		// Two partitions can demote the same key; keep the newer payload.
		s.lru.Remove(old.el)
		s.curBytes -= old.size
	}
	e := &sharedEntry{key: k, ints: ints, strs: strs, size: size}
	e.el = s.lru.PushFront(e)
	s.entries[k] = e
	s.curBytes += size
	s.demotions++
	for s.curBytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		v := back.Value.(*sharedEntry)
		s.lru.Remove(back)
		delete(s.entries, v.key)
		s.curBytes -= v.size
		s.evictions++
	}
	return true
}

// take removes and returns the vector for k, if resident. The caller
// installs it in its own hot tier (promotion).
func (s *sharedTier) take(k vecKey) (ints []int64, strs []string, size int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.entries[k]
	if !found {
		return nil, nil, 0, false
	}
	s.lru.Remove(e.el)
	delete(s.entries, k)
	s.curBytes -= e.size
	s.hits++
	return e.ints, e.strs, e.size, true
}

// peek returns the resident payload without removing or promoting it.
func (s *sharedTier) peek(k vecKey) (ints []int64, strs []string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, found := s.entries[k]; found {
		return e.ints, e.strs, true
	}
	return nil, nil, false
}

// invalidate drops every vector of the segment from the backing tier.
func (s *sharedTier) invalidate(seg *colstore.Segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.entries {
		if k.seg != seg {
			continue
		}
		s.lru.Remove(e.el)
		delete(s.entries, k)
		s.curBytes -= e.size
		s.invalidations++
	}
}

// heatBytes reports the segment's resident bytes in the backing tier.
func (s *sharedTier) heatBytes(seg *colstore.Segment) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for k, e := range s.entries {
		if k.seg == seg {
			n += e.size
		}
	}
	return n
}

// stats snapshots the backing tier as VecCacheStats: Hits counts
// promotions served, Misses/Waits stay zero (the tier has no decode path).
func (s *sharedTier) stats() VecCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return VecCacheStats{
		Hits:          s.hits,
		Evictions:     s.evictions,
		Invalidations: s.invalidations,
		Demotions:     s.demotions,
		Entries:       s.lru.Len(),
		Bytes:         s.curBytes,
	}
}

// VecCacheGroup partitions one decoded-vector cache budget across the
// primary cluster and its read-only workspaces. Each partition is a
// *VecCache hot tier with its own byte budget; all partitions share one
// backing tier for demoted vectors. A nil group (disabled cache) is valid:
// every method degrades to a no-op and Primary/Attach return nil handles.
type VecCacheGroup struct {
	totalBytes int64
	hotPool    int64 // budget split across partition hot tiers
	shares     map[string]float64
	shared     *sharedTier

	mu      sync.Mutex
	primary *VecCache
	wss     map[string]*VecCache
}

// ValidateCacheShares checks a WorkspaceCacheShares map: every share must
// be in (0, 1], the key must be a possible workspace name (non-empty), and
// the shares — including the reserved "primary" entry — must sum to at
// most 1.0, leaving the primary a non-empty remainder when it has no
// explicit share.
func ValidateCacheShares(shares map[string]float64) error {
	sum := 0.0
	for name, s := range shares {
		if name == "" {
			return fmt.Errorf("share for nonexistent workspace: name cannot be empty")
		}
		if s <= 0 {
			return fmt.Errorf("workspace %q: share %v must be > 0", name, s)
		}
		if s > 1 {
			return fmt.Errorf("workspace %q: share %v exceeds the whole budget", name, s)
		}
		sum += s
	}
	if sum > 1.0 {
		return fmt.Errorf("shares sum to %v, over the whole budget (1.0)", sum)
	}
	if _, ok := shares[PrimaryCachePartition]; !ok && len(shares) > 0 && sum >= 1.0 {
		return fmt.Errorf("workspace shares sum to %v, leaving the primary no budget", sum)
	}
	return nil
}

// NewVecCacheGroup builds a partitioned cache over totalBytes. shares maps
// workspace names (and optionally the reserved "primary") to fractions of
// the hot-tier pool; partitions without an explicit share split the
// unreserved remainder evenly, with the primary floored at half of it.
// totalBytes <= 0 disables the cache (nil group, no error); invalid shares
// error regardless so misconfiguration never passes silently.
func NewVecCacheGroup(totalBytes int, shares map[string]float64) (*VecCacheGroup, error) {
	if err := ValidateCacheShares(shares); err != nil {
		return nil, err
	}
	if totalBytes <= 0 {
		return nil, nil
	}
	g := &VecCacheGroup{
		totalBytes: int64(totalBytes),
		shares:     shares,
		wss:        make(map[string]*VecCache),
	}
	// A quarter of the budget backs the shared second tier; the rest is the
	// hot pool split across partitions.
	sharedBytes := g.totalBytes / 4
	g.hotPool = g.totalBytes - sharedBytes
	g.shared = newSharedTier(sharedBytes)
	g.primary = newVecCachePartition(PrimaryCachePartition, g)
	g.recomputeLocked()
	return g, nil
}

// Primary returns the primary cluster's partition handle (nil when the
// group is disabled).
func (g *VecCacheGroup) Primary() *VecCache {
	if g == nil {
		return nil
	}
	return g.primary
}

// AttachPartition provisions the hot-tier partition for a workspace and
// rebalances every partition's budget.
func (g *VecCacheGroup) AttachPartition(name string) (*VecCache, error) {
	if g == nil {
		return nil, nil
	}
	if name == "" {
		return nil, fmt.Errorf("veccache: workspace name cannot be empty")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.wss[name]; dup {
		return nil, fmt.Errorf("veccache: partition %q already attached", name)
	}
	p := newVecCachePartition(name, g)
	g.wss[name] = p
	g.recomputeLocked()
	return p, nil
}

// DetachPartition drops a workspace's partition and rebalances. The
// partition's entries are discarded, not demoted: its segments belong to
// the detached workspace's replica tables and can never be referenced
// again.
func (g *VecCacheGroup) DetachPartition(name string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.wss[name]
	if !ok {
		return
	}
	delete(g.wss, name)
	p.discardAll()
	g.recomputeLocked()
}

// recomputeLocked assigns hot-tier budgets: explicit shares are honored
// verbatim; the unreserved remainder is split evenly across the partitions
// without one, with the primary floored at half of that remainder so
// attaching workspaces can never squeeze the primary below it. Caller
// holds g.mu.
func (g *VecCacheGroup) recomputeLocked() {
	explicit := 0.0
	var unshared []*VecCache
	for name, p := range g.wss {
		if s, ok := g.shares[name]; ok {
			explicit += s
			p.resize(g.budget(s))
		} else {
			unshared = append(unshared, p)
		}
	}
	pf, pfExplicit := g.shares[PrimaryCachePartition]
	free := 1.0 - explicit
	if pfExplicit {
		free -= pf
	}
	if free < 0 {
		free = 0
	}
	if !pfExplicit {
		// Default split with a primary floor: the primary never drops below
		// half of the unreserved pool, however many workspaces attach.
		pf = free
		if n := len(unshared); n > 0 {
			pf = free / float64(1+n)
			if floor := free / 2; pf < floor {
				pf = floor
			}
		}
	}
	g.primary.resize(g.budget(pf))
	if len(unshared) > 0 {
		each := (free - pf) / float64(len(unshared))
		if pfExplicit {
			each = free / float64(len(unshared))
		}
		for _, p := range unshared {
			p.resize(g.budget(each))
		}
	}
}

// budget converts a fraction of the hot pool to bytes (minimum 1 so a
// partition's admission filter stays well-defined).
func (g *VecCacheGroup) budget(frac float64) int64 {
	b := int64(frac * float64(g.hotPool))
	if b < 1 {
		b = 1
	}
	return b
}

// partitions snapshots every hot tier (primary first).
func (g *VecCacheGroup) partitions() []*VecCache {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*VecCache, 0, 1+len(g.wss))
	out = append(out, g.primary)
	names := make([]string, 0, len(g.wss))
	for name := range g.wss {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, g.wss[name])
	}
	return out
}

// InvalidateSegment purges a retired segment's vectors from every tier:
// the retirement flag is set first, so a demotion or promotion racing the
// purge either completes before it (and is purged) or observes the flag
// under its tier lock and refuses the install — stale vectors cannot
// resurface in any tier (it implements core.DecodedVectorCache).
func (g *VecCacheGroup) InvalidateSegment(seg *colstore.Segment) {
	if g == nil {
		return
	}
	seg.Retire()
	for _, p := range g.partitions() {
		p.invalidateLocal(seg)
	}
	g.shared.invalidate(seg)
}

// SegmentHeat sums the segment's cached footprint across every hot tier
// and the backing tier, so merge planning sees node-wide residency (it
// implements core.VectorResidency).
func (g *VecCacheGroup) SegmentHeat(seg *colstore.Segment) (residentBytes, hits int64) {
	if g == nil {
		return 0, 0
	}
	for _, p := range g.partitions() {
		b, h := p.localHeat(seg)
		residentBytes += b
		hits += h
	}
	residentBytes += g.shared.heatBytes(seg)
	return residentBytes, hits
}

// PeekInts returns a resident decoded int vector from any tier without
// promoting it (it implements colstore.VectorSource for merge-time reuse).
func (g *VecCacheGroup) PeekInts(seg *colstore.Segment, col int) ([]int64, bool) {
	if g == nil {
		return nil, false
	}
	k := vecKey{seg: seg, col: col}
	for _, p := range g.partitions() {
		if v, ok := p.peekIntsLocal(k); ok {
			return v, true
		}
	}
	if ints, _, ok := g.shared.peek(k); ok && ints != nil {
		return ints, true
	}
	return nil, false
}

// PeekStrs is PeekInts for string columns.
func (g *VecCacheGroup) PeekStrs(seg *colstore.Segment, col int) ([]string, bool) {
	if g == nil {
		return nil, false
	}
	k := vecKey{seg: seg, col: col}
	for _, p := range g.partitions() {
		if v, ok := p.peekStrsLocal(k); ok {
			return v, true
		}
	}
	if _, strs, ok := g.shared.peek(k); ok && strs != nil {
		return strs, true
	}
	return nil, false
}

// GroupStats snapshots every tier: the primary and each workspace hot tier
// by name, plus the shared backing tier.
type GroupStats struct {
	Primary    VecCacheStats
	Shared     VecCacheStats
	Workspaces map[string]VecCacheStats
}

// Stats snapshots all tiers; zero-valued on a nil (disabled) group.
func (g *VecCacheGroup) Stats() GroupStats {
	gs := GroupStats{Workspaces: map[string]VecCacheStats{}}
	if g == nil {
		return gs
	}
	gs.Primary = g.primary.Stats()
	gs.Shared = g.shared.stats()
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, p := range g.wss {
		gs.Workspaces[name] = p.Stats()
	}
	return gs
}

// Total folds every tier's counters into one VecCacheStats.
func (s GroupStats) Total() VecCacheStats {
	t := s.Primary
	t.Add(s.Shared)
	for _, ws := range s.Workspaces {
		t.Add(ws)
	}
	return t
}

// The group satisfies the same maintenance contracts as a standalone cache.
var (
	_ core.DecodedVectorCache = (*VecCacheGroup)(nil)
	_ core.VectorResidency    = (*VecCacheGroup)(nil)
	_ colstore.VectorSource   = (*VecCacheGroup)(nil)
)
