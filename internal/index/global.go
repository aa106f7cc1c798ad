package index

import "sync"

// GlobalIndex is the global level of the two-level index (§4.1): one hash
// map from value hash to the ids of the segments holding that value.
// Registering a segment appends only its own hashes, so it costs
// O(distinct values of the segment) however many segments are already
// indexed. Dropping a segment is lazy: lookups skip its id at once, and
// its references stay in the map until dead references make up half of
// all references, when one pass purges them all — O(1) amortised per
// reference ("reads simply skip the references to deleted segments").
type GlobalIndex struct {
	mu sync.RWMutex
	m  map[uint64][]uint64 // value hash -> segment ids, in registration order
	// refs counts the references each registered segment holds in m; a
	// dropped segment moves to dead until the next purge.
	refs map[uint64]int
	dead map[uint64]struct{}
	// liveRefs and deadRefs total refs and dead.
	liveRefs, deadRefs int
	// purges counts dead-reference purges (tests assert registration
	// never triggers one).
	purges int
}

// NewGlobalIndex returns an empty index.
func NewGlobalIndex() *GlobalIndex {
	return &GlobalIndex{
		m:    make(map[uint64][]uint64),
		refs: make(map[uint64]int),
		dead: make(map[uint64]struct{}),
	}
}

// AddSegment registers a segment under each of its value hashes; hashes
// may repeat. Registering a segment that is already registered is a
// no-op; re-registering a dropped id purges its stale references first.
func (g *GlobalIndex) AddSegment(segID uint64, hashes []uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.refs[segID]; ok {
		return
	}
	if _, ok := g.dead[segID]; ok {
		g.purgeLocked()
	}
	n := 0
	for _, h := range hashes {
		l := g.m[h]
		// The call holds the lock, so a repeat of h within it finds
		// segID at the tail.
		if len(l) > 0 && l[len(l)-1] == segID {
			continue
		}
		g.m[h] = append(l, segID)
		n++
	}
	g.refs[segID] = n
	g.liveRefs += n
}

// DropSegment lazily removes a segment: lookups skip it immediately, and
// its references are purged once dead references reach half of all
// references.
func (g *GlobalIndex) DropSegment(segID uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.refs[segID]
	if !ok {
		return
	}
	delete(g.refs, segID)
	g.dead[segID] = struct{}{}
	g.liveRefs -= n
	g.deadRefs += n
	if g.deadRefs > 0 && g.deadRefs >= g.liveRefs {
		g.purgeLocked()
	}
}

// purgeLocked removes every dead reference in one pass over the map.
func (g *GlobalIndex) purgeLocked() {
	for h, l := range g.m {
		keep := l[:0]
		for _, s := range l {
			if _, d := g.dead[s]; !d {
				keep = append(keep, s)
			}
		}
		if len(keep) == 0 {
			delete(g.m, h)
			continue
		}
		g.m[h] = keep
	}
	clear(g.dead)
	g.deadRefs = 0
	g.purges++
}

// Lookup returns the ids of the live segments that may contain the value
// hash, each once, with the number of hash-table probes performed (always
// one; the experiments compare this against per-segment probing).
func (g *GlobalIndex) Lookup(h uint64) (segs []uint64, probes int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, s := range g.m[h] {
		if len(g.dead) > 0 {
			if _, d := g.dead[s]; d {
				continue
			}
		}
		segs = append(segs, s)
	}
	return segs, 1
}
