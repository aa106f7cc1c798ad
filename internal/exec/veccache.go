// Decoded-vector cache: the second cache tier of the separated-storage
// design. Tier one (internal/blob.FileCache, §3.1) keeps *encoded* segment
// files on local storage; this tier keeps *decoded* column vectors in
// memory, shared across queries and across the parallel scheduler's
// workers, so repeated scans of immutable segments skip DecodeAll entirely
// (the lesson PolarDB-IMCI draws at production scale: cache in-memory
// column units, not just raw files). Segments are immutable (§2.1.2), so a
// cached vector never goes stale — entries are dropped only when an LSM
// merge retires their segment or the LRU evicts them under memory pressure.
package exec

import (
	"container/list"
	"sync"

	"s2db/internal/colstore"
	"s2db/internal/core"
	"s2db/internal/types"
)

// VecCacheStats snapshots the cache-wide counters.
type VecCacheStats struct {
	// Hits served a fully decoded vector without any decode work.
	Hits int64
	// Misses decoded the vector (the single-flight owner's count).
	Misses int64
	// Waits joined another goroutine's in-flight decode instead of
	// duplicating it (single-flight sharing).
	Waits int64
	// Evictions counts vectors dropped under memory pressure.
	Evictions int64
	// Invalidations counts vectors dropped because a merge retired their
	// segment.
	Invalidations int64
	// AdmissionRejects counts vectors served uncached because they failed
	// the size-class admission filter (larger than half the budget).
	AdmissionRejects int64
	// Entries and Bytes describe the current residency.
	Entries int
	Bytes   int64
	// Budget is the cache's byte bound: for a group partition, its
	// tenant's share of the group's bytes.
	Budget int64
}

// Add folds another partition's counters into s (used to total a cache
// group).
func (s *VecCacheStats) Add(o VecCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Waits += o.Waits
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.AdmissionRejects += o.AdmissionRejects
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.Budget += o.Budget
}

// HitRate returns Hits+Waits over all lookups (waits share a decode, so
// they count as serviced-without-own-decode).
func (s VecCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Waits
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Waits) / float64(total)
}

// vecKey identifies one decoded column vector. Segments are keyed by
// pointer identity: IDs are only unique within one table partition, while
// the Segment object is unique process-wide and immutable, and keeping it
// as a map key pins it for exactly as long as the cache holds its vectors.
type vecKey struct {
	seg *colstore.Segment
	col int
}

// vecEntry is one cached (or in-flight) decoded vector. Payload fields are
// written by the single decoding goroutine before ready is closed and never
// mutated afterwards; waiters read them only after <-ready.
type vecEntry struct {
	key   vecKey
	vals  any // []int64, []float64 or []string, by the column's type
	size  int64
	hits  int64         // guarded by VecCache.mu; feeds SegmentHeat
	done  bool          // guarded by VecCache.mu
	ready chan struct{} // closed once the decode has published
	el    *list.Element // non-nil while resident in the LRU
}

// The cache plugs into table maintenance through three optional contracts:
// merge-time invalidation, cache-aware merge planning, and decoded-vector
// reuse inside the merger itself.
var (
	_ core.DecodedVectorCache = (*VecCache)(nil)
	_ core.VectorResidency    = (*VecCache)(nil)
	_ colstore.VectorSource   = (*VecCache)(nil)
)

// VecCache is a size-bounded, concurrency-safe LRU of decoded column
// vectors with single-flight decode: when N workers hit the same cold
// (segment, column) pair, one decodes and the rest wait and share the
// result. A nil *VecCache is valid and disables sharing (scans fall back
// to their private per-scan decode caches).
//
// As a partition of a VecCacheGroup it is the same LRU; the group only
// names it and resizes its budget as workspaces attach and detach.
type VecCache struct {
	name string // partition name ("" for a standalone cache)

	mu         sync.Mutex
	maxBytes   int64
	admitLimit int64 // largest entry the size-class filter admits
	entries    map[vecKey]*vecEntry
	lru        *list.List // of *vecEntry, front = most recent
	curBytes   int64

	hits, misses, waits, evictions, invalidations, admissionRejects int64
}

// NewVecCache returns a standalone cache bounded to maxBytes of decoded
// vector data, or nil (cache disabled) when maxBytes <= 0.
func NewVecCache(maxBytes int) *VecCache {
	if maxBytes <= 0 {
		return nil
	}
	return &VecCache{
		maxBytes:   int64(maxBytes),
		admitLimit: int64(maxBytes) / 2,
		entries:    make(map[vecKey]*vecEntry),
		lru:        list.New(),
	}
}

// PartitionName returns the group partition this cache serves ("" for a
// standalone cache).
func (c *VecCache) PartitionName() string {
	if c == nil {
		return ""
	}
	return c.name
}

// resize rebudgets the cache, evicting overflow.
func (c *VecCache) resize(maxBytes int64) {
	c.mu.Lock()
	c.maxBytes = maxBytes
	c.admitLimit = maxBytes / 2
	c.evictLocked(nil)
	c.mu.Unlock()
}

// discardAll drops every resident entry — used when the partition's
// workspace detaches and its segments can never be read again.
func (c *VecCache) discardAll() {
	c.mu.Lock()
	for k, e := range c.entries {
		if e.el != nil {
			c.lru.Remove(e.el)
			e.el = nil
			c.curBytes -= e.size
		}
		delete(c.entries, k)
	}
	c.mu.Unlock()
}

// InvalidateSegment drops every vector of the segment, called when an LSM
// merge retires it (it implements core.DecodedVectorCache). The retirement
// flag is set first, so a reader on an older snapshot that asks for the
// segment after the purge is served a fresh decode that publish never
// installs. In-flight decodes for the segment are detached the same way:
// the decoder and its waiters still get their vector — correct for their
// older snapshot, since segment payloads are immutable — but the result is
// not installed in the LRU.
func (c *VecCache) InvalidateSegment(seg *colstore.Segment) {
	if c == nil {
		return
	}
	seg.Retire()
	c.mu.Lock()
	for k, e := range c.entries {
		if k.seg != seg {
			continue
		}
		if e.el != nil {
			c.lru.Remove(e.el)
			e.el = nil
			c.curBytes -= e.size
		}
		delete(c.entries, k)
		c.invalidations++
	}
	c.mu.Unlock()
}

// cachedVec returns the decoded vector for the column as T, decoding at
// most once process-wide per (segment, column). st, when non-nil, receives
// the per-scan hit/miss/wait counters.
func cachedVec[T colValue](c *VecCache, meta *colstore.Meta, col int, st *ScanStats) []T {
	e, owner := c.acquire(vecKey{seg: meta.Seg, col: col}, st)
	if !owner {
		return e.vals.([]T)
	}
	v := decodeVec[T](meta, col, st)
	e.vals = v
	c.publish(e, vecBytes(v), st)
	return v
}

// acquire resolves the entry for k and reports whether the caller owns the
// decode (single-flight). When owner is false the entry is fully decoded on
// return — the caller may have blocked on a concurrent decoder.
func (c *VecCache) acquire(k vecKey, st *ScanStats) (*vecEntry, bool) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		if e.done {
			if e.el != nil {
				c.lru.MoveToFront(e.el)
			}
			c.hits++
			e.hits++
			if st != nil {
				st.VecCacheHits++
			}
			c.mu.Unlock()
			return e, false
		}
		// Another goroutine is decoding this vector right now: wait for it
		// instead of duplicating the work.
		c.waits++
		e.hits++
		if st != nil {
			st.VecCacheWaits++
		}
		ready := e.ready
		c.mu.Unlock()
		<-ready
		return e, false
	}
	e := &vecEntry{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.misses++
	if st != nil {
		st.VecCacheMisses++
	}
	c.mu.Unlock()
	return e, true
}

// publish installs a decoded entry in the LRU (unless it was invalidated
// mid-decode or exceeds the whole budget) and releases its waiters. The
// payload fields must be set before publish is called.
func (c *VecCache) publish(e *vecEntry, size int64, st *ScanStats) {
	c.mu.Lock()
	e.size = size
	e.done = true
	switch {
	case c.entries[e.key] != e:
		// Invalidated (or superseded) while decoding: serve the waiters but
		// do not install.
	case e.key.seg.Retired():
		// The segment was retired while decoding; the map-identity check
		// above usually catches this, but the flag also covers a reader on
		// an older snapshot whose entry registered after the purge.
		delete(c.entries, e.key)
	case size > c.admitLimit:
		// Size-class admission filter: installing a vector bigger than half
		// the budget (e.g. one near-budget wide-string column) would evict
		// many small hot vectors to keep a single entry. Serve it uncached.
		delete(c.entries, e.key)
		c.admissionRejects++
	default:
		e.el = c.lru.PushFront(e)
		c.curBytes += size
		c.evictLocked(st)
	}
	c.mu.Unlock()
	close(e.ready)
}

// evictLocked drops least-recently-used vectors until the cache fits.
// Caller holds mu.
func (c *VecCache) evictLocked(st *ScanStats) {
	for c.curBytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*vecEntry)
		c.lru.Remove(back)
		e.el = nil
		c.curBytes -= e.size
		if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
		c.evictions++
		if st != nil {
			st.VecCacheEvictions++
		}
	}
}

// PeekInts returns the resident decoded vector for (seg, col) without
// promoting the entry or counting a hit. The merger uses it to reuse
// cache-resident vectors for segments it is about to retire: touching the
// LRU or the heat counters would make the merge itself inflate the
// "hotness" of runs it reads, defeating cache-aware planning. Float64
// columns are cached as floats, not bits, so only Int64 columns are served.
func (c *VecCache) PeekInts(seg *colstore.Segment, col int) ([]int64, bool) {
	return peekVec[int64](c, seg, col)
}

// PeekStrs is PeekInts for string columns.
func (c *VecCache) PeekStrs(seg *colstore.Segment, col int) ([]string, bool) {
	return peekVec[string](c, seg, col)
}

func peekVec[T colValue](c *VecCache, seg *colstore.Segment, col int) ([]T, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[vecKey{seg: seg, col: col}]; ok && e.done {
		v, ok := e.vals.([]T)
		return v, ok
	}
	return nil, false
}

// SegmentHeat reports the segment's cache footprint — resident decoded
// bytes and accumulated hits across its vectors — so the merge planner can
// prefer retiring cold runs (it implements core.VectorResidency). Safe on a
// nil (disabled) cache.
func (c *VecCache) SegmentHeat(seg *colstore.Segment) (residentBytes, hits int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if k.seg != seg || !e.done {
			continue
		}
		if e.el != nil {
			residentBytes += e.size
		}
		hits += e.hits
	}
	return residentBytes, hits
}

// Stats snapshots the cache counters; safe on a nil (disabled) cache.
func (c *VecCache) Stats() VecCacheStats {
	if c == nil {
		return VecCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return VecCacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		Waits:            c.waits,
		Evictions:        c.evictions,
		Invalidations:    c.invalidations,
		AdmissionRejects: c.admissionRejects,
		Entries:          c.lru.Len(),
		Bytes:            c.curBytes,
		Budget:           c.maxBytes,
	}
}

// --- scan-path buffer pools --------------------------------------------------

// rowPool recycles materializer row buffers. Rows handed to scan callbacks
// are only valid until the callback returns (the documented iterator
// contract), so the scan recycles them once a segment's callback finishes.
var rowPool = sync.Pool{New: func() any { return new(types.Row) }}

// getRow borrows a zeroed row buffer of length n.
func getRow(n int) *types.Row {
	p := rowPool.Get().(*types.Row)
	r := *p
	if cap(r) < n {
		r = make(types.Row, n)
	}
	r = r[:n]
	for i := range r {
		r[i] = types.Value{}
	}
	*p = r
	return p
}

// putRow returns a row buffer to the pool.
func putRow(p *types.Row) { rowPool.Put(p) }
