package exec

import (
	"sync"
	"testing"

	"s2db/internal/colstore"
	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// newCachedTable builds the standard test table with a decoded-vector cache
// wired through core.Config, all rows flushed to segments.
func newCachedTable(t testing.TB, maxSegRows, rows int, cache *VecCache) *core.Table {
	t.Helper()
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "grp", Type: types.String},
		types.Column{Name: "val", Type: types.Int64},
		types.Column{Name: "price", Type: types.Float64},
	)
	s.UniqueKey = []int{0}
	s.SortKey = 2
	cfg := core.Config{MaxSegmentRows: maxSegRows}
	if cache != nil {
		cfg.Tenant.Cache = cache
	}
	tbl, err := core.NewTable("t", s, cfg,
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tbl, rows, true)
	return tbl
}

func TestVecCacheSingleFlightDecode(t *testing.T) {
	cache := NewVecCache(1 << 20)
	tbl := newCachedTable(t, 256, 256, cache)
	meta := tbl.Snapshot().Segs[0]

	const n = 16
	var wg sync.WaitGroup
	perStats := make([]ScanStats, n)
	vecs := make([][]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vecs[i] = cachedVec[int64](cache, meta, 2, &perStats[i])
		}(i)
	}
	wg.Wait()

	var decodes, hits, misses, waits int64
	for i := range perStats {
		decodes += perStats[i].VecDecodes
		hits += perStats[i].VecCacheHits
		misses += perStats[i].VecCacheMisses
		waits += perStats[i].VecCacheWaits
	}
	if decodes != 1 || misses != 1 {
		t.Fatalf("decodes=%d misses=%d, want 1/1 (single-flight)", decodes, misses)
	}
	if hits+waits != n-1 {
		t.Fatalf("hits=%d waits=%d, want hits+waits=%d", hits, waits, n-1)
	}
	for i := range vecs {
		if len(vecs[i]) != meta.Seg.NumRows {
			t.Fatalf("goroutine %d got %d values, want %d", i, len(vecs[i]), meta.Seg.NumRows)
		}
		if &vecs[i][0] != &vecs[0][0] {
			t.Fatal("goroutines received different vectors for the same key")
		}
	}
}

func TestVecCacheEvictionBounded(t *testing.T) {
	// Budget far smaller than the decoded working set: every segment holds
	// 64 rows => 512 bytes per int vector; cap at ~3 vectors.
	cache := NewVecCache(1600)
	tbl := newCachedTable(t, 64, 640, cache)
	view := tbl.Snapshot()
	var st ScanStats
	for _, m := range view.Segs {
		cachedVec[int64](cache, m, 0, &st)
		cachedVec[int64](cache, m, 2, &st)
	}
	s := cache.Stats()
	if s.Bytes > 1600 {
		t.Fatalf("cache holds %d bytes, budget 1600", s.Bytes)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite pressure")
	}
	if s.Entries == 0 {
		t.Fatal("cache empty after decodes that fit the budget")
	}
}

func TestVecCacheOversizedVectorNotInstalled(t *testing.T) {
	cache := NewVecCache(8) // smaller than any decoded vector
	tbl := newCachedTable(t, 64, 64, cache)
	meta := tbl.Snapshot().Segs[0]
	v := cachedVec[int64](cache, meta, 2, nil)
	if len(v) != meta.Seg.NumRows {
		t.Fatalf("got %d values, want %d", len(v), meta.Seg.NumRows)
	}
	s := cache.Stats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("oversized vector installed: %+v", s)
	}
	// The key must not stay registered: the next lookup decodes again.
	var st ScanStats
	cachedVec[int64](cache, meta, 2, &st)
	if st.VecCacheMisses != 1 || st.VecDecodes != 1 {
		t.Fatalf("second lookup after oversized publish: %+v", st)
	}
}

func TestVecCacheAdmissionFilterProtectsHotSet(t *testing.T) {
	// Budget holds the whole hot set comfortably: 64-row segments decode to
	// 512-byte int vectors.
	cache := NewVecCache(1 << 14)
	tbl := newCachedTable(t, 64, 512, cache)
	view := tbl.Snapshot()

	// Warm the hot set.
	var st ScanStats
	for _, m := range view.Segs {
		cachedVec[int64](cache, m, 2, &st)
	}
	hot := cache.Stats()
	if hot.Entries != len(view.Segs) || hot.Evictions != 0 {
		t.Fatalf("hot set did not fully install: %+v", hot)
	}

	// A near-budget wide-string vector must be rejected by the size-class
	// admission filter instead of evicting the hot set.
	e, owner := cache.acquire(vecKey{seg: view.Segs[0].Seg, col: 1}, nil)
	if !owner {
		t.Fatal("synthetic wide vector should own its decode")
	}
	e.vals = []string{"wide"}
	cache.publish(e, int64(cache.maxBytes)-64, nil)

	s := cache.Stats()
	if s.AdmissionRejects != 1 {
		t.Fatalf("admission rejects = %d, want 1", s.AdmissionRejects)
	}
	if s.Entries != hot.Entries || s.Evictions != 0 {
		t.Fatalf("oversized insert disturbed the hot set: %+v (was %+v)", s, hot)
	}

	// The hot set must still be resident: re-reads hit without decoding.
	var rest ScanStats
	for _, m := range view.Segs {
		cachedVec[int64](cache, m, 2, &rest)
	}
	if rest.VecDecodes != 0 || rest.VecCacheMisses != 0 {
		t.Fatalf("hot set was evicted by rejected insert: %+v", rest)
	}

	// The rejected key must not stay registered: a later lookup decodes
	// fresh rather than waiting on a phantom in-flight entry.
	var again ScanStats
	cachedVec[string](cache, view.Segs[0], 1, &again)
	if again.VecCacheMisses != 1 || again.VecDecodes != 1 {
		t.Fatalf("rejected key stayed registered: %+v", again)
	}
}

func TestVecCacheInvalidateMidDecode(t *testing.T) {
	cache := NewVecCache(1 << 20)
	tbl := newCachedTable(t, 128, 128, cache)
	meta := tbl.Snapshot().Segs[0]
	k := vecKey{seg: meta.Seg, col: 2}

	e, owner := cache.acquire(k, nil)
	if !owner {
		t.Fatal("first acquire should own the decode")
	}
	// A merge retires the segment while the decode is in flight.
	cache.InvalidateSegment(meta.Seg)
	v := decodeVec[int64](meta, 2, nil)
	e.vals = v
	cache.publish(e, vecBytes(v), nil)

	s := cache.Stats()
	if s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("invalidated in-flight entry was installed: %+v", s)
	}
	// Waiters that grabbed e before the invalidation still get the vector.
	<-e.ready
	if len(e.vals.([]int64)) != meta.Seg.NumRows {
		t.Fatal("in-flight waiters lost the decoded payload")
	}
}

func TestVecCacheInvalidateRacesReaders(t *testing.T) {
	cache := NewVecCache(1 << 20)
	tbl := newCachedTable(t, 64, 512, cache)
	view := tbl.Snapshot()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, m := range view.Segs {
					v := cachedVec[int64](cache, m, 2, nil)
					if len(v) != m.Seg.NumRows {
						t.Errorf("short vector: %d != %d", len(v), m.Seg.NumRows)
						return
					}
					s := cachedVec[string](cache, m, 1, nil)
					if len(s) != m.Seg.NumRows {
						t.Errorf("short string vector: %d != %d", len(s), m.Seg.NumRows)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		for _, m := range view.Segs {
			cache.InvalidateSegment(m.Seg)
		}
	}
	close(stop)
	wg.Wait()
}

func TestScanWarmCacheSkipsDecodes(t *testing.T) {
	cache := NewVecCache(1 << 20)
	tbl := newCachedTable(t, 64, 500, cache)
	view := tbl.Snapshot()
	aggs := []AggSpec{{Func: Sum, Col: 2}}

	cold := NewScan(view, nil)
	first := Aggregate(view, nil, nil, aggs, cold)
	if cold.Stats.VecDecodes == 0 || cold.Stats.VecCacheMisses == 0 {
		t.Fatalf("cold scan did not populate the cache: %+v", cold.Stats)
	}

	warm := NewScan(view, nil)
	second := Aggregate(view, nil, nil, aggs, warm)
	if warm.Stats.VecDecodes != 0 {
		t.Fatalf("warm scan decoded %d columns, want 0: %+v", warm.Stats.VecDecodes, warm.Stats)
	}
	if warm.Stats.VecCacheHits == 0 {
		t.Fatalf("warm scan saw no cache hits: %+v", warm.Stats)
	}
	if first[0][0] != second[0][0] {
		t.Fatalf("cached scan changed the result: %v vs %v", first[0][0], second[0][0])
	}
}

func TestParallelScansShareCache(t *testing.T) {
	cache := NewVecCache(1 << 20)
	tbl := newCachedTable(t, 64, 400, cache)
	view := tbl.Snapshot()
	aggs := []AggSpec{{Func: Sum, Col: 2}}

	const n = 8
	var wg sync.WaitGroup
	perStats := make([]ScanStats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scan := NewScan(view, nil)
			Aggregate(view, nil, nil, aggs, scan)
			perStats[i] = scan.Stats
		}(i)
	}
	wg.Wait()
	var decodes int64
	for i := range perStats {
		decodes += perStats[i].VecDecodes
	}
	// Single-flight: every (segment, column) decodes exactly once no matter
	// how many scans raced on it.
	want := int64(len(view.Segs))
	if decodes != want {
		t.Fatalf("parallel scans decoded %d vectors, want %d", decodes, want)
	}
}

// recordingCache records invalidated segments, standing in for the real
// cache in the merge-invalidation test.
type recordingCache struct {
	mu   sync.Mutex
	segs []*colstore.Segment
}

func (r *recordingCache) InvalidateSegment(seg *colstore.Segment) {
	r.mu.Lock()
	r.segs = append(r.segs, seg)
	r.mu.Unlock()
}

func TestMergeInvalidatesRetiredSegments(t *testing.T) {
	rec := &recordingCache{}
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "grp", Type: types.String},
		types.Column{Name: "val", Type: types.Int64},
		types.Column{Name: "price", Type: types.Float64},
	)
	s.UniqueKey = []int{0}
	s.SortKey = 2
	tbl, err := core.NewTable("t", s, core.Config{MaxSegmentRows: 64, Tenant: core.Tenant{Cache: rec}},
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tbl, 512, true)
	before := tbl.Snapshot().Segs
	if len(before) < 2 {
		t.Fatalf("need multiple segments to merge, got %d", len(before))
	}
	if !tbl.Merge() {
		t.Fatal("merge did not run")
	}
	rec.mu.Lock()
	invalidated := len(rec.segs)
	rec.mu.Unlock()
	if invalidated == 0 {
		t.Fatal("merge retired segments without invalidating the vector cache")
	}
}

func TestVecCachePeekAndSegmentHeat(t *testing.T) {
	cache := NewVecCache(1 << 20)
	tbl := newCachedTable(t, 256, 256, cache)
	meta := tbl.Snapshot().Segs[0]

	// Warm column 2 with one miss + two hits.
	v := cachedVec[int64](cache, meta, 2, nil)
	cachedVec[int64](cache, meta, 2, nil)
	cachedVec[int64](cache, meta, 2, nil)

	// Peek returns the very same resident vector without counting a hit.
	before := cache.Stats()
	pv, ok := cache.PeekInts(meta.Seg, 2)
	if !ok || &pv[0] != &v[0] {
		t.Fatalf("PeekInts: ok=%v, vector shared=%v", ok, ok && &pv[0] == &v[0])
	}
	if _, ok := cache.PeekInts(meta.Seg, 0); ok {
		t.Fatal("PeekInts hit a column that was never decoded")
	}
	if _, ok := cache.PeekStrs(meta.Seg, 1); ok {
		t.Fatal("PeekStrs hit a column that was never decoded")
	}
	after := cache.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Peek perturbed stats: %+v -> %+v", before, after)
	}

	bytes, hits := cache.SegmentHeat(meta.Seg)
	if bytes <= 0 {
		t.Fatalf("SegmentHeat bytes = %d, want > 0", bytes)
	}
	if hits != 2 {
		t.Fatalf("SegmentHeat hits = %d, want 2 (peeks must not count)", hits)
	}

	// Cold segment: zero heat. Nil cache: everything degrades safely.
	other := tbl.Snapshot().Segs[len(tbl.Snapshot().Segs)-1]
	if other.Seg != meta.Seg {
		if b, h := cache.SegmentHeat(other.Seg); b != 0 || h != 0 {
			t.Fatalf("cold segment heat = (%d, %d), want (0, 0)", b, h)
		}
	}
	var nilCache *VecCache
	if _, ok := nilCache.PeekInts(meta.Seg, 2); ok {
		t.Fatal("nil cache PeekInts returned ok")
	}
	if b, h := nilCache.SegmentHeat(meta.Seg); b != 0 || h != 0 {
		t.Fatal("nil cache SegmentHeat nonzero")
	}
}

func TestVecCacheInvalidateDropsHeat(t *testing.T) {
	cache := NewVecCache(1 << 20)
	tbl := newCachedTable(t, 256, 256, cache)
	meta := tbl.Snapshot().Segs[0]
	cachedVec[int64](cache, meta, 2, nil)
	cachedVec[int64](cache, meta, 2, nil)
	cache.InvalidateSegment(meta.Seg)
	if b, h := cache.SegmentHeat(meta.Seg); b != 0 || h != 0 {
		t.Fatalf("heat survived invalidation: (%d, %d)", b, h)
	}
	if !meta.Seg.Retired() {
		t.Fatal("invalidation did not set the retirement flag")
	}

	// A reader on an older snapshot still gets the vector, decoded fresh,
	// but the retired segment never re-enters the cache.
	var st ScanStats
	if v := cachedVec[int64](cache, meta, 2, &st); len(v) != meta.Seg.NumRows || st.VecDecodes != 1 {
		t.Fatalf("post-retirement read: %d rows, %+v", len(v), st)
	}
	if _, ok := cache.PeekInts(meta.Seg, 2); ok {
		t.Fatal("retired segment was re-installed")
	}
}
