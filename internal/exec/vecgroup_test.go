package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// budgetOf reads a partition's current hot-tier budget.
func budgetOf(c *VecCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes
}

func TestValidateCacheShares(t *testing.T) {
	cases := []struct {
		name    string
		shares  map[string]float64
		wantErr string
	}{
		{"nil", nil, ""},
		{"valid", map[string]float64{"ws1": 0.3, "ws2": 0.2}, ""},
		{"with primary", map[string]float64{"primary": 0.5, "ws1": 0.5}, ""},
		{"empty name", map[string]float64{"": 0.5}, "nonexistent workspace"},
		{"zero share", map[string]float64{"ws1": 0}, "must be > 0"},
		{"negative share", map[string]float64{"ws1": -0.25}, "must be > 0"},
		{"single share over one", map[string]float64{"ws1": 1.5}, "exceeds the whole budget"},
		{"sum over one", map[string]float64{"ws1": 0.6, "ws2": 0.6}, "over the whole budget"},
		{"primary starved", map[string]float64{"ws1": 1.0}, "leaving the primary no budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateCacheShares(tc.shares)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	// Invalid shares fail group construction even when the cache is disabled.
	if _, err := NewVecCacheGroup(-1, map[string]float64{"": 0.5}); err == nil {
		t.Fatal("disabled group accepted invalid shares")
	}
	if g, err := NewVecCacheGroup(-1, nil); g != nil || err != nil {
		t.Fatalf("disabled group = (%v, %v), want (nil, nil)", g, err)
	}
}

func TestVecCacheGroupBudgetSplit(t *testing.T) {
	const total = 1 << 20
	g, err := NewVecCacheGroup(total, nil)
	if err != nil {
		t.Fatal(err)
	}
	hotPool := int64(total - total/4)

	// No workspaces: the primary owns the whole hot pool.
	if b := budgetOf(g.Primary()); b != hotPool {
		t.Fatalf("primary budget = %d, want %d", b, hotPool)
	}

	// One workspace: even split.
	ws1, err := g.AttachPartition("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if b := budgetOf(g.Primary()); b != hotPool/2 {
		t.Fatalf("primary budget with 1 ws = %d, want %d", b, hotPool/2)
	}
	if b := budgetOf(ws1); b != hotPool/2 {
		t.Fatalf("ws1 budget = %d, want %d", b, hotPool/2)
	}

	// Two workspaces: the primary floor holds it at half the pool, the
	// workspaces split the rest.
	ws2, err := g.AttachPartition("ws2")
	if err != nil {
		t.Fatal(err)
	}
	if b := budgetOf(g.Primary()); b != hotPool/2 {
		t.Fatalf("primary budget with 2 ws = %d, want floor %d", b, hotPool/2)
	}
	if b := budgetOf(ws1); b != hotPool/4 {
		t.Fatalf("ws1 budget = %d, want %d", b, hotPool/4)
	}
	if b := budgetOf(ws2); b != hotPool/4 {
		t.Fatalf("ws2 budget = %d, want %d", b, hotPool/4)
	}

	// Detach rebalances back to the even split.
	g.DetachPartition("ws2")
	if b := budgetOf(ws1); b != hotPool/2 {
		t.Fatalf("ws1 budget after detach = %d, want %d", b, hotPool/2)
	}

	// Duplicate attach is rejected; empty names are rejected.
	if _, err := g.AttachPartition("ws1"); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
	if _, err := g.AttachPartition(""); err == nil {
		t.Fatal("empty workspace name accepted")
	}
}

func TestVecCacheGroupExplicitShares(t *testing.T) {
	const total = 1 << 20
	g, err := NewVecCacheGroup(total, map[string]float64{"ws1": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	hotPool := float64(total - total/4)
	ws1, err := g.AttachPartition("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if b := budgetOf(ws1); b != int64(0.25*hotPool) {
		t.Fatalf("explicit ws1 share = %d, want %d", b, int64(0.25*hotPool))
	}
	// The primary keeps the unreserved remainder.
	if b := budgetOf(g.Primary()); b != int64(0.75*hotPool) {
		t.Fatalf("primary budget = %d, want %d", b, int64(0.75*hotPool))
	}
}

func TestVecCacheGroupDemoteThenPromote(t *testing.T) {
	// 16KB total: 4KB shared tier, 12KB hot pool -> 6KB per partition once a
	// workspace attaches. 64-row segments decode to 512-byte int vectors.
	g, err := NewVecCacheGroup(16<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := g.AttachPartition("ws")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newCachedTable(t, 64, 64*20, g.Primary())
	view := tbl.Snapshot()
	if len(view.Segs) < 14 {
		t.Fatalf("need enough segments to overflow a 6KB tier, got %d", len(view.Segs))
	}

	// A cold sweep on the workspace overflows its hot tier: the overflow
	// demotes into the shared tier instead of being dropped.
	var wsStats ScanStats
	for _, m := range view.Segs {
		ws.Ints(m, 2, &wsStats)
	}
	wss := ws.Stats()
	if wss.Demotions == 0 {
		t.Fatalf("workspace sweep demoted nothing: %+v", wss)
	}
	shared := g.Stats().Shared
	if shared.Entries == 0 || shared.Bytes == 0 {
		t.Fatalf("shared tier empty after demotions: %+v", shared)
	}

	// The primary touching the demoted vectors promotes them without a
	// decode: shared hits appear, and total decodes stay below a full
	// re-decode of the table.
	var pStats ScanStats
	for _, m := range view.Segs {
		g.Primary().Ints(m, 2, &pStats)
	}
	if pStats.VecCacheSharedHits == 0 {
		t.Fatalf("no promotions from the shared tier: %+v", pStats)
	}
	if pStats.VecDecodes >= int64(len(view.Segs)) {
		t.Fatalf("primary re-decoded everything (%d/%d) despite the shared tier",
			pStats.VecDecodes, len(view.Segs))
	}
	ps := g.Primary().Stats()
	if ps.SharedHits != pStats.VecCacheSharedHits {
		t.Fatalf("partition SharedHits %d != scan counter %d", ps.SharedHits, pStats.VecCacheSharedHits)
	}
}

func TestVecCacheGroupInvalidateAllTiers(t *testing.T) {
	g, err := NewVecCacheGroup(16<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := g.AttachPartition("ws")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newCachedTable(t, 64, 64*20, g.Primary())
	view := tbl.Snapshot()

	// Populate the workspace tier (overflow fills the shared tier) and the
	// primary tier.
	for _, m := range view.Segs {
		ws.Ints(m, 2, nil)
	}
	for _, m := range view.Segs {
		g.Primary().Ints(m, 2, nil)
	}

	// Invalidating through a partition handle (what core's dropSegment
	// holds) must purge the segment from every tier.
	seg := view.Segs[0].Seg
	ws.InvalidateSegment(seg)
	if b, h := g.Primary().SegmentHeat(seg); b != 0 || h != 0 {
		t.Fatalf("heat after invalidation = (%d, %d), want (0, 0)", b, h)
	}
	if _, ok := g.PeekInts(seg, 2); ok {
		t.Fatal("vector survived invalidation in some tier")
	}
	if !seg.Retired() {
		t.Fatal("invalidation did not set the retirement flag")
	}

	// A retired segment can never re-enter any tier: a fresh decode serves
	// the caller but installs nothing.
	var st ScanStats
	g.Primary().Ints(view.Segs[0], 2, &st)
	if st.VecDecodes != 1 {
		t.Fatalf("post-retirement read should decode fresh: %+v", st)
	}
	if _, ok := g.PeekInts(seg, 2); ok {
		t.Fatal("retired segment was re-installed")
	}
}

// TestVecCacheGroupEvictionRacesInvalidation hammers the promote/demote
// paths of two partitions with tiny budgets while segments are concurrently
// retired, asserting the two safety invariants: tier byte accounting never
// goes negative, and a retired segment's vectors are never served from (or
// re-installed into) any tier.
func TestVecCacheGroupEvictionRacesInvalidation(t *testing.T) {
	g, err := NewVecCacheGroup(12<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := g.AttachPartition("ws")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newCachedTable(t, 64, 64*24, g.Primary())
	view := tbl.Snapshot()
	segs := view.Segs

	checkBytes := func() {
		gs := g.Stats()
		for name, s := range map[string]VecCacheStats{
			"primary": gs.Primary, "shared": gs.Shared, "ws": gs.Workspaces["ws"],
		} {
			if s.Bytes < 0 {
				t.Errorf("%s tier bytes went negative: %d", name, s.Bytes)
			}
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		part := g.Primary()
		if i%2 == 1 {
			part = ws
		}
		wg.Add(1)
		go func(part *VecCache) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, m := range segs {
					if v := part.Ints(m, 2, nil); len(v) != m.Seg.NumRows {
						t.Errorf("short vector: %d != %d", len(v), m.Seg.NumRows)
						return
					}
				}
			}
		}(part)
	}

	// Retire the first half of the segments while the readers hammer all of
	// them; after each invalidation the segment must be gone from every tier
	// and stay gone (promotion/demotion cannot resurrect it).
	for i := 0; i < len(segs)/2; i++ {
		seg := segs[i].Seg
		g.InvalidateSegment(seg)
		if _, ok := g.PeekInts(seg, 2); ok {
			t.Errorf("segment %d resident right after invalidation", i)
		}
		checkBytes()
	}
	close(stop)
	wg.Wait()

	// With all readers quiesced, retired segments must be absent from every
	// tier even after the post-invalidation reader traffic.
	for i := 0; i < len(segs)/2; i++ {
		if _, ok := g.PeekInts(segs[i].Seg, 2); ok {
			t.Errorf("retired segment %d resurrected by racing promote/demote", i)
		}
		if b, _ := g.SegmentHeat(segs[i].Seg); b != 0 {
			t.Errorf("retired segment %d still has %d resident bytes", i, b)
		}
	}
	checkBytes()

	// Live segments keep working and the tiers stay within budget.
	var st ScanStats
	for i := len(segs) / 2; i < len(segs); i++ {
		g.Primary().Ints(segs[i], 2, &st)
	}
	gs := g.Stats()
	if total := gs.Primary.Bytes + gs.Shared.Bytes + gs.Workspaces["ws"].Bytes; total > 12<<10 {
		t.Fatalf("tiers exceed the group budget: %d > %d", total, 12<<10)
	}
}

func TestVecCacheGroupDetachDiscardsWithoutDemoting(t *testing.T) {
	g, err := NewVecCacheGroup(16<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := g.AttachPartition("ws")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newCachedTable(t, 64, 64*4, g.Primary())
	view := tbl.Snapshot()
	for _, m := range view.Segs {
		ws.Ints(m, 2, nil)
	}
	before := g.Stats().Shared.Entries
	g.DetachPartition("ws")
	if got := ws.Stats().Entries; got != 0 {
		t.Fatalf("detached partition still holds %d entries", got)
	}
	if after := g.Stats().Shared.Entries; after != before {
		t.Fatalf("detach demoted into the shared tier: %d -> %d entries", before, after)
	}
	if _, ok := g.Stats().Workspaces["ws"]; ok {
		t.Fatal("detached workspace still reported in group stats")
	}
}

func TestVecCacheGroupStatsTotalFoldsTiers(t *testing.T) {
	g, err := NewVecCacheGroup(16<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := g.AttachPartition("ws")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newCachedTable(t, 64, 64*8, g.Primary())
	view := tbl.Snapshot()
	for _, m := range view.Segs {
		ws.Ints(m, 2, nil)
		g.Primary().Ints(m, 2, nil)
	}
	gs := g.Stats()
	total := gs.Total()
	wantHits := gs.Primary.Hits + gs.Shared.Hits + gs.Workspaces["ws"].Hits
	if total.Hits != wantHits {
		t.Fatalf("Total().Hits = %d, want %d", total.Hits, wantHits)
	}
	wantBytes := gs.Primary.Bytes + gs.Shared.Bytes + gs.Workspaces["ws"].Bytes
	if total.Bytes != wantBytes {
		t.Fatalf("Total().Bytes = %d, want %d", total.Bytes, wantBytes)
	}
	if s := fmt.Sprint(total.Misses); s == "0" {
		t.Fatalf("fold lost the miss counters: %+v", total)
	}
}
