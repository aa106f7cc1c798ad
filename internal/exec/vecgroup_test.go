package exec

import (
	"testing"
)

// budgetOf reads a partition's current byte budget.
func budgetOf(c *VecCache) int64 { return c.Stats().Budget }

func TestVecCacheGroupBudgetSplit(t *testing.T) {
	const total = 1 << 20
	g := NewVecCacheGroup(total, "primary", nil)
	if g.Primary().PartitionName() != "primary" {
		t.Fatalf("primary partition named %q", g.Primary().PartitionName())
	}

	// No workspaces: the primary owns the whole budget.
	if b := budgetOf(g.Primary()); b != total {
		t.Fatalf("primary budget = %d, want %d", b, total)
	}

	// One workspace: even split.
	ws1, err := g.AttachPartition("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if b := budgetOf(g.Primary()); b != total/2 {
		t.Fatalf("primary budget with 1 ws = %d, want %d", b, total/2)
	}
	if b := budgetOf(ws1); b != total/2 {
		t.Fatalf("ws1 budget = %d, want %d", b, total/2)
	}

	// Two workspaces: three even thirds, the primary included.
	ws2, err := g.AttachPartition("ws2")
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*VecCache{"primary": g.Primary(), "ws1": ws1, "ws2": ws2} {
		if b := budgetOf(p); b != total/3 {
			t.Fatalf("%s budget with 2 ws = %d, want %d", name, b, total/3)
		}
	}

	// Detach rebalances back to the even split.
	g.DetachPartition("ws2")
	if b := budgetOf(ws1); b != total/2 {
		t.Fatalf("ws1 budget after detach = %d, want %d", b, total/2)
	}

	// Duplicate attach is rejected, the primary's name included; empty
	// names are rejected.
	for _, name := range []string{"ws1", "primary"} {
		if _, err := g.AttachPartition(name); err == nil {
			t.Fatalf("duplicate attach of %q succeeded", name)
		}
	}
	if _, err := g.AttachPartition(""); err == nil {
		t.Fatal("empty workspace name accepted")
	}

	// A disabled group is nil and hands out nil partitions.
	if d := NewVecCacheGroup(-1, "primary", nil); d != nil || d.Primary() != nil {
		t.Fatalf("disabled group = %v", d)
	}
}

func TestVecCacheGroupExplicitShares(t *testing.T) {
	const total = 1 << 20
	g := NewVecCacheGroup(total, "primary", map[string]float64{"ws1": 0.25})
	// The share is reserved only while ws1 is attached.
	if b := budgetOf(g.Primary()); b != total {
		t.Fatalf("primary budget before ws1 attaches = %d, want %d", b, total)
	}
	ws1, err := g.AttachPartition("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if b := budgetOf(ws1); b != total/4 {
		t.Fatalf("explicit ws1 share = %d, want %d", b, total/4)
	}
	// The primary keeps the unreserved remainder.
	if b := budgetOf(g.Primary()); b != total*3/4 {
		t.Fatalf("primary budget = %d, want %d", b, total*3/4)
	}
}

func TestVecCacheGroupDetachDiscardsWithoutDemoting(t *testing.T) {
	g := NewVecCacheGroup(16<<10, "primary", nil)
	ws, err := g.AttachPartition("ws")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newCachedTable(t, 64, 64*4, g.Primary())
	view := tbl.Snapshot()
	for _, m := range view.Segs {
		cachedVec[int64](ws, m, 2, nil)
	}
	if ws.Stats().Entries == 0 {
		t.Fatal("workspace sweep cached nothing")
	}
	g.DetachPartition("ws")
	if got := ws.Stats().Entries; got != 0 {
		t.Fatalf("detached partition still holds %d entries", got)
	}
	if gs := g.Stats(); gs.Primary.Entries != 0 || gs.Primary.Budget != 16<<10 {
		t.Fatalf("detach moved entries into the primary or kept its budget: %+v", gs.Primary)
	}
	if _, ok := g.Stats().Workspaces["ws"]; ok {
		t.Fatal("detached workspace still reported in group stats")
	}
	// The primary is never detached.
	g.DetachPartition("primary")
	if budgetOf(g.Primary()) != 16<<10 {
		t.Fatal("detaching the primary's name changed its budget")
	}
}

func TestVecCacheGroupStatsTotalFoldsTiers(t *testing.T) {
	g := NewVecCacheGroup(16<<10, "primary", nil)
	ws, err := g.AttachPartition("ws")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newCachedTable(t, 64, 64*8, g.Primary())
	view := tbl.Snapshot()
	for _, m := range view.Segs {
		cachedVec[int64](ws, m, 2, nil)
		cachedVec[int64](g.Primary(), m, 2, nil)
	}
	gs := g.Stats()
	total := gs.Total()
	wantHits := gs.Primary.Hits + gs.Workspaces["ws"].Hits
	if total.Hits != wantHits {
		t.Fatalf("Total().Hits = %d, want %d", total.Hits, wantHits)
	}
	wantBytes := gs.Primary.Bytes + gs.Workspaces["ws"].Bytes
	if total.Bytes != wantBytes {
		t.Fatalf("Total().Bytes = %d, want %d", total.Bytes, wantBytes)
	}
	if total.Misses == 0 {
		t.Fatalf("fold lost the miss counters: %+v", total)
	}
	if total.Budget != 16<<10 {
		t.Fatalf("partition budgets fold to %d, want the whole %d", total.Budget, 16<<10)
	}
}
