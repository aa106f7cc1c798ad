package s2db

import (
	"strings"
	"testing"
	"time"
)

func TestOpenRejectsInvalidCacheShares(t *testing.T) {
	cases := []struct {
		name    string
		shares  map[string]float64
		wantErr string
	}{
		{"sum over one", map[string]float64{"ws1": 0.7, "ws2": 0.7}, "over the whole budget"},
		{"zero share", map[string]float64{"ws1": 0}, "must be > 0"},
		{"negative share", map[string]float64{"ws1": -0.5}, "must be > 0"},
		{"nonexistent empty name", map[string]float64{"": 0.5}, "nonexistent workspace"},
		{"primary starved", map[string]float64{"reports": 1.0}, "leaving the primary no budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Config{Partitions: 1, WorkspaceCacheShares: tc.shares})
			if err == nil {
				db.Close()
				t.Fatalf("Open accepted invalid shares %v", tc.shares)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	// Valid shares — and a disabled cache with valid shares — open fine.
	db := openTestDB(t, Config{Partitions: 1, WorkspaceCacheShares: map[string]float64{"reports": 0.25}})
	_ = db
	db2 := openTestDB(t, Config{Partitions: 1, VectorCacheBytes: -1, WorkspaceCacheShares: map[string]float64{"reports": 0.25}})
	if s := db2.VectorCacheStats(); s.Total.Bytes != 0 {
		t.Fatalf("disabled cache reports residency: %+v", s.Total)
	}
}

func TestCreateWorkspaceRejectsEmptyName(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 1})
	if _, err := db.CreateWorkspace(""); err == nil {
		t.Fatal("empty workspace name accepted")
	}
}

func TestPerWorkspaceCacheStatsAndExplain(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 2, VectorCacheBytes: 1 << 20})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	loadEvents(t, db, 400)
	if err := db.Flush("events"); err != nil {
		t.Fatal(err)
	}

	ws, err := db.CreateWorkspace("reports")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A primary query resolves against the primary cache partition.
	q := db.Table("events").Where(Gt(2, Int(10)))
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.CachePartition != "primary" {
		t.Fatalf("primary plan cache partition = %q, want primary", plan.CachePartition)
	}
	if _, err := q.Count(); err != nil {
		t.Fatal(err)
	}

	// A workspace query resolves against the workspace's own partition, and
	// its scans show up in the workspace's tier stats, not the primary's.
	primaryBefore := db.VectorCacheStats().Primary
	wq := db.Table("events").OnWorkspace(ws).Where(Gt(2, Int(10)))
	wplan, err := wq.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if wplan.CachePartition != "reports" {
		t.Fatalf("workspace plan cache partition = %q, want reports", wplan.CachePartition)
	}
	if _, err := wq.Count(); err != nil {
		t.Fatal(err)
	}

	stats := db.VectorCacheStats()
	wsStats, ok := stats.Workspaces["reports"]
	if !ok {
		t.Fatalf("no per-workspace stats entry: %+v", stats.Workspaces)
	}
	if wsStats.Misses == 0 {
		t.Fatalf("workspace scan left no trace in its tier: %+v", wsStats)
	}
	if got := stats.Primary.Misses; got != primaryBefore.Misses {
		t.Fatalf("workspace scan decoded into the primary tier: %d -> %d misses", primaryBefore.Misses, got)
	}
	if total := stats.Total; total.Misses < wsStats.Misses {
		t.Fatalf("Total does not fold workspace tiers: %+v < %+v", total, wsStats)
	}

	// Detach releases the partition: its stats entry disappears.
	if err := ws.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.VectorCacheStats().Workspaces["reports"]; ok {
		t.Fatal("detached workspace still reported in VectorCacheStats")
	}
}
