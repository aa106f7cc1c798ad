package s2db

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestOpenRejectsInvalidCacheShares checks the one validation of
// TenantShares, which size the vector cache partitions and every QoS
// resource alike.
func TestOpenRejectsInvalidCacheShares(t *testing.T) {
	cases := []struct {
		name    string
		shares  map[string]float64
		wantErr string
	}{
		{"sum over one", map[string]float64{"ws1": 0.7, "ws2": 0.7}, "sum to"},
		{"zero share", map[string]float64{"ws1": 0}, "outside (0,1]"},
		{"negative share", map[string]float64{"ws1": -0.5}, "outside (0,1]"},
		{"NaN share", map[string]float64{"ws1": math.NaN()}, "outside (0,1]"},
		{"nonexistent empty name", map[string]float64{"": 0.5}, "empty tenant name"},
		{"primary starved", map[string]float64{"reports": 1.0}, `leaving "primary" no share`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A disabled cache and ungoverned QoS still validate.
			for _, cfg := range []Config{
				{Partitions: 1, TenantShares: tc.shares},
				{Partitions: 1, TenantShares: tc.shares, VectorCacheBytes: -1, QoSWorkerSlots: -1,
					QoSScanMemoryBytes: -1, QoSMergeIOBytes: -1, QoSWALBytesPerSec: -1},
			} {
				db, err := Open(cfg)
				if err == nil {
					db.Close()
					t.Fatalf("Open accepted invalid shares %v", tc.shares)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
				}
			}
		})
	}

	// Valid shares — and a disabled cache with valid shares — open fine.
	openTestDB(t, Config{Partitions: 1, TenantShares: map[string]float64{"reports": 0.25}})
	db2 := openTestDB(t, Config{Partitions: 1, VectorCacheBytes: -1, TenantShares: map[string]float64{"reports": 0.25}})
	if s := db2.VectorCacheStats(); s.Total.Bytes != 0 || s.Total.Budget != 0 {
		t.Fatalf("disabled cache reports residency: %+v", s.Total)
	}
}

// TestTenantSharesSizeWorkspaceCache checks that a workspace's cache
// partition is its TenantShares share of the whole VectorCacheBytes.
func TestTenantSharesSizeWorkspaceCache(t *testing.T) {
	const bytes = 1 << 20
	db := openTestDB(t, Config{Partitions: 1, VectorCacheBytes: bytes,
		TenantShares: map[string]float64{"reports": 0.25}})
	if b := db.VectorCacheStats().Primary.Budget; b != bytes {
		t.Fatalf("primary budget alone = %d, want %d", b, bytes)
	}
	ws, err := db.CreateWorkspace("reports")
	if err != nil {
		t.Fatal(err)
	}
	stats := db.VectorCacheStats()
	if b := stats.Workspaces["reports"].Budget; b != bytes/4 {
		t.Fatalf("reports cache budget = %d, want %d", b, bytes/4)
	}
	if b := stats.Primary.Budget; b != bytes*3/4 {
		t.Fatalf("primary cache budget = %d, want %d", b, bytes*3/4)
	}
	// The governor splits its resources by the same rule.
	qs := db.QoSStats()
	if got, want := qs["reports"].MergeIO.Budget, DefaultQoSMergeIOBytes/4; got != want {
		t.Fatalf("reports merge-I/O budget = %d, want %d", got, want)
	}
	if err := ws.Detach(); err != nil {
		t.Fatal(err)
	}
	if b := db.VectorCacheStats().Primary.Budget; b != bytes {
		t.Fatalf("primary budget after detach = %d, want %d", b, bytes)
	}
}

func TestCreateWorkspaceRejectsEmptyName(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 1})
	if _, err := db.CreateWorkspace(""); err == nil {
		t.Fatal("empty workspace name accepted")
	}
	if _, err := db.CreateWorkspace(PrimaryTenant); err == nil {
		t.Fatal("the primary's reserved name accepted as a workspace name")
	}
}

// TestFailedWorkspaceAttachLeavesNoTenant: a workspace whose catch-up
// from blob fails leaves neither a QoS tenant nor a cache partition
// behind, and the name attaches once the blob log is whole again.
func TestFailedWorkspaceAttachLeavesNoTenant(t *testing.T) {
	store := NewMemoryBlobStore()
	db := openTestDB(t, Config{Name: "wsfail", Partitions: 1, BlobStore: store})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	loadEvents(t, db, 40)
	// A corrupt chunk after every real one: catch-up applies the real
	// chunks, then fails decoding this one.
	const corrupt = "wsfail/0/log/9999999999999999"
	if err := store.Put(corrupt, []byte("not a log chunk")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateWorkspace("reports"); err == nil {
		t.Fatal("workspace attached over a corrupt log chunk")
	}
	if _, ok := db.QoSStats()["reports"]; ok {
		t.Fatal("failed attach left a QoS tenant behind")
	}
	if _, ok := db.VectorCacheStats().Workspaces["reports"]; ok {
		t.Fatal("failed attach left a cache partition behind")
	}
	if err := store.Delete(corrupt); err != nil {
		t.Fatal(err)
	}
	ws, err := db.CreateWorkspace("reports")
	if err != nil {
		t.Fatalf("attach after the failed one: %v", err)
	}
	if err := ws.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.QoSStats()["reports"]; !ok {
		t.Fatal("attached workspace has no QoS tenant")
	}
	if _, ok := db.VectorCacheStats().Workspaces["reports"]; !ok {
		t.Fatal("attached workspace has no cache partition")
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
	// its scans show up in the workspace's partition stats, not the primary's.
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
		t.Fatalf("workspace scan left no trace in its partition: %+v", wsStats)
	}
	if got := stats.Primary.Misses; got != primaryBefore.Misses {
		t.Fatalf("workspace scan decoded into the primary partition: %d -> %d misses", primaryBefore.Misses, got)
	}
	if total := stats.Total; total.Misses < wsStats.Misses {
		t.Fatalf("Total does not fold workspace partitions: %+v < %+v", total, wsStats)
	}

	// Detach releases the partition: its stats entry disappears.
	if err := ws.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.VectorCacheStats().Workspaces["reports"]; ok {
		t.Fatal("detached workspace still reported in VectorCacheStats")
	}
}
