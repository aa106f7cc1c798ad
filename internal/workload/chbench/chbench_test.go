package chbench

import (
	"testing"
	"time"

	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/workload/tpcc"

	"s2db/internal/blob"
)

func loadedBackend(t *testing.T, withBlob bool) *tpcc.S2Backend {
	t.Helper()
	cfg := cluster.Config{
		Partitions: 2,
		Table:      core.Config{MaxSegmentRows: 2048, FlushThreshold: 2048, Background: true},
	}
	if withBlob {
		cfg.Blob = blob.NewMemory()
		cfg.ChunkRecords = 64
		cfg.SnapshotEvery = 512
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	b := &tpcc.S2Backend{C: c}
	if err := tpcc.Load(b, 1, 11); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAnalyticalQueriesRun(t *testing.T) {
	b := loadedBackend(t, false)
	views := func(table string) ([]*core.View, error) { return b.C.Views(table) }
	for _, q := range Queries() {
		if err := q.Run(views); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
}

func TestMixedWorkloadSharedWorkspace(t *testing.T) {
	b := loadedBackend(t, false)
	res := Run(b, Config{Warehouses: 1, TWs: 2, AWs: 1, Duration: 300 * time.Millisecond, Seed: 1})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.TpmC <= 0 || res.Queries == 0 {
		t.Fatalf("TpmC=%f queries=%d", res.TpmC, res.Queries)
	}
}

func TestMixedWorkloadIsolatedWorkspace(t *testing.T) {
	b := loadedBackend(t, true)
	res := Run(b, Config{Warehouses: 1, TWs: 2, AWs: 1, UseWorkspace: true, Duration: 300 * time.Millisecond, Seed: 2})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.TpmC <= 0 || res.Queries == 0 {
		t.Fatalf("TpmC=%f queries=%d", res.TpmC, res.Queries)
	}
}

func TestAnalyticsOnlyCase(t *testing.T) {
	b := loadedBackend(t, false)
	res := Run(b, Config{Warehouses: 1, TWs: 0, AWs: 2, Duration: 200 * time.Millisecond, Seed: 3})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.TpmC != 0 || res.QPS <= 0 {
		t.Fatalf("TpmC=%f QPS=%f", res.TpmC, res.QPS)
	}
}

// TestGroupedQueriesFuseEverySegment: ch-q1, q5 and q12 group by small
// integers, so every segment that holds a surviving row takes a fused
// aggregation kernel.
func TestGroupedQueriesFuseEverySegment(t *testing.T) {
	b := loadedBackend(t, false)
	views := func(table string) ([]*core.View, error) { return b.C.Views(table) }
	for name, q := range map[string]groupedQuery{"ch-q1": chQ1, "ch-q5": chQ5, "ch-q12": chQ12} {
		// One set of snapshots for the query and the count: background
		// maintenance keeps flushing and merging beside the test.
		vs, err := views(q.table)
		if err != nil {
			t.Fatal(err)
		}
		var st exec.ScanStats
		if err := q.aggregate(func(string) ([]*core.View, error) { return vs, nil }, &st); err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, v := range vs {
			var filter exec.Node
			if q.filter != nil {
				filter = q.filter()
			}
			exec.NewScan(v, filter).RunSegments(func(*exec.SegContext, []exec.Span) { want++ })
		}
		if want == 0 || st.FusedAggSegs != want {
			t.Errorf("%s: %d segments fused, want all %d with surviving rows (%d scanned)", name, st.FusedAggSegs, want, st.SegmentsScanned)
		}
	}
}
