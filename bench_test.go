package s2db_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6) plus ablations for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are simulator-scale; the reproduction targets are the
// *shapes* recorded in EXPERIMENTS.md (who wins, by what factor, where
// behaviour crosses over).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"s2db"

	"s2db/internal/baseline"
	"s2db/internal/blob"
	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/wal"
	"s2db/internal/workload/chbench"
	"s2db/internal/workload/tpcc"
	"s2db/internal/workload/tpch"
)

// --- shared fixtures ---------------------------------------------------------

const (
	benchSF         = 0.002 // TPC-H scale for benches (~3k orders)
	benchWarehouses = 2
)

var (
	tpchS2Once  sync.Once
	tpchS2Fix   *tpch.S2Engine
	tpchRowOnce sync.Once
	tpchRowFix  *tpch.RowEngine
	tpchCdwOnce sync.Once
	tpchCdwFix  *tpch.WarehouseEngine
)

func tpchS2(b *testing.B) *tpch.S2Engine {
	tpchS2Once.Do(func() {
		c, err := cluster.New(cluster.Config{
			Partitions: 2,
			Table:      core.Config{MaxSegmentRows: 4096},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := tpch.Generate(&tpch.S2Loader{C: c}, benchSF, 7); err != nil {
			b.Fatal(err)
		}
		tpchS2Fix = &tpch.S2Engine{C: c}
	})
	return tpchS2Fix
}

func tpchRow(b *testing.B) *tpch.RowEngine {
	tpchRowOnce.Do(func() {
		db := baseline.NewRowDB()
		if err := tpch.Generate(&tpch.RowLoader{DB: db}, benchSF, 7); err != nil {
			b.Fatal(err)
		}
		tpchRowFix = &tpch.RowEngine{DB: db}
	})
	return tpchRowFix
}

func tpchCdw(b *testing.B) *tpch.WarehouseEngine {
	tpchCdwOnce.Do(func() {
		w, err := baseline.NewWarehouse(baseline.WarehouseConfig{
			Partitions: 2,
			Table:      core.Config{MaxSegmentRows: 4096},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := tpch.Generate(&tpch.WarehouseLoader{W: w}, benchSF, 7); err != nil {
			b.Fatal(err)
		}
		tpchCdwFix = &tpch.WarehouseEngine{W: w}
	})
	return tpchCdwFix
}

func newTpccS2(b *testing.B, warehouses, partitions int) *tpcc.S2Backend {
	c, err := cluster.New(cluster.Config{
		Partitions: partitions,
		Table:      core.Config{MaxSegmentRows: 4096, FlushThreshold: 4096, Background: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	back := &tpcc.S2Backend{C: c}
	if err := tpcc.Load(back, warehouses, 1); err != nil {
		b.Fatal(err)
	}
	return back
}

// --- Table 1: TPC-C ----------------------------------------------------------

// BenchmarkTable1_TPCC measures OLTP throughput (reported as tpmC) on the
// unified storage engine and the rowstore baseline at two warehouse scales;
// the paper's shape: the two engines are comparable, and S2DB scales with
// warehouses (Table 1).
func BenchmarkTable1_TPCC(b *testing.B) {
	for _, wh := range []int{benchWarehouses, benchWarehouses * 2} {
		b.Run(fmt.Sprintf("s2db/warehouses=%d", wh), func(b *testing.B) {
			back := newTpccS2(b, wh, 2)
			defer back.C.Close()
			benchTpcc(b, back, wh)
		})
	}
	b.Run(fmt.Sprintf("cdb/warehouses=%d", benchWarehouses), func(b *testing.B) {
		back := &tpcc.RowDBBackend{DB: baseline.NewRowDB()}
		if err := tpcc.Load(back, benchWarehouses, 1); err != nil {
			b.Fatal(err)
		}
		benchTpcc(b, back, benchWarehouses)
	})
}

func benchTpcc(b *testing.B, back tpcc.Backend, warehouses int) {
	b.ResetTimer()
	res, err := tpcc.Run(back, tpcc.DriverConfig{
		Warehouses:   warehouses,
		Workers:      4,
		MaxNewOrders: int64(b.N),
		Duration:     time.Hour,
		Seed:         2,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.TpmC, "tpmC")
	b.ReportMetric(float64(res.TotalTxns)/res.Duration.Seconds(), "txn/s")
}

// --- Table 2 & Figure 4: TPC-H ------------------------------------------------

// BenchmarkTable2_TPCH runs the full 22-query suite per iteration on each
// engine and reports the geomean runtime. Paper shape: s2db ≈ cdw, cdb
// orders of magnitude slower (it "did not finish" at paper scale).
func BenchmarkTable2_TPCH(b *testing.B) {
	run := func(b *testing.B, e tpch.Engine) {
		b.ResetTimer()
		var g time.Duration
		for i := 0; i < b.N; i++ {
			results := tpch.RunAll(e)
			for _, r := range results {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Name, r.Err)
				}
			}
			g, _ = tpch.Geomean(results)
		}
		b.ReportMetric(float64(g.Microseconds())/1000, "geomean-ms")
	}
	b.Run("s2db", func(b *testing.B) { run(b, tpchS2(b)) })
	b.Run("cdw", func(b *testing.B) { run(b, tpchCdw(b)) })
	b.Run("cdb", func(b *testing.B) { run(b, tpchRow(b)) })
}

// BenchmarkFigure4_PerQuery reports per-query runtimes (Figure 4's bars)
// for the columnar engines.
func BenchmarkFigure4_PerQuery(b *testing.B) {
	engines := []struct {
		name string
		get  func(*testing.B) tpch.Engine
	}{
		{"s2db", func(b *testing.B) tpch.Engine { return tpchS2(b) }},
		{"cdw", func(b *testing.B) tpch.Engine { return tpchCdw(b) }},
	}
	for _, eng := range engines {
		for _, q := range tpch.Queries() {
			q := q
			b.Run(eng.name+"/"+q.Name, func(b *testing.B) {
				e := eng.get(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(e); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Table 3: CH-BenCHmark -----------------------------------------------------

// BenchmarkTable3_CHBench reproduces the five test cases: TW-only, AW-only,
// shared workspace, isolated read-only workspace, and isolated workspace
// without blob storage. Paper shape: sharing halves both sides; isolation
// restores TW throughput; disabling blob staging changes little.
func BenchmarkTable3_CHBench(b *testing.B) {
	cases := []struct {
		name      string
		tws, aws  int
		workspace bool
		withBlob  bool
	}{
		{"case1-50tw-0aw", 4, 0, false, true},
		{"case2-0tw-2aw", 0, 2, false, true},
		{"case3-shared", 4, 2, false, true},
		{"case4-isolated-workspace", 4, 2, true, true},
		{"case5-isolated-no-blob", 4, 2, true, false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := cluster.Config{
				Partitions: 2,
				Table:      core.Config{MaxSegmentRows: 4096, FlushThreshold: 4096, Background: true},
			}
			if tc.withBlob {
				cfg.Blob = blob.NewMemory()
				cfg.ChunkRecords = 256
				cfg.SnapshotEvery = 1 << 20
			}
			c, err := cluster.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			back := &tpcc.S2Backend{C: c}
			if err := tpcc.Load(back, 1, 11); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := chbench.Run(back, chbench.Config{
				Warehouses:   1,
				TWs:          tc.tws,
				AWs:          tc.aws,
				UseWorkspace: tc.workspace,
				Duration:     time.Duration(b.N) * 200 * time.Millisecond,
				Seed:         3,
			})
			b.StopTimer()
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			b.ReportMetric(res.TpmC, "tpmC")
			b.ReportMetric(res.QPS, "qps")
			b.ReportMetric(res.MaxLagMs, "max-lag-records")
		})
	}
}

// --- Figure 5: cross-engine summary --------------------------------------------

// BenchmarkFigure5_Summary reports the combined OLTP/OLAP picture: tpmC for
// the engines that support TPC-C and analytical QPS for the engines that
// support TPC-H. The warehouse reports tpmC=0 (unsupported), the rowstore
// baseline reports near-zero analytic QPS at scale — Figure 5's shape.
func BenchmarkFigure5_Summary(b *testing.B) {
	b.Run("tpcc-s2db", func(b *testing.B) {
		back := newTpccS2(b, benchWarehouses, 2)
		defer back.C.Close()
		benchTpcc(b, back, benchWarehouses)
	})
	b.Run("tpcc-cdw-unsupported", func(b *testing.B) {
		w, err := baseline.NewWarehouse(baseline.WarehouseConfig{Partitions: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		if w.SupportsTPCC() {
			b.Fatal("warehouse must not support TPC-C")
		}
		b.ReportMetric(0, "tpmC")
	})
	b.Run("tpch-qps-s2db", func(b *testing.B) {
		e := tpchS2(b)
		b.ResetTimer()
		start := time.Now()
		n := 0
		for i := 0; i < b.N; i++ {
			tpch.RunAll(e)
			n += 22
		}
		b.ReportMetric(float64(n)/time.Since(start).Seconds(), "queries/s")
	})
	b.Run("tpch-qps-cdb", func(b *testing.B) {
		e := tpchRow(b)
		b.ResetTimer()
		start := time.Now()
		n := 0
		for i := 0; i < b.N; i++ {
			tpch.RunAll(e)
			n += 22
		}
		b.ReportMetric(float64(n)/time.Since(start).Seconds(), "queries/s")
	})
}

// --- ablations -----------------------------------------------------------------

// benchTable builds a standalone unified table with n rows for ablations.
func benchTable(b *testing.B, n int, deletedFrac float64) *core.Table {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "grp", Type: types.String},
		types.Column{Name: "val", Type: types.Int64},
	)
	schema.UniqueKey = []int{0}
	schema.SecondaryKeys = [][]int{{1}}
	tbl, err := core.NewTable("t", schema, core.Config{MaxSegmentRows: 8192},
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("g%d", i%32)),
			types.NewInt(int64(i % 1000)),
		}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		b.Fatal(err)
	}
	if deletedFrac > 0 {
		step := int(1 / deletedFrac)
		if _, err := tbl.DeleteWhere(core.Where{Col: -1, Pred: func(r types.Row) bool {
			return r[0].I%int64(step) == 0
		}}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkAblationDeleteRepresentation compares scanning with the deleted
// bit vector (our design, §4) against a simulated merge-on-read LSM where
// every row must be reconciled against a tombstone set — the per-row
// overhead the paper avoids.
func BenchmarkAblationDeleteRepresentation(b *testing.B) {
	const n = 100000
	tbl := benchTable(b, n, 0.1)
	view := tbl.Snapshot()
	// Tombstone set for the simulated merge-on-read engine.
	tombstones := make(map[int64]struct{}, n/10)
	for i := int64(0); i < n; i += 10 {
		tombstones[i] = struct{}{}
	}
	b.Run("deleted-bitvector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			scan := exec.NewScan(view, nil)
			scan.RunSegments(func(ctx *exec.SegContext, spans []exec.Span) {
				vals := ctx.Meta.Seg.Cols[2].Ints
				for _, sp := range spans {
					for r := sp.Start; r < sp.End; r++ {
						sum += vals.At(int(r))
					}
				}
			})
		}
	})
	b.Run("tombstone-merge-on-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			scan := exec.NewScan(view, nil)
			scan.RunSegments(func(ctx *exec.SegContext, spans []exec.Span) {
				seg := ctx.Meta.Seg
				ids := seg.Cols[0].Ints
				vals := seg.Cols[2].Ints
				for _, sp := range spans {
					for r := sp.Start; r < sp.End; r++ {
						// Merge-based reconciliation: per-row key lookup
						// against the tombstone level.
						if _, dead := tombstones[ids.At(int(r))]; dead {
							continue
						}
						sum += vals.At(int(r))
					}
				}
			})
		}
	})
}

// BenchmarkAblationIndexStructure compares the two-level index's global
// hash probe (O(log N) levels) against per-segment probing (O(N) segments)
// for point lookups (§4.1).
func BenchmarkAblationIndexStructure(b *testing.B) {
	// Many small segments make the O(segments) cost of per-segment probing
	// visible; the paper's design probes O(log N) hash tables instead.
	const n = 100000
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "grp", Type: types.String},
		types.Column{Name: "val", Type: types.Int64},
	)
	schema.UniqueKey = []int{0}
	schema.SecondaryKeys = [][]int{{1}}
	tbl, err := core.NewTable("t", schema, core.Config{MaxSegmentRows: 512},
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			// Group values cluster per segment: a point lookup matches one
			// segment, the selective case §4.1's design targets.
			types.NewString(fmt.Sprintf("g%d", i/512)),
			types.NewInt(int64(i % 1000)),
		}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		b.Fatal(err)
	}
	idx := tbl.Index()
	segCount := tbl.SegmentCount()
	b.Run("two-level-global-index", func(b *testing.B) {
		probes := 0
		for i := 0; i < b.N; i++ {
			m, p := idx.LookupColumn(1, types.NewString(fmt.Sprintf("g%d", i%512)))
			probes += p
			_ = m
		}
		b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
	})
	b.Run("per-segment-probing", func(b *testing.B) {
		// Simulate the per-segment filtering approach: one probe per
		// segment regardless of matches.
		view := tbl.Snapshot()
		for i := 0; i < b.N; i++ {
			v := types.NewString(fmt.Sprintf("g%d", i%512))
			found := 0
			for _, meta := range view.Segs {
				if p, ok := idx.SegmentPostings(meta.Seg.ID, 1, v); ok {
					found += len(p)
				}
			}
		}
		b.ReportMetric(float64(segCount), "probes/op")
	})
}

// BenchmarkAblationFilterOrdering compares adaptive (1-P)/cost clause
// reordering against a pinned adversarial order (expensive, non-selective
// clause first) (§5.2).
func BenchmarkAblationFilterOrdering(b *testing.B) {
	const n = 200000
	tbl := benchTable(b, n, 0)
	view := tbl.Snapshot()
	mk := func(disable bool) *exec.And {
		// Clause A: passes ~100% and is string-typed (expensive).
		// Clause B: passes 0.1% and is int-typed (cheap).
		a := exec.NewLeaf(1, vector.Ge, types.NewString("g")) // all match
		bb := exec.NewLeaf(2, vector.Eq, types.NewInt(7))     // 0.1%
		and := exec.NewAnd(a, bb)
		and.DisableReorder = disable
		and.DisableGroup = true
		return and
	}
	b.Run("adaptive-reorder", func(b *testing.B) {
		f := mk(false)
		for i := 0; i < b.N; i++ {
			exec.NewScan(view, f).Count()
		}
	})
	b.Run("static-adversarial-order", func(b *testing.B) {
		f := mk(true)
		for i := 0; i < b.N; i++ {
			exec.NewScan(view, f).Count()
		}
	})
}

// BenchmarkAblationEncodedExecution compares encoded (on-compressed-data)
// filters against decode-then-filter on a dictionary column (§5.2).
func BenchmarkAblationEncodedExecution(b *testing.B) {
	const n = 200000
	tbl := benchTable(b, n, 0)
	view := tbl.Snapshot()
	b.Run("encoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := exec.NewLeaf(1, vector.Gt, types.NewString("g3")).ForceEncoded()
			s := exec.NewScan(view, f)
			s.DisableIndexSkipping = true
			s.Count()
		}
	})
	b.Run("regular", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := exec.NewLeaf(1, vector.Gt, types.NewString("g3")).ForceRegular()
			s := exec.NewScan(view, f)
			s.DisableIndexSkipping = true
			s.Count()
		}
	})
}

// BenchmarkAblationCommitPath compares S2DB's local-commit design against
// the commit-to-blob design of cloud warehouses under a 2ms blob write
// latency (§3.1's headline trade-off).
func BenchmarkAblationCommitPath(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Int64},
	)
	schema.UniqueKey = []int{0}
	schema.ShardKey = []int{0}
	for _, mode := range []struct {
		name string
		mode cluster.CommitMode
	}{
		{"commit-local", cluster.CommitLocal},
		{"commit-to-blob", cluster.CommitBlob},
	} {
		b.Run(mode.name, func(b *testing.B) {
			store := blob.NewSimulator(blob.NewMemory(), 2*time.Millisecond, 0)
			c, err := cluster.New(cluster.Config{
				Partitions: 1, Blob: store, CommitMode: mode.mode,
				// Chunks batch many records per object: commit-to-blob still
				// pays the object-store latency per commit wait, while the
				// final drain stays proportional to chunks, not records.
				ChunkRecords: 2048,
				Table:        core.Config{MaxSegmentRows: 1 << 20},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.CreateTable("t", schema); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Insert("t", []types.Row{{types.NewInt(int64(i)), types.NewInt(1)}}, core.InsertOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			// Stop before the deferred Close: the final stager drain
			// uploads the backlog and must not count against commits.
			b.StopTimer()
		})
	}
}

// BenchmarkAblationJoinIndexFilter compares the join index filter against
// the hash-join fallback for a small build side (§5.1).
func BenchmarkAblationJoinIndexFilter(b *testing.B) {
	const n = 200000
	tbl := benchTable(b, n, 0)
	view := tbl.Snapshot()
	build := []types.Row{
		{types.NewString("g3")},
		{types.NewString("g17")},
	}
	for _, mode := range []struct {
		name string
		m    exec.JoinMode
	}{
		{"join-index-filter", exec.JoinForceIndex},
		{"hash-join", exec.JoinForceHash},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cnt := 0
				exec.EquiJoin(build, []int{0}, view, []int{1}, nil, mode.m, nil,
					func(_, _ types.Row) bool { cnt++; return true })
			}
		})
	}
}

// BenchmarkUnifiedPointReadVsScan shows the unified table serving OLTP
// seeks on columnstore data: indexed point lookup vs full scan.
func BenchmarkUnifiedPointReadVsScan(b *testing.B) {
	const n = 200000
	tbl := benchTable(b, n, 0)
	b.Run("indexed-get-by-unique", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(int64(i % n))})
			if err != nil || !ok {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("full-scan-lookup", func(b *testing.B) {
		view := tbl.Snapshot()
		for i := 0; i < b.N; i++ {
			target := int64(i % n)
			s := exec.NewScan(view, exec.NewLeaf(0, vector.Eq, types.NewInt(target)).ForceRegular())
			s.DisableIndexSkipping = true
			s.Count()
		}
	})
}

// BenchmarkParallelFanout measures the partition fan-out scheduler: a
// grouped aggregate over the public query API as Partitions grows, with
// the worker pool disabled (seq, Parallelism 1) and enabled (par, one
// worker per partition). The reproduction target is throughput scaling
// with the partition count (§2: aggregators run query fragments on all
// leaf partitions in parallel).
func BenchmarkParallelFanout(b *testing.B) {
	const rowsPerPart = 100000
	for _, parts := range []int{1, 2, 4, 8} {
		db, err := s2db.Open(s2db.Config{Partitions: parts})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		schema := s2db.NewSchema(
			types.Column{Name: "id", Type: types.Int64},
			types.Column{Name: "kind", Type: types.String},
			types.Column{Name: "amount", Type: types.Int64},
		)
		schema.ShardKey = []int{0}
		if err := db.CreateTable("t", schema); err != nil {
			b.Fatal(err)
		}
		n := parts * rowsPerPart
		batch := make([]s2db.Row, 0, 10000)
		for i := 0; i < n; i++ {
			batch = append(batch, s2db.Row{
				s2db.Int(int64(i)),
				s2db.Str(fmt.Sprintf("k%d", i%16)),
				s2db.Int(int64(i % 1000)),
			})
			if len(batch) == cap(batch) || i == n-1 {
				if err := db.BulkLoad("t", batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		run := func(b *testing.B, parallelism int) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := db.Table("t").
					Where(s2db.GtName("amount", s2db.Int(100))).
					GroupByNames("kind").
					Agg(s2db.CountAll(), s2db.SumName("amount")).
					Parallelism(parallelism).
					Rows()
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 16 {
					b.Fatalf("groups = %d", len(rows))
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		}
		b.Run(fmt.Sprintf("parts=%d/seq", parts), func(b *testing.B) { run(b, 1) })
		b.Run(fmt.Sprintf("parts=%d/par", parts), func(b *testing.B) { run(b, parts) })
	}
}

// BenchmarkParallelFanoutSimIO isolates what the fan-out scheduler buys in
// the separated-storage deployment (§3): each segment read is throttled by
// a simulated object-store latency (exec.Throttle, the scan-side analogue
// of the blob simulator), so wall-clock time is dominated by stalls that
// concurrent partition scans overlap. Unlike the CPU-bound variant above,
// the speedup here does not depend on GOMAXPROCS.
func BenchmarkParallelFanoutSimIO(b *testing.B) {
	const (
		parts        = 8
		rowsPerPart  = 20000
		segRows      = 5000
		leafLatency  = time.Millisecond
		expectGroups = 16
	)
	db, err := s2db.Open(s2db.Config{Partitions: parts, MaxSegmentRows: segRows})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	schema := s2db.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "kind", Type: types.String},
		types.Column{Name: "amount", Type: types.Int64},
	)
	schema.ShardKey = []int{0}
	if err := db.CreateTable("t", schema); err != nil {
		b.Fatal(err)
	}
	n := parts * rowsPerPart
	batch := make([]s2db.Row, 0, segRows)
	for i := 0; i < n; i++ {
		batch = append(batch, s2db.Row{
			s2db.Int(int64(i)),
			s2db.Str(fmt.Sprintf("k%d", i%expectGroups)),
			s2db.Int(int64(i % 1000)),
		})
		if len(batch) == cap(batch) || i == n-1 {
			if err := db.BulkLoad("t", batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	filter := func() s2db.Filter {
		return exec.NewThrottle(s2db.GtName("amount", s2db.Int(100)), leafLatency)
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := db.Table("t").
					Where(filter()).
					GroupByNames("kind").
					Agg(s2db.CountAll(), s2db.SumName("amount")).
					Parallelism(par).
					Rows()
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != expectGroups {
					b.Fatalf("groups = %d", len(rows))
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// BenchmarkVecCacheScan measures the decoded-vector cache (PR 2) from the
// public API: "cold" disables the cache so every run privately decodes its
// column vectors; "warm" uses the default shared cache, primed by one
// unmeasured run, so measured runs perform zero DecodeAll calls.
func BenchmarkVecCacheScan(b *testing.B) {
	for _, mode := range []struct {
		name       string
		cacheBytes int
	}{
		{"cold", -1},
		{"warm", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := s2db.Open(s2db.Config{
				Partitions:       4,
				VectorCacheBytes: mode.cacheBytes,
				MaxSegmentRows:   4096,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			schema := s2db.NewSchema(
				types.Column{Name: "id", Type: types.Int64},
				types.Column{Name: "kind", Type: types.String},
				types.Column{Name: "amount", Type: types.Int64},
			)
			if err := db.CreateTable("t", schema); err != nil {
				b.Fatal(err)
			}
			rows := make([]s2db.Row, 0, 40000)
			for i := 0; i < cap(rows); i++ {
				rows = append(rows, s2db.Row{
					s2db.Int(int64(i)),
					s2db.Str(fmt.Sprintf("k%d", i%7)),
					s2db.Int(int64(i % 1000)),
				})
			}
			if err := db.BulkLoad("t", rows); err != nil {
				b.Fatal(err)
			}
			q := db.Table("t").
				Where(s2db.GtName("amount", s2db.Int(100))).
				GroupByNames("kind").
				Agg(s2db.CountAll(), s2db.SumName("amount"))
			if mode.cacheBytes == 0 {
				if _, err := q.Rows(); err != nil { // prime the cache
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Rows(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := q.Stats()
			if mode.cacheBytes == 0 && st.VecDecodes != 0 {
				b.Fatalf("warm run decoded %d vectors, want 0", st.VecDecodes)
			}
			b.ReportMetric(db.VectorCacheStats().HitRate(), "hit-rate")
		})
	}
}
