// Command s2bench regenerates the paper's evaluation tables and figures
// (§6) at simulator scale and prints them in the same layout:
//
//	s2bench -exp table1    # TPC-C throughput (Table 1)
//	s2bench -exp table2    # TPC-H geomean summary (Table 2)
//	s2bench -exp figure4   # TPC-H per-query runtimes (Figure 4)
//	s2bench -exp figure5   # TPC-C + TPC-H cross-engine summary (Figure 5)
//	s2bench -exp table3    # CH-BenCHmark mixed workload (Table 3)
//	s2bench -exp all       # every table and figure above
//
// The per-commit performance record is not this command but the benchmark
// in bench/ (`sh bench/run.sh -workload tpcc|tpch|chbench|sqlmix`).
//
// Absolute numbers are laptop-scale; compare shapes against the paper (see
// EXPERIMENTS.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"s2db/internal/baseline"
	"s2db/internal/blob"
	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/workload/chbench"
	"s2db/internal/workload/tpcc"
	"s2db/internal/workload/tpch"
)

// params carries the scale flags to the experiments.
type params struct {
	sf         float64
	warehouses int
	duration   time.Duration
	seed       int64
}

// experiments lists every -exp name in the order "all" runs them.
var experiments = []struct {
	name string
	fn   func(p params) error
}{
	{"table1", func(p params) error { return table1(p.warehouses, p.duration, p.seed) }},
	{"table2", func(p params) error { return table2(p.sf, p.seed) }},
	{"figure4", func(p params) error { return figure4(p.sf, p.seed) }},
	{"figure5", func(p params) error { return figure5(p.warehouses, p.sf, p.duration, p.seed) }},
	{"table3", func(p params) error { return table3(p.warehouses, p.duration, p.seed) }},
}

// expNames returns the accepted -exp values.
func expNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// errUsage marks a bad command line (exit status 2) as opposed to a failed
// experiment (exit status 1).
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses the command line and runs the selected experiments. An unknown
// -exp is an error naming the valid ones, checked before anything runs.
func run(args []string) error {
	names := expNames()
	fs := flag.NewFlagSet("s2bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	var p params
	fs.Float64Var(&p.sf, "sf", 0.01, "TPC-H scale factor")
	fs.IntVar(&p.warehouses, "warehouses", 2, "TPC-C warehouses")
	fs.DurationVar(&p.duration, "duration", 3*time.Second, "per-measurement duration")
	fs.Int64Var(&p.seed, "seed", 1, "data generation seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if !slices.Contains(names, *exp) {
		return fmt.Errorf("%w: unknown experiment %q (valid: %s)", errUsage, *exp, strings.Join(names, " "))
	}
	for _, e := range experiments {
		if *exp != e.name && *exp != "all" {
			continue
		}
		if err := e.fn(p); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

func newS2TpccBackend(warehouses int, withBlob bool, seed int64) (*tpcc.S2Backend, error) {
	cfg := cluster.Config{
		Partitions: 2,
		Table:      core.Config{MaxSegmentRows: 4096, FlushThreshold: 4096, Background: true},
	}
	if withBlob {
		cfg.Blob = blob.NewMemory()
		cfg.ChunkRecords = 256
		cfg.SnapshotEvery = 1 << 20
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	b := &tpcc.S2Backend{C: c}
	if err := tpcc.Load(b, warehouses, seed); err != nil {
		c.Close()
		return nil, err
	}
	return b, nil
}

// table1 prints the TPC-C comparison (paper Table 1). Like the official
// benchmark, workers pace themselves with keying/think times, so the
// metric is "percent of the wait-time-limited ceiling" — the paper's Table
// 1 shows both engines at ~97% of max; engine cost differences only show
// once think time stops dominating.
func table1(warehouses int, d time.Duration, seed int64) error {
	const thinkScale = 5.0
	// Expected think per transaction: the profile-weighted keying/think
	// times of the driver (§ driver.go), scaled.
	expThink := thinkScale * (0.45*18 + 0.43*15 + 0.04*(12+7+7)) / 1000 // seconds
	const workers = 4
	ceiling := 0.45 * workers / expThink * 60 // max NewOrders/minute
	fmt.Println("== Table 1: TPC-C results (derived benchmark, simulator scale) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Product\tWarehouses\tWorkers\tTpmC\t% of max\tRaw txn/s (no think)")
	type row struct {
		name string
		wh   int
		back tpcc.Backend
		stop func()
	}
	var rows []row
	cdb := &tpcc.RowDBBackend{DB: baseline.NewRowDB()}
	if err := tpcc.Load(cdb, warehouses, seed); err != nil {
		return err
	}
	rows = append(rows, row{"CDB (rowstore)", warehouses, cdb, func() {}})
	s2a, err := newS2TpccBackend(warehouses, false, seed)
	if err != nil {
		return err
	}
	rows = append(rows, row{"S2DB (unified)", warehouses, s2a, func() { s2a.C.Close() }})
	s2b, err := newS2TpccBackend(warehouses*4, false, seed)
	if err != nil {
		return err
	}
	rows = append(rows, row{"S2DB (unified, 4x warehouses+workers)", warehouses * 4, s2b, func() { s2b.C.Close() }})
	for ri, r := range rows {
		rowWorkers := workers
		rowCeiling := ceiling
		if ri == 2 { // the scaled configuration gets proportional compute
			rowWorkers = workers * 4
			rowCeiling = ceiling * 4
		}
		// Paced run: reproduces the paper's at-the-ceiling comparison.
		paced, err := tpcc.Run(r.back, tpcc.DriverConfig{
			Warehouses: r.wh, Workers: rowWorkers, Duration: d, Seed: seed + 7,
			ThinkTime: thinkScale,
		})
		if err != nil {
			return fmt.Errorf("%s: %w (mix %+v)", r.name, err, paced.Mix)
		}
		// Unpaced run: raw engine throughput.
		raw, err := tpcc.Run(r.back, tpcc.DriverConfig{
			Warehouses: r.wh, Workers: rowWorkers, Duration: d, Seed: seed + 77,
		})
		r.stop()
		if err != nil {
			return fmt.Errorf("%s: %w (mix %+v)", r.name, err, raw.Mix)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.1f%%\t%.0f\n", r.name, r.wh, rowWorkers,
			paced.TpmC, 100*paced.TpmC/rowCeiling,
			float64(raw.TotalTxns)/raw.Duration.Seconds())
	}
	w.Flush()
	fmt.Println("(paper shape: both engines near the wait-time ceiling at equal scale;")
	fmt.Println(" S2DB keeps scaling with warehouses)")
	fmt.Println()
	return nil
}

type tpchEngines struct {
	s2      *tpch.S2Engine
	cdw     *tpch.WarehouseEngine
	cdb     *tpch.RowEngine
	cleanup func()
}

func buildTpch(sf float64, seed int64) (*tpchEngines, error) {
	c, err := cluster.New(cluster.Config{Partitions: 2, Table: core.Config{MaxSegmentRows: 4096}})
	if err != nil {
		return nil, err
	}
	if err := tpch.Generate(&tpch.S2Loader{C: c}, sf, seed); err != nil {
		return nil, err
	}
	w, err := baseline.NewWarehouse(baseline.WarehouseConfig{Partitions: 2, Table: core.Config{MaxSegmentRows: 4096}})
	if err != nil {
		return nil, err
	}
	if err := tpch.Generate(&tpch.WarehouseLoader{W: w}, sf, seed); err != nil {
		return nil, err
	}
	db := baseline.NewRowDB()
	if err := tpch.Generate(&tpch.RowLoader{DB: db}, sf, seed); err != nil {
		return nil, err
	}
	return &tpchEngines{
		s2:      &tpch.S2Engine{C: c},
		cdw:     &tpch.WarehouseEngine{W: w},
		cdb:     &tpch.RowEngine{DB: db},
		cleanup: func() { c.Close(); w.Close() },
	}, nil
}

// table2 prints the TPC-H summary (paper Table 2).
func table2(sf float64, seed int64) error {
	fmt.Printf("== Table 2: TPC-H (SF %g) summary ==\n", sf)
	engines, err := buildTpch(sf, seed)
	if err != nil {
		return err
	}
	defer engines.cleanup()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Product\tGeomean\tSuite time\tThroughput (q/s)")
	report := func(name string, e tpch.Engine, budget time.Duration) {
		// One cold pass (compilation/caching in the paper; decode caches and
		// allocator warmup here), then measure a warm pass — the paper's
		// methodology ("one cold run ... then the average of warm runs").
		if _, ok := tpch.RunAllTimeout(e, budget); !ok {
			fmt.Fprintf(w, "%s\tdid not finish within %v\t-\t-\n", name, budget)
			return
		}
		start := time.Now()
		results, finished := tpch.RunAllTimeout(e, budget)
		total := time.Since(start)
		if !finished {
			fmt.Fprintf(w, "%s\tdid not finish within %v\t-\t-\n", name, budget)
			return
		}
		g, _ := tpch.Geomean(results)
		fmt.Fprintf(w, "%s\t%v\t%v\t%.2f\n", name, g.Round(time.Microsecond),
			total.Round(time.Millisecond), 22/total.Seconds())
	}
	report("S2DB", engines.s2, time.Hour)
	report("CDW (warehouse)", engines.cdw, time.Hour)
	// The CDB budget mirrors the paper's 24h cap: proportional to the
	// columnar engines' runtime.
	start := time.Now()
	tpch.RunAll(engines.s2)
	budget := time.Since(start) * 10
	report("CDB (rowstore)", engines.cdb, budget)
	w.Flush()
	fmt.Println("(paper shape: S2DB ~= CDW1/CDW2; CDB orders of magnitude slower / DNF)")
	fmt.Println()
	return nil
}

// figure4 prints per-query runtimes (paper Figure 4).
func figure4(sf float64, seed int64) error {
	fmt.Printf("== Figure 4: TPC-H (SF %g) per-query runtimes ==\n", sf)
	engines, err := buildTpch(sf, seed)
	if err != nil {
		return err
	}
	defer engines.cleanup()
	tpch.RunAll(engines.s2) // cold pass
	tpch.RunAll(engines.cdw)
	s2 := tpch.RunAll(engines.s2) // warm measurements
	cdw := tpch.RunAll(engines.cdw)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Query\tS2DB\tCDW\tS2DB/CDW")
	for i := range s2 {
		if s2[i].Err != nil || cdw[i].Err != nil {
			fmt.Fprintf(w, "%s\terror\terror\t-\n", s2[i].Name)
			continue
		}
		ratio := float64(s2[i].Duration) / float64(cdw[i].Duration)
		fmt.Fprintf(w, "%s\t%v\t%v\t%.2f\n", s2[i].Name,
			s2[i].Duration.Round(time.Microsecond),
			cdw[i].Duration.Round(time.Microsecond), ratio)
	}
	w.Flush()
	fmt.Println("(paper shape: the two columnar engines are competitive query by query)")
	fmt.Println()
	return nil
}

// figure5 prints the cross-engine OLTP/OLAP summary (paper Figure 5).
func figure5(warehouses int, sf float64, d time.Duration, seed int64) error {
	fmt.Println("== Figure 5: TPC-C and TPC-H throughput summary ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Product\tTPC-C TpmC\tTPC-H q/s")

	// S2DB runs both.
	s2t, err := newS2TpccBackend(warehouses, false, seed)
	if err != nil {
		return err
	}
	tRes, err := tpcc.Run(s2t, tpcc.DriverConfig{Warehouses: warehouses, Workers: 4, Duration: d, Seed: seed})
	s2t.C.Close()
	if err != nil {
		return err
	}
	engines, err := buildTpch(sf, seed)
	if err != nil {
		return err
	}
	defer engines.cleanup()
	start := time.Now()
	tpch.RunAll(engines.s2)
	s2QPS := 22 / time.Since(start).Seconds()
	fmt.Fprintf(w, "S2DB\t%.0f\t%.2f\n", tRes.TpmC, s2QPS)

	// CDW: analytics only.
	start = time.Now()
	tpch.RunAll(engines.cdw)
	cdwQPS := 22 / time.Since(start).Seconds()
	fmt.Fprintf(w, "CDW (warehouse)\tunsupported\t%.2f\n", cdwQPS)

	// CDB: OLTP strong, analytics weak.
	cdb := &tpcc.RowDBBackend{DB: baseline.NewRowDB()}
	if err := tpcc.Load(cdb, warehouses, seed); err != nil {
		return err
	}
	cRes, err := tpcc.Run(cdb, tpcc.DriverConfig{Warehouses: warehouses, Workers: 4, Duration: d, Seed: seed})
	if err != nil {
		return err
	}
	start = time.Now()
	tpch.RunAll(engines.cdb)
	cdbQPS := 22 / time.Since(start).Seconds()
	fmt.Fprintf(w, "CDB (rowstore)\t%.0f\t%.2f\n", cRes.TpmC, cdbQPS)
	w.Flush()
	fmt.Println("(paper shape: only S2DB is strong on both axes)")
	fmt.Println()
	return nil
}

// table3 prints the CH-BenCHmark mixed-workload matrix (paper Table 3).
func table3(warehouses int, d time.Duration, seed int64) error {
	fmt.Println("== Table 3: CH-BenCHmark results ==")
	// The paper runs cases 1-3 on one 16-vCPU workspace and cases 4-5 with
	// a second 16-vCPU read-only workspace (32 total); the MaxProcs budget
	// mirrors that compute split at simulator scale.
	cases := []struct {
		name      string
		tws, aws  int
		workspace bool
		withBlob  bool
		procs     int
	}{
		{"1: TWs only", 4, 0, false, true, 4},
		{"2: AWs only", 0, 2, false, true, 4},
		{"3: shared workspace", 4, 2, false, true, 4},
		{"4: isolated read-only workspace", 4, 2, true, true, 8},
		{"5: isolated workspace, no blob", 4, 2, true, false, 8},
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Case\tvCPU\tTWs\tAWs\tTpmC\tAnalytic q/s\tMax repl lag (records)")
	for _, tc := range cases {
		back, err := newS2TpccBackend(warehouses, tc.withBlob, seed)
		if err != nil {
			return err
		}
		res := chbench.Run(back, chbench.Config{
			Warehouses:   warehouses,
			TWs:          tc.tws,
			AWs:          tc.aws,
			UseWorkspace: tc.workspace,
			Duration:     d,
			Seed:         seed + 13,
			MaxProcs:     tc.procs,
		})
		back.C.Close()
		if res.Err != nil {
			return fmt.Errorf("case %q: %w", tc.name, res.Err)
		}
		tpmc := "-"
		if tc.tws > 0 {
			tpmc = fmt.Sprintf("%.0f", res.TpmC)
		}
		qps := "-"
		if tc.aws > 0 {
			qps = fmt.Sprintf("%.2f", res.QPS)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%s\t%.0f\n", tc.name, tc.procs*4, tc.tws, tc.aws, tpmc, qps, res.MaxLagMs)
	}
	w.Flush()
	fmt.Println("(paper shape: sharing costs ~50% each; isolation restores TW throughput;")
	fmt.Println(" disabling blob staging changes results only marginally)")
	if runtime.NumCPU() < 8 {
		fmt.Printf("NOTE: this host has %d CPU(s); cases 4-5 cannot add physical compute,\n", runtime.NumCPU())
		fmt.Println("so the paper's TW-throughput recovery (which needs a second set of hosts)")
		fmt.Println("is not observable here — replication overhead shares the same core(s).")
		fmt.Println("The reproducible sub-shapes on this host: case 3's mutual degradation,")
		fmt.Println("case 5 ~= case 4, and small replication lag.")
	}
	fmt.Println()
	return nil
}
