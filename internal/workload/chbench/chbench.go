// Package chbench implements a CH-BenCHmark-derived mixed workload
// (Table 3 of the paper): transactional workers (TWs) run the TPC-C mix
// while analytical workers (AWs) run TPC-H-style queries over the same
// tables, optionally on an isolated read-only workspace (§3.2). Reported
// metrics are TpmC for the TWs and analytical queries-per-second for the
// AWs, plus replication lag for workspace configurations.
package chbench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/workload/tpcc"
)

// AnalyticalQuery is one CH-style query over the TPC-C tables. Run
// releases the views it takes from views.
type AnalyticalQuery struct {
	Name string
	Run  func(views func(table string) ([]*core.View, error)) error
}

// Queries returns the analytical query set: aggregation, filtered
// aggregation, grouped revenue, carrier distribution and a join-flavored
// top-customers query — the access patterns of CH-BenCHmark's TPC-H side.
func Queries() []AnalyticalQuery {
	return []AnalyticalQuery{
		{"ch-q1-pricing", chQ1.run},
		{"ch-q6-revenue-band", func(views viewsFn) error {
			vs, err := views(tpcc.TOrderLine)
			if err != nil {
				return err
			}
			defer core.ReleaseAll(vs)
			exec.AggregateViews(vs, exec.NewAnd(
				exec.NewLeaf(tpcc.OLQuantity, vector.Ge, types.NewInt(1)),
				exec.NewLeaf(tpcc.OLQuantity, vector.Le, types.NewInt(8)),
				exec.NewLeaf(tpcc.OLAmount, vector.Gt, types.NewFloat(1)),
			), nil, []exec.AggSpec{{Func: exec.Sum, Col: tpcc.OLAmount}}, nil)
			return nil
		}},
		{"ch-q5-district-revenue", chQ5.run},
		{"ch-q12-carriers", chQ12.run},
		{"ch-q18-big-customers", func(views viewsFn) error {
			ovs, err := views(tpcc.TOrders)
			if err != nil {
				return err
			}
			defer core.ReleaseAll(ovs)
			// Orders with many lines, joined to their customers' balances.
			var big []types.Row
			for _, v := range ovs {
				exec.NewScan(v, exec.NewLeaf(tpcc.OOlCnt, vector.Ge, types.NewInt(12))).Run(func(r types.Row) bool {
					big = append(big, r.Clone())
					return true
				})
			}
			cvs, err := views(tpcc.TCustomer)
			if err != nil {
				return err
			}
			defer core.ReleaseAll(cvs)
			matched := 0
			for _, v := range cvs {
				exec.EquiJoin(big, []int{tpcc.OCID}, v, []int{tpcc.CID}, nil,
					exec.JoinForceHash, nil, func(b, p types.Row) bool {
						if b[tpcc.OWID].I == p[tpcc.CWID].I && b[tpcc.ODID].I == p[tpcc.CDID].I {
							matched++
						}
						return true
					})
			}
			return nil
		}},
	}
}

type viewsFn = func(table string) ([]*core.View, error)

// groupedQuery is a grouped aggregation over one table; filter builds a
// fresh filter per run, since a filter node carries adaptive state.
type groupedQuery struct {
	table     string
	filter    func() exec.Node
	groupCols []int
	aggs      []exec.AggSpec
}

func (q groupedQuery) run(views viewsFn) error { return q.aggregate(views, nil) }

// aggregate runs the query, accumulating scan statistics into stats when
// it is not nil.
func (q groupedQuery) aggregate(views viewsFn, stats *exec.ScanStats) error {
	vs, err := views(q.table)
	if err != nil {
		return err
	}
	defer core.ReleaseAll(vs)
	var filter exec.Node
	if q.filter != nil {
		filter = q.filter()
	}
	exec.AggregateViews(vs, filter, q.groupCols, q.aggs, stats)
	return nil
}

// The grouped queries group by small integers — OL_NUMBER, (OL_W_ID,
// OL_D_ID) and O_CARRIER_ID — whose segment zone maps bound them, so every
// segment takes the fused code group-by.
var (
	chQ1 = groupedQuery{
		table:     tpcc.TOrderLine,
		filter:    func() exec.Node { return exec.NewLeaf(tpcc.OLDeliveryD, vector.Gt, types.NewInt(-1)) },
		groupCols: []int{tpcc.OLNumber},
		aggs: []exec.AggSpec{
			{Func: exec.Sum, Col: tpcc.OLQuantity},
			{Func: exec.Sum, Col: tpcc.OLAmount},
			{Func: exec.Avg, Col: tpcc.OLAmount},
			{Func: exec.Count, Col: -1},
		},
	}
	chQ5 = groupedQuery{
		table:     tpcc.TOrderLine,
		groupCols: []int{tpcc.OLWID, tpcc.OLDID},
		aggs:      []exec.AggSpec{{Func: exec.Sum, Col: tpcc.OLAmount}, {Func: exec.Count, Col: -1}},
	}
	chQ12 = groupedQuery{
		table:     tpcc.TOrders,
		groupCols: []int{tpcc.OCarrierID},
		aggs:      []exec.AggSpec{{Func: exec.Count, Col: -1}, {Func: exec.Avg, Col: tpcc.OOlCnt}},
	}
)

// Config describes one CH-BenCHmark test case (Table 3 rows).
type Config struct {
	Warehouses int
	// MaxProcs bounds scheduler parallelism for the run, standing in for
	// the test case's vCPU budget (the paper gives 16 vCPUs to the shared
	// cases and 32 to the isolated-workspace cases). 0 leaves it alone.
	MaxProcs int
	// TWs is the number of transactional workers (0 disables TPC-C).
	TWs int
	// AWs is the number of analytical workers (0 disables TPC-H).
	AWs int
	// UseWorkspace runs AWs on a read-only workspace (test cases 4-5).
	UseWorkspace bool
	Duration     time.Duration
	Seed         int64
}

// Result is one Table 3 row.
type Result struct {
	TpmC     float64
	QPS      float64
	TxnMix   tpcc.MixCounts
	Queries  int64
	MaxLagMs float64
	Err      error
}

// Run executes one test case against a loaded S2 backend.
func Run(b *tpcc.S2Backend, cfg Config) Result {
	if cfg.MaxProcs > 0 {
		prev := runtime.GOMAXPROCS(cfg.MaxProcs)
		defer runtime.GOMAXPROCS(prev)
	}
	var res Result
	views := func(table string) ([]*core.View, error) { return b.C.Views(table) }
	var ws *cluster.Workspace
	if cfg.UseWorkspace {
		var err error
		ws, err = b.C.CreateWorkspace(fmt.Sprintf("ch-aw-%d", time.Now().UnixNano()))
		if err != nil {
			res.Err = err
			return res
		}
		defer b.C.DetachWorkspace(ws.Name) //nolint:errcheck
		// Queries must not start against a half-provisioned workspace.
		if err := b.C.WaitCaughtUp(ws, 30*time.Second); err != nil {
			res.Err = err
			return res
		}
		views = func(table string) ([]*core.View, error) { return ws.Views(table) }
	}

	var stop atomic.Bool
	var queries atomic.Int64
	var lagSamples atomic.Int64
	var wg sync.WaitGroup
	var twRes tpcc.Result
	var twErr error

	// Analytical workers.
	qset := Queries()
	for aw := 0; aw < cfg.AWs; aw++ {
		wg.Add(1)
		go func(aw int) {
			defer wg.Done()
			i := aw
			for !stop.Load() {
				q := qset[i%len(qset)]
				if err := q.Run(views); err != nil {
					res.Err = err
					stop.Store(true)
					return
				}
				queries.Add(1)
				if ws != nil {
					if lag := int64(ws.Lag()); lag > lagSamples.Load() {
						lagSamples.Store(lag)
					}
				}
				i++
			}
		}(aw)
	}

	// Transactional workers (via the TPC-C driver).
	if cfg.TWs > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			twRes, twErr = tpcc.Run(b, tpcc.DriverConfig{
				Warehouses: cfg.Warehouses,
				Workers:    cfg.TWs,
				Duration:   cfg.Duration,
				Seed:       cfg.Seed,
			})
			stop.Store(true)
		}()
	} else {
		time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	}

	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if twErr != nil && res.Err == nil {
		res.Err = twErr
	}
	res.TxnMix = twRes.Mix
	res.TpmC = twRes.TpmC
	res.Queries = queries.Load()
	res.QPS = float64(res.Queries) / elapsed.Seconds()
	res.MaxLagMs = float64(lagSamples.Load()) // pending records as a lag proxy
	return res
}
