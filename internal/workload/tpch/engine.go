package tpch

import (
	"context"

	"s2db/internal/baseline"
	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
)

// Engine abstracts query execution so the 22 queries run unchanged against
// S2DB (vectorized, adaptive), the warehouse baseline (same columnar
// engine) and the rowstore baseline (row-at-a-time). The performance
// differences between engines come from how each implements these three
// operations, mirroring §6's comparison.
type Engine interface {
	Name() string
	// Scan iterates rows of a table passing the filter. cols lists the
	// columns the caller reads (projection pushdown); nil means all. The
	// emitted row may be reused between calls; callers that retain a row
	// must Clone it.
	Scan(table string, filter exec.Node, cols []int, emit func(types.Row) bool) error
	// Aggregate runs a grouped aggregation.
	Aggregate(table string, filter exec.Node, groupCols []int, aggs []exec.AggSpec) ([]types.Row, error)
	// Join joins already-materialized build rows against a probe table.
	Join(build []types.Row, buildKey []int, probeTable string, probeKey []int,
		probeFilter exec.Node, emit func(b, p types.Row) bool) error
}

// --- S2DB engine ------------------------------------------------------------

// S2Engine executes on a S2DB cluster using adaptive columnar execution.
// Workspace may redirect reads to a read-only workspace (CH-BenCHmark test
// cases 4-5).
type S2Engine struct {
	C         *cluster.Cluster
	Workspace *cluster.Workspace
}

// Name implements Engine.
func (e *S2Engine) Name() string { return "s2db" }

// views snapshots the table on the workspace or the cluster; the caller
// releases the views.
func (e *S2Engine) views(table string) ([]*core.View, error) {
	if e.Workspace != nil {
		return e.Workspace.Views(table)
	}
	return e.C.Views(table)
}

// Scan implements Engine.
func (e *S2Engine) Scan(table string, filter exec.Node, cols []int, emit func(types.Row) bool) error {
	views, err := e.views(table)
	if err != nil {
		return err
	}
	defer core.ReleaseAll(views)
	for _, v := range views {
		stop := false
		scan := exec.NewScan(v, filter)
		scan.Project = cols
		scan.Run(func(r types.Row) bool {
			if !emit(r) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
	}
	return nil
}

// Aggregate implements Engine with per-partition partials computed on the
// parallel fan-out scheduler and merged centrally.
func (e *S2Engine) Aggregate(table string, filter exec.Node, groupCols []int, aggs []exec.AggSpec) ([]types.Row, error) {
	views, err := e.views(table)
	if err != nil {
		return nil, err
	}
	defer core.ReleaseAll(views)
	return exec.AggregateViewsParallel(context.Background(), views, filter, groupCols, aggs, 0, nil)
}

// Join implements Engine with the adaptive join index filter (§5.1).
func (e *S2Engine) Join(build []types.Row, buildKey []int, probeTable string, probeKey []int,
	probeFilter exec.Node, emit func(b, p types.Row) bool) error {
	views, err := e.views(probeTable)
	if err != nil {
		return err
	}
	defer core.ReleaseAll(views)
	for _, v := range views {
		exec.EquiJoin(build, buildKey, v, probeKey, probeFilter, exec.JoinAuto, nil, emit)
	}
	return nil
}

// --- warehouse engine -------------------------------------------------------

// WarehouseEngine executes on the CDW baseline: the identical columnar
// path minus secondary indexes (they were stripped at CreateTable).
type WarehouseEngine struct {
	W *baseline.Warehouse
}

// Name implements Engine.
func (e *WarehouseEngine) Name() string { return "cdw" }

// Scan implements Engine.
func (e *WarehouseEngine) Scan(table string, filter exec.Node, cols []int, emit func(types.Row) bool) error {
	views, err := e.W.Views(table)
	if err != nil {
		return err
	}
	defer core.ReleaseAll(views)
	for _, v := range views {
		stop := false
		scan := exec.NewScan(v, filter)
		scan.Project = cols
		scan.Run(func(r types.Row) bool {
			if !emit(r) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
	}
	return nil
}

// Aggregate implements Engine.
func (e *WarehouseEngine) Aggregate(table string, filter exec.Node, groupCols []int, aggs []exec.AggSpec) ([]types.Row, error) {
	views, err := e.W.Views(table)
	if err != nil {
		return nil, err
	}
	defer core.ReleaseAll(views)
	return exec.AggregateViews(views, filter, groupCols, aggs, nil), nil
}

// Join implements Engine (hash join: the warehouse has no indexes).
func (e *WarehouseEngine) Join(build []types.Row, buildKey []int, probeTable string, probeKey []int,
	probeFilter exec.Node, emit func(b, p types.Row) bool) error {
	views, err := e.W.Views(probeTable)
	if err != nil {
		return err
	}
	defer core.ReleaseAll(views)
	for _, v := range views {
		exec.EquiJoin(build, buildKey, v, probeKey, probeFilter, exec.JoinForceHash, nil, emit)
	}
	return nil
}

// --- rowstore (CDB) engine --------------------------------------------------

// RowEngine executes on the rowstore baseline one row at a time: filters
// are evaluated per materialized row, aggregation is a row-wise fold, joins
// scan the probe table against an in-memory hash map. This is the §6
// explanation for CDB's orders-of-magnitude TPC-H gap: "a row-oriented
// storage format and single-host query execution".
type RowEngine struct {
	DB *baseline.RowDB
}

// Name implements Engine.
func (e *RowEngine) Name() string { return "cdb" }

// Scan implements Engine. The rowstore holds fully materialized rows, so
// projection is free (and ignored).
func (e *RowEngine) Scan(table string, filter exec.Node, _ []int, emit func(types.Row) bool) error {
	t, err := e.DB.Table(table)
	if err != nil {
		return err
	}
	t.Scan(func(r types.Row) bool {
		if filter != nil && !filter.EvalRow(r) {
			return true
		}
		return emit(r)
	})
	return nil
}

// Aggregate implements Engine via RowAggregate.
func (e *RowEngine) Aggregate(table string, filter exec.Node, groupCols []int, aggs []exec.AggSpec) ([]types.Row, error) {
	var rows []types.Row
	err := e.Scan(table, filter, nil, func(r types.Row) bool {
		rows = append(rows, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	return RowAggregate(rows, groupCols, aggs), nil
}

// Join implements Engine as a hash join over full scans. As in SQL, a NULL
// key joins nothing.
func (e *RowEngine) Join(build []types.Row, buildKey []int, probeTable string, probeKey []int,
	probeFilter exec.Node, emit func(b, p types.Row) bool) error {
	buildMap := make(map[string][]types.Row, len(build))
	var kb []byte
	for _, r := range build {
		if exec.NullKey(r, buildKey) {
			continue
		}
		kb = kb[:0]
		for _, c := range buildKey {
			kb = types.EncodeKey(kb, r[c])
		}
		buildMap[string(kb)] = append(buildMap[string(kb)], r)
	}
	return e.Scan(probeTable, probeFilter, nil, func(pr types.Row) bool {
		if exec.NullKey(pr, probeKey) {
			return true
		}
		kb = kb[:0]
		for _, c := range probeKey {
			kb = types.EncodeKey(kb, pr[c])
		}
		for _, b := range buildMap[string(kb)] {
			if !emit(b, pr) {
				return false
			}
		}
		return true
	})
}

// RowAggregate is a row-at-a-time grouped aggregation used by the rowstore
// engine and by query code that aggregates join results.
func RowAggregate(rows []types.Row, groupCols []int, aggs []exec.AggSpec) []types.Row {
	type state struct {
		key    types.Row
		counts []int64
		sums   []float64
		sumIs  []int64
		mins   []types.Value
		maxs   []types.Value
	}
	groups := map[string]*state{}
	var kb []byte
	for _, r := range rows {
		kb = kb[:0]
		for _, c := range groupCols {
			kb = types.EncodeKey(kb, r[c])
		}
		g, ok := groups[string(kb)]
		if !ok {
			key := make(types.Row, len(groupCols))
			for i, c := range groupCols {
				key[i] = r[c]
			}
			g = &state{
				key:    key,
				counts: make([]int64, len(aggs)),
				sums:   make([]float64, len(aggs)),
				sumIs:  make([]int64, len(aggs)),
				mins:   make([]types.Value, len(aggs)),
				maxs:   make([]types.Value, len(aggs)),
			}
			groups[string(kb)] = g
		}
		for ai, a := range aggs {
			var v types.Value
			switch {
			case a.Func == exec.Count && a.Expr == nil && a.Col < 0:
				v = types.NewInt(1)
			case a.Expr != nil:
				v = a.Expr(r)
			default:
				v = r[a.Col]
			}
			if v.IsNull {
				continue
			}
			g.counts[ai]++
			switch v.Type {
			case types.Int64:
				g.sumIs[ai] += v.I
			case types.Float64:
				g.sums[ai] += v.F
			}
			if g.mins[ai].IsNull || g.counts[ai] == 1 {
				g.mins[ai], g.maxs[ai] = v, v
			} else {
				if types.Compare(v, g.mins[ai]) < 0 {
					g.mins[ai] = v
				}
				if types.Compare(v, g.maxs[ai]) > 0 {
					g.maxs[ai] = v
				}
			}
		}
	}
	out := make([]types.Row, 0, len(groups))
	for _, g := range groups {
		row := append(types.Row{}, g.key...)
		for ai, a := range aggs {
			switch a.Func {
			case exec.Count:
				row = append(row, types.NewInt(g.counts[ai]))
			case exec.Sum:
				if g.sumIs[ai] != 0 && g.sums[ai] == 0 {
					row = append(row, types.NewInt(g.sumIs[ai]))
				} else {
					row = append(row, types.NewFloat(g.sums[ai]+float64(g.sumIs[ai])))
				}
			case exec.Min:
				row = append(row, g.mins[ai])
			case exec.Max:
				row = append(row, g.maxs[ai])
			case exec.Avg:
				if g.counts[ai] == 0 {
					row = append(row, types.Null(types.Float64))
				} else {
					row = append(row, types.NewFloat((g.sums[ai]+float64(g.sumIs[ai]))/float64(g.counts[ai])))
				}
			}
		}
		out = append(out, row)
	}
	return out
}
