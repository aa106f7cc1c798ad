package exec

import (
	"s2db/internal/core"
	"s2db/internal/types"
)

// aggPlan is the mergeable partial-aggregation plan shared by the
// sequential and parallel fan-out paths: Avg is decomposed into Sum+Count
// so per-partition partials merge exactly, and the final projection maps
// partial slots back to the caller's aggregate list.
type aggPlan struct {
	groupCols    []int
	aggs         []AggSpec
	partialSpecs []AggSpec
	avgParts     map[int][2]int
	finalIdx     []int
}

// newAggPlan decomposes the aggregate list into mergeable partial specs.
func newAggPlan(groupCols []int, aggs []AggSpec) *aggPlan {
	p := &aggPlan{
		groupCols:    groupCols,
		aggs:         aggs,
		partialSpecs: make([]AggSpec, 0, len(aggs)+2),
		avgParts:     make(map[int][2]int),
		finalIdx:     make([]int, len(aggs)),
	}
	for i, a := range aggs {
		if a.Func == Avg {
			// ExprCols carries through so the partials keep projection
			// pushdown (and fused-kernel eligibility) for avg-of-expression.
			sumIdx := len(p.partialSpecs)
			p.partialSpecs = append(p.partialSpecs, AggSpec{Func: Sum, Col: a.Col, Expr: a.Expr, ExprCols: a.ExprCols})
			countIdx := len(p.partialSpecs)
			p.partialSpecs = append(p.partialSpecs, AggSpec{Func: Count, Col: a.Col, Expr: a.Expr, ExprCols: a.ExprCols})
			p.avgParts[i] = [2]int{sumIdx, countIdx}
			p.finalIdx[i] = -1
			continue
		}
		p.finalIdx[i] = len(p.partialSpecs)
		p.partialSpecs = append(p.partialSpecs, a)
	}
	return p
}

// partial computes one view's partial-aggregate rows through the given
// scan (whose Stats the caller harvests afterwards).
func (p *aggPlan) partial(view *core.View, filter Node, scan *Scan) []types.Row {
	return Aggregate(view, filter, p.groupCols, p.partialSpecs, scan)
}

// mergeFinalize merges per-view partial row sets — in slice order, so the
// result is deterministic for a given view order — and finalizes Avg.
func (p *aggPlan) mergeFinalize(partials [][]types.Row) []types.Row {
	type acc struct {
		key  types.Row
		vals []types.Value
	}
	merged := map[string]*acc{}
	var order []*acc
	ng := len(p.groupCols)
	for _, partial := range partials {
		for _, pr := range partial {
			key := pr[:ng]
			kb := types.EncodeKey(nil, key...)
			a, ok := merged[string(kb)]
			if !ok {
				a = &acc{key: key.Clone(), vals: make([]types.Value, len(p.partialSpecs))}
				copy(a.vals, pr[ng:])
				merged[string(kb)] = a
				order = append(order, a)
				continue
			}
			for si, spec := range p.partialSpecs {
				a.vals[si] = MergeAggValue(spec.Func, a.vals[si], pr[ng+si])
			}
		}
	}
	out := make([]types.Row, 0, len(order))
	for _, a := range order {
		row := make(types.Row, 0, ng+len(p.aggs))
		row = append(row, a.key...)
		for i, spec := range p.aggs {
			if spec.Func == Avg {
				parts := p.avgParts[i]
				sum, cnt := a.vals[parts[0]], a.vals[parts[1]]
				if cnt.IsNull || cnt.I == 0 {
					row = append(row, types.Null(types.Float64))
					continue
				}
				var s float64
				if sum.Type == types.Int64 {
					s = float64(sum.I)
				} else {
					s = sum.F
				}
				row = append(row, types.NewFloat(s/float64(cnt.I)))
				continue
			}
			row = append(row, a.vals[p.finalIdx[i]])
		}
		out = append(out, row)
	}
	return out
}

// AggregateViews runs a grouped aggregation across several partition views
// and merges the partial results — the aggregator-node side of distributed
// query execution (§2). Avg is decomposed into Sum and Count so partials
// merge exactly. This is the sequential path; AggregateViewsParallel fans
// the per-view partials onto a worker pool.
func AggregateViews(views []*core.View, filter Node, groupCols []int, aggs []AggSpec, stats *ScanStats) []types.Row {
	p := newAggPlan(groupCols, aggs)
	partials := make([][]types.Row, len(views))
	for i, v := range views {
		scan := NewScan(v, filter)
		partials[i] = p.partial(v, filter, scan)
		if stats != nil {
			accumulate(stats, scan.Stats)
		}
	}
	return p.mergeFinalize(partials)
}

// MergeAggValue combines two partial aggregate values of the same function.
func MergeAggValue(f AggFunc, a, b types.Value) types.Value {
	switch f {
	case Count:
		return types.NewInt(a.I + b.I)
	case Sum:
		if a.Type == types.Int64 {
			return types.NewInt(a.I + b.I)
		}
		return types.NewFloat(a.F + b.F)
	case Min:
		if a.IsNull {
			return b
		}
		if b.IsNull || types.Compare(a, b) <= 0 {
			return a
		}
		return b
	default: // Max (Avg never reaches here: decomposed)
		if a.IsNull {
			return b
		}
		if b.IsNull || types.Compare(a, b) >= 0 {
			return a
		}
		return b
	}
}

func accumulate(dst *ScanStats, src ScanStats) {
	dst.SegmentsScanned += src.SegmentsScanned
	dst.SegmentsSkipped += src.SegmentsSkipped
	dst.IndexFilters += src.IndexFilters
	dst.EncodedFilters += src.EncodedFilters
	dst.RegularFilters += src.RegularFilters
	dst.GroupFilters += src.GroupFilters
	dst.RowsScanned += src.RowsScanned
	dst.RowsOutput += src.RowsOutput
	dst.GlobalIndexProbes += src.GlobalIndexProbes
	dst.JoinIndexFilters += src.JoinIndexFilters
	dst.JoinIndexFallbacks += src.JoinIndexFallbacks
	dst.BufferRowsScanned += src.BufferRowsScanned
	dst.BufferImageRows += src.BufferImageRows
	dst.BufferImageBuilds += src.BufferImageBuilds
	dst.VecCacheHits += src.VecCacheHits
	dst.VecCacheMisses += src.VecCacheMisses
	dst.VecCacheWaits += src.VecCacheWaits
	dst.VecCacheEvictions += src.VecCacheEvictions
	dst.VecDecodes += src.VecDecodes
	dst.PlanCacheHits += src.PlanCacheHits
	dst.PlanCacheMisses += src.PlanCacheMisses
	dst.EncodedFilterSegs += src.EncodedFilterSegs
	dst.FusedAggSegs += src.FusedAggSegs
	dst.RowsMaterialized += src.RowsMaterialized
	dst.HydrationWaits += src.HydrationWaits
	dst.HydratedSegs += src.HydratedSegs
	dst.QoSWaits += src.QoSWaits
	dst.QoSWaitNanos += src.QoSWaitNanos
}

// AccumulateStats merges src into dst; the fan-out coordinator uses it to
// fold race-free per-worker stats after the pool joins.
func AccumulateStats(dst *ScanStats, src ScanStats) { accumulate(dst, src) }
