package exec

import (
	"fmt"
	"sort"

	"s2db/internal/core"
	"s2db/internal/types"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Min
	Max
	Avg
)

// String returns the SQL-ish name of the aggregate function.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggSpec is one aggregate output: either over a plain column (Col) or a
// computed expression (Expr takes precedence when set). Computed
// expressions cover forms like sum(extendedprice * (1 - discount)).
type AggSpec struct {
	Func AggFunc
	Col  int
	// ColName, when non-empty, names the column instead of Col; it is
	// resolved against the table schema at execution time (ResolveAggSpecs).
	ColName string
	Expr    func(r types.Row) types.Value
	// ExprCols lists the columns Expr reads, enabling projection pushdown
	// in the general aggregation path; nil means "unknown" (materialize
	// every column).
	ExprCols []int
}

// aggGroup is one group's accumulated state: the cloned key values followed
// by one aggState per AggSpec. Shared between the general row-at-a-time
// path and the fused kernels, which resolve groups through the same touch
// callback so creation order (and therefore output order) is identical.
type aggGroup struct {
	key    types.Row
	states []aggState
}

type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	minV   types.Value
	maxV   types.Value
	hasVal bool
}

func (a *aggState) add(v types.Value) {
	if v.IsNull {
		return
	}
	a.count++
	switch v.Type {
	case types.Int64:
		a.sumI += v.I
	case types.Float64:
		a.sumF += v.F
	}
	if !a.hasVal {
		a.minV, a.maxV = v, v
		a.hasVal = true
		return
	}
	if types.Compare(v, a.minV) < 0 {
		a.minV = v
	}
	if types.Compare(v, a.maxV) > 0 {
		a.maxV = v
	}
}

// fold is one aggregate's state over a column of Go type T — an aggState,
// unboxed. The fused kernels unbox a group's state once per segment
// (foldOf), fold the segment's rows into it in row order and box it back
// (storeFold), so the state they leave is the one add would.
type fold[T colValue] struct {
	count    int64
	sum      T
	min, max T
	has      bool
	sums     bool // T is a number; a string "sum" would concatenate
}

// add folds one non-null value: the same transitions as aggState.add.
func (f *fold[T]) add(v T) {
	f.count++
	if f.sums {
		f.sum += v
	}
	f.bound(v)
}

// addRun folds n consecutive copies of a non-null value: integer sums take
// v×n, float sums replay the additions (addFloatRun), MIN/MAX compare once.
func (f *fold[T]) addRun(v T, n int) {
	f.count += int64(n)
	switch sum := any(&f.sum).(type) {
	case *int64:
		*sum += any(v).(int64) * int64(n)
	case *float64:
		addFloatRun(sum, any(v).(float64), n)
	}
	f.bound(v)
}

// addFloatRun adds v to *sum n times, in order. Float addition is not
// associative, so an RLE and a decoded encoding of the same data produce
// the same bits only if the run replays its additions; it is the one fold
// that stays typed.
func addFloatRun(sum *float64, v float64, n int) {
	for k := 0; k < n; k++ {
		*sum += v
	}
}

func (f *fold[T]) bound(v T) {
	if !f.has {
		f.min, f.max, f.has = v, v, true
		return
	}
	if v < f.min {
		f.min = v
	}
	if v > f.max {
		f.max = v
	}
}

// foldOf unboxes a plain column aggregate's state for a fold over T.
func foldOf[T colValue](a *aggState) fold[T] {
	var sum, lo, hi any
	sums := true
	switch any(*new(T)).(type) {
	case int64:
		sum, lo, hi = a.sumI, a.minV.I, a.maxV.I
	case float64:
		sum, lo, hi = a.sumF, a.minV.F, a.maxV.F
	default:
		sum, lo, hi, sums = "", a.minV.S, a.maxV.S, false
	}
	return fold[T]{count: a.count, sum: sum.(T), min: lo.(T), max: hi.(T), has: a.hasVal, sums: sums}
}

// storeFold boxes a fold back into the state it was unboxed from.
func storeFold[T colValue](a *aggState, f *fold[T]) {
	a.count, a.hasVal = f.count, f.has
	switch f := any(f).(type) {
	case *fold[int64]:
		a.sumI, a.minV, a.maxV = f.sum, types.NewInt(f.min), types.NewInt(f.max)
	case *fold[float64]:
		a.sumF, a.minV, a.maxV = f.sum, types.NewFloat(f.min), types.NewFloat(f.max)
	case *fold[string]:
		a.minV, a.maxV = types.NewString(f.min), types.NewString(f.max)
	}
}

func (a *aggState) result(f AggFunc, t types.ColType) types.Value {
	switch f {
	case Count:
		return types.NewInt(a.count)
	case Sum:
		if t == types.Int64 {
			return types.NewInt(a.sumI)
		}
		return types.NewFloat(a.sumF)
	case Min:
		if !a.hasVal {
			return types.Null(t)
		}
		return a.minV
	case Max:
		if !a.hasVal {
			return types.Null(t)
		}
		return a.maxV
	default: // Avg
		if a.count == 0 {
			return types.Null(types.Float64)
		}
		if t == types.Int64 {
			return types.NewFloat(float64(a.sumI) / float64(a.count))
		}
		return types.NewFloat(a.sumF / float64(a.count))
	}
}

// Aggregate runs a grouped aggregation over the filtered view. The result
// rows contain the group-by values followed by one value per AggSpec. With
// no group columns a single row is returned. Segment inputs use columnar
// access, and so does the write buffer's columnar image on a full scan;
// the rows the image does not cover are folded in row-wise, so analytics
// always see data that has not been flushed yet (the HTAP property of §4).
func Aggregate(view *core.View, filter Node, groupCols []int, aggs []AggSpec, scan *Scan) []types.Row {
	if scan == nil {
		scan = NewScan(view, filter)
	}
	groups := map[string]*aggGroup{}
	// order tracks first-seen group keys so the output is deterministic for
	// a given view (scan order is deterministic: buffer, then segments).
	var order []*aggGroup
	var keyBuf []byte
	touch := func(key types.Row) *aggGroup {
		keyBuf = types.EncodeKey(keyBuf[:0], key...)
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &aggGroup{key: key.Clone(), states: make([]aggState, len(aggs))}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		return g
	}
	resultType := make([]types.ColType, len(aggs))
	for ai, a := range aggs {
		if a.Expr == nil && a.Col >= 0 {
			resultType[ai] = view.Schema.Columns[a.Col].Type
		} else {
			resultType[ai] = types.Float64 // refined per value below
		}
	}

	// keyScratch is reused across rows: touch clones the key on first sight
	// of a group, so handing it a shared scratch row is safe and removes a
	// per-row allocation.
	keyScratch := make(types.Row, len(groupCols))
	addRow := func(r types.Row) {
		key := keyScratch
		for i, c := range groupCols {
			key[i] = r[c]
		}
		g := touch(key)
		for ai, a := range aggs {
			var v types.Value
			switch {
			case a.Func == Count && a.Expr == nil && a.Col < 0:
				v = types.NewInt(1)
			case a.Expr != nil:
				v = a.Expr(r)
				resultType[ai] = v.Type
			default:
				v = r[a.Col]
			}
			g.states[ai].add(v)
		}
	}

	// Each segment — and the write buffer's columnar image — dispatches to
	// a single-pass fused kernel when its shape and encodings allow;
	// otherwise the general path materializes rows lazily (late
	// materialization: only the columns the grouping and aggregates read
	// decode, and for dense selections each decodes once). Either way the
	// same group table fills in the same order.
	fuser := newAggFuser(groupCols, aggs, touch, resultType)
	proj := aggProjection(groupCols, aggs)
	segment := func(ctx *SegContext, spans []Span) {
		if mode := fuser.classify(ctx); mode != fuseNone && fuser.run(mode, ctx, spans) {
			if ctx.Stats != nil && ctx.image == nil {
				ctx.Stats.FusedAggSegs++
			}
			return
		}
		mat := ctx.Materializer(proj, spanRows(spans)*4 >= ctx.Meta.Seg.NumRows)
		for _, sp := range spans {
			for i := sp.Start; i < sp.End; i++ {
				addRow(mat(int(i)))
			}
		}
	}
	scan.RunBuffer(func(r types.Row) bool { addRow(r); return true }, segment)
	scan.RunSegments(segment)

	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(groupCols)+len(aggs))
		row = append(row, g.key...)
		for ai, a := range aggs {
			row = append(row, g.states[ai].result(a.Func, resultType[ai]))
		}
		out = append(out, row)
	}
	return out
}

// allPlainAggs reports whether every aggregate reads a plain column (no
// expressions), the precondition for encoded group-by.
func allPlainAggs(aggs []AggSpec) bool {
	for _, a := range aggs {
		if a.Expr != nil {
			return false
		}
	}
	return true
}

// aggProjection returns the set of columns a grouped aggregation reads, or
// nil when an expression's column set is unknown.
func aggProjection(groupCols []int, aggs []AggSpec) []int {
	seen := map[int]bool{}
	var out []int
	add := func(c int) {
		if c >= 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range groupCols {
		add(c)
	}
	for _, a := range aggs {
		if a.Expr != nil {
			if a.ExprCols == nil {
				return nil
			}
			for _, c := range a.ExprCols {
				add(c)
			}
			continue
		}
		add(a.Col)
	}
	return out
}

// SortKey orders result rows. Name, when non-empty, references the column
// by name and is resolved against the table schema (or the group-by output
// columns, for aggregate queries) at execution time.
type SortKey struct {
	Col  int
	Name string
	Desc bool
}

// SortRows sorts rows by the given keys.
func SortRows(rows []types.Row, keys []SortKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := types.Compare(rows[i][k.Col], rows[j][k.Col])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// Limit truncates rows to at most n.
func Limit(rows []types.Row, n int) []types.Row {
	if len(rows) > n {
		return rows[:n]
	}
	return rows
}
