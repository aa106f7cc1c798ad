package exec

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"s2db/internal/core"
	"s2db/internal/types"
)

// The oracle every segment strategy is checked against: Node.EvalRow —
// what production already treats as ground truth for buffer rows — applied
// row-at-a-time to seg.ValueAt rows. Nothing here touches spans, strategy
// choice, decoded vectors or the aggregation kernels.

// refRows returns the rows of view that pass filter, in scan order: visible
// buffer rows, then each segment's live offsets ascending.
func refRows(view *core.View, filter Node) []types.Row {
	var out []types.Row
	view.ScanBuffer(func(r types.Row) bool {
		if filter == nil || filter.EvalRow(r) {
			out = append(out, r.Clone())
		}
		return true
	})
	for _, m := range view.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			if m.Deleted.Get(i) {
				continue
			}
			r := make(types.Row, len(view.Schema.Columns))
			for c := range r {
				r[c] = m.Seg.ValueAt(i, c)
			}
			if filter == nil || filter.EvalRow(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// refAcc is one aggregate's row-at-a-time state.
type refAcc struct {
	n        int64 // non-null inputs (all rows for COUNT(*))
	sumI     int64
	sumF     float64
	min, max types.Value
	t        types.ColType
}

// refAggregate groups rows (from refRows) by groupCols and folds aggs one
// row at a time; the result has Aggregate's row shape, sorted by encoded
// group key.
func refAggregate(rows []types.Row, groupCols []int, aggs []AggSpec) []types.Row {
	type group struct {
		enc  []byte
		key  types.Row
		accs []refAcc
	}
	groups := map[string]*group{}
	for _, r := range rows {
		key := make(types.Row, len(groupCols))
		for i, c := range groupCols {
			key[i] = r[c]
		}
		enc := types.EncodeKey(nil, key...)
		g := groups[string(enc)]
		if g == nil {
			g = &group{enc: enc, key: key, accs: make([]refAcc, len(aggs))}
			groups[string(enc)] = g
		}
		for ai, a := range aggs {
			acc := &g.accs[ai]
			var v types.Value
			switch {
			case a.Expr != nil:
				v = a.Expr(r)
			case a.Col < 0:
				acc.n++ // COUNT(*)
				continue
			default:
				v = r[a.Col]
			}
			acc.t = v.Type
			if v.IsNull {
				continue
			}
			if acc.n == 0 || types.Compare(v, acc.min) < 0 {
				acc.min = v
			}
			if acc.n == 0 || types.Compare(v, acc.max) > 0 {
				acc.max = v
			}
			acc.n++
			acc.sumI += v.I
			acc.sumF += v.F
		}
	}
	sorted := make([]*group, 0, len(groups))
	for _, g := range groups {
		sorted = append(sorted, g)
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].enc, sorted[j].enc) < 0 })
	out := make([]types.Row, 0, len(sorted))
	for _, g := range sorted {
		row := append(types.Row{}, g.key...)
		for ai, a := range aggs {
			acc := g.accs[ai]
			var v types.Value
			switch {
			case a.Func == Count:
				v = types.NewInt(acc.n)
			case a.Func == Sum && acc.t == types.Int64:
				v = types.NewInt(acc.sumI)
			case a.Func == Sum:
				v = types.NewFloat(acc.sumF)
			case a.Func == Avg && acc.n == 0:
				v = types.Null(types.Float64)
			case a.Func == Avg && acc.t == types.Int64:
				v = types.NewFloat(float64(acc.sumI) / float64(acc.n))
			case a.Func == Avg:
				v = types.NewFloat(acc.sumF / float64(acc.n))
			case acc.n == 0: // MIN/MAX of no values
				v = types.Null(acc.t)
			case a.Func == Min:
				v = acc.min
			default:
				v = acc.max
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

// sortByGroupKey orders Aggregate output the way refAggregate orders its
// own, so the two compare exactly.
func sortByGroupKey(rows []types.Row, nkeys int) {
	sort.SliceStable(rows, func(i, j int) bool {
		return bytes.Compare(types.EncodeKey(nil, rows[i][:nkeys]...), types.EncodeKey(nil, rows[j][:nkeys]...)) < 0
	})
}

// projectRows blanks every column outside proj (nil keeps all), so rows
// from a projected Run and from the oracle compare on what Run promised.
func projectRows(rows []types.Row, proj []int) []types.Row {
	if proj == nil {
		return rows
	}
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		p := make(types.Row, len(r))
		for _, c := range proj {
			p[c] = r[c]
		}
		out[i] = p
	}
	return out
}

// guard is the EvalSpans ownership rule, enforced: it wraps a node,
// snapshots in, and fails the test if the node mutated it, wrote its result
// over it, or returned spans that are not a sorted, disjoint, coalesced
// subset of it. It is transparent to the adaptive statistics.
type guard struct {
	t     testing.TB
	inner Node
}

func (g *guard) stats() *nodeStats        { return g.inner.stats() }
func (g *guard) EvalRow(r types.Row) bool { return g.inner.EvalRow(r) }

func (g *guard) EvalSpans(ctx *SegContext, in, out []Span) []Span {
	snapshot := append([]Span(nil), in...)
	base := len(out)
	res := g.inner.EvalSpans(ctx, in, out)
	if !slices.Equal(snapshot, in) {
		g.t.Errorf("%T mutated its input spans: %v -> %v", g.inner, snapshot, in)
	}
	if len(in) > 0 && len(res) > 0 && &in[0] == &res[0] {
		g.t.Errorf("%T returned its input buffer as output", g.inner)
	}
	k := 0
	for i, sp := range res[base:] {
		if sp.Start >= sp.End || (i > 0 && sp.Start <= res[base+i-1].End) {
			g.t.Errorf("%T output not sorted/disjoint/coalesced: %v", g.inner, res[base:])
			break
		}
		for k < len(snapshot) && snapshot[k].End < sp.End {
			k++
		}
		if k == len(snapshot) || sp.Start < snapshot[k].Start {
			g.t.Errorf("%T output %v is not inside input %v", g.inner, sp, snapshot)
			break
		}
	}
	return res
}

// guardTree rebuilds n with a guard around every node. The wrappers hide
// leaves from the group filter and from index/zone-map segment skipping, so
// suites run a tree both plain and guarded.
func guardTree(t testing.TB, n Node) Node {
	switch f := n.(type) {
	case nil:
		return nil
	case *And:
		c := &And{DisableReorder: f.DisableReorder, DisableGroup: f.DisableGroup}
		for _, ch := range f.Children {
			c.Children = append(c.Children, guardTree(t, ch))
		}
		n = c
	case *Or:
		c := &Or{}
		for _, ch := range f.Children {
			c.Children = append(c.Children, guardTree(t, ch))
		}
		n = c
	case *Throttle:
		n = &Throttle{Inner: guardTree(t, f.Inner), PerSegment: f.PerSegment}
	}
	return &guard{t: t, inner: n}
}
