package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// treeDecoder turns fuzz bytes into a filter tree over the kernel table. The
// decoder is total — input past the end reads as zeros — so every byte
// string is a tree.
type treeDecoder struct {
	data  []byte
	known []Node // kernelFilters in name order; usable as subtrees
}

func (d *treeDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

// Node kinds of the byte grammar.
const (
	fzLeaf = iota
	fzIn
	fzAnd
	fzOr
	fzKnown
	fzKinds
)

// node decodes one subtree; junctions are allowed down to depth 3.
func (d *treeDecoder) node(depth int) Node {
	kind := d.next() % fzKinds
	if depth >= 3 && (kind == fzAnd || kind == fzOr) {
		kind = fzLeaf
	}
	switch kind {
	case fzIn:
		col := d.next() % kernelCols
		vals := make([]types.Value, 1+d.next()%4)
		for i := range vals {
			vals[i] = d.value(col)
		}
		return NewIn(col, vals)
	case fzAnd, fzOr:
		var children []Node
		for n := d.next() % 4; n > 0; n-- {
			if c := d.node(depth + 1); c != nil {
				children = append(children, c)
			}
		}
		if kind == fzAnd {
			return NewAnd(children...)
		}
		return NewOr(children...)
	case fzKnown:
		return CloneNode(d.known[d.next()%len(d.known)]) // nil for "none"
	}
	col := d.next() % kernelCols
	return NewLeaf(col, vector.CmpOp(d.next()%6), d.value(col))
}

// value draws a comparison constant for col: a value some kernel row holds
// (NULLs included), that value nudged just off the data, a constant just
// below or above the column's whole domain, or — for floats — -0.0 (which
// equals the rows holding 0.0) and NaN (which equals nothing).
func (d *treeDecoder) value(col int) types.Value {
	mode, v := d.next()%6, kernelRow(d.next() * 3)[col]
	if mode == 0 || v.IsNull || (mode > 3 && v.Type != types.Float64) {
		return v
	}
	switch v.Type {
	case types.Int64:
		return types.NewInt([]int64{v.I + 1, -1, 1 << 40}[mode-1])
	case types.Float64:
		return types.NewFloat([]float64{v.F + 0.125, -0.25, 1e6, math.Copysign(0, -1), math.NaN()}[mode-1])
	}
	return types.NewString([]string{v.S + "x", "", "zzz"}[mode-1])
}

// FuzzFilterTree checks random filter trees — leaves with all six operators,
// IN lists, And/Or to depth 3, the kernelFilters as building blocks — against
// row-at-a-time EvalRow, over the ten-column kernel table (deletes, nulls,
// buffer rows) at three segment sizes. Each tree runs cold, warm (adaptive
// reordering, group filter) and guarded.
func FuzzFilterTree(f *testing.F) {
	names := make([]string, 0, len(kernelFilters()))
	for name := range kernelFilters() {
		names = append(names, name)
	}
	sort.Strings(names)
	known := make([]Node, len(names))
	for i, name := range names {
		known[i] = kernelFilters()[name]
		f.Add([]byte{fzKnown, byte(i)})
	}
	// x IN (NULL) and x = NULL are never true, in a segment as in the buffer.
	f.Add([]byte{fzIn, 5, 1, 0, 0, 1, 1})
	f.Add([]byte{fzLeaf, 6, byte(vector.Eq), 0, 0})

	views := fuzzViews(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &treeDecoder{data: data, known: known}
		tree := d.node(0)
		for _, view := range views {
			label := fmt.Sprintf("%s over %d segments", FormatNode(tree, view.Schema), len(view.Segs))
			checkFilter(t, label, view, tree, refRows(view, tree))
		}
	})
}

// fuzzViews are the views the kernel fuzzers check: the kernel table at
// three segment sizes with 40 buffered rows, which full scans walk, and
// one with 200, which full scans read through the buffer's columnar image
// (in key order: no write follows the view, so its delta stays empty).
func fuzzViews(f *testing.F) []*core.View {
	var views []*core.View
	for _, c := range []struct{ maxSegRows, buffered int }{{32, 40}, {64, 40}, {4096, 40}, {64, 200}} {
		tbl := newKernelTable(f, c.maxSegRows)
		fillKernel(f, tbl, 500, c.buffered)
		views = append(views, tbl.Snapshot())
	}
	return views
}

// fuzzExprs are the expression aggregates FuzzAggregate draws from: a
// product whose float sums round (so fold order shows in the bits), a
// passthrough of the nullable float column, and an integer expression.
var fuzzExprs = []struct {
	f    func(r types.Row) types.Value
	cols []int
}{
	{func(r types.Row) types.Value { return types.NewFloat(float64(r[3].I) * (1 - r[4].F/100)) }, []int{3, 4}},
	{func(r types.Row) types.Value { return r[7] }, []int{7}},
	{func(r types.Row) types.Value { return types.NewInt(r[0].I * 3) }, []int{0}},
}

// aggShape decodes fuzz bytes into a filter, group columns and aggregate
// specs. Like treeDecoder, it is total: every byte string is a shape.
func (d *treeDecoder) aggShape(names []string) (Node, []int, []AggSpec) {
	filter := kernelFilters()[names[d.next()%len(names)]]
	groupCols := make([]int, d.next()%3)
	for i := range groupCols {
		groupCols[i] = d.next() % kernelCols
	}
	aggs := make([]AggSpec, 1+d.next()%4)
	for i := range aggs {
		a := AggSpec{Func: AggFunc(d.next() % 5)}
		switch k := d.next() % 8; k {
		case 0:
			a.Func, a.Col = Count, -1
		case 1, 2:
			e := fuzzExprs[d.next()%len(fuzzExprs)]
			a.Expr = e.f
			if k == 1 {
				a.ExprCols = e.cols // k == 2 leaves them unknown: no fusing
			}
		default:
			a.Col = d.next() % kernelCols
		}
		aggs[i] = a
	}
	return filter, groupCols, aggs
}

// sameBits compares result rows value by value, floats by their bits.
func sameBits(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.Type != y.Type || x.IsNull != y.IsNull || x.I != y.I || x.S != y.S ||
				math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		}
	}
	return true
}

// FuzzAggregate checks random aggregations — up to two group columns of
// any type (dictionary strings and bounded, wide, overflowing and nullable
// ints among them), up to four aggregate specs over any column or an expression,
// under every kernelFilter — against the row-at-a-time refAggregate, float
// bits included: every fused kernel folds a group's rows in the order the
// general path adds them. Each shape runs over the kernel table at three
// segment sizes, plain and with guarded filters.
func FuzzAggregate(f *testing.F) {
	names := make([]string, 0, len(kernelFilters()))
	for name := range kernelFilters() {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := range names {
		f.Add([]byte{byte(i), 0, 3, 3, 4, 3, 8, 4, 3, 7, 1, 1, 0})     // global sums over floats + an expression
		f.Add([]byte{byte(i), 1, 1, 2, 2, 3, 9, 3, 3, 7, 4, 3, 8})     // dict group-by over RLE and nullable columns
		f.Add([]byte{byte(i), 2, 1, 2, 3, 1, 1, 0, 0, 0, 2, 1, 5})     // two dict columns with expressions
		f.Add([]byte{byte(i), 1, 7, 3, 2, 1, 2, 0, 4, 3, 10, 2, 2, 1}) // general path: a float group column
		f.Add([]byte{byte(i), 1, 7, 0, 0, 0})                          // COUNT(*) by fnull: -0.0 and 0.0 are one group
		f.Add([]byte{byte(i), 2, 7, 8, 1, 0, 0, 1, 3, 4})              // by (fnull, frle): COUNT(*), SUM(score)

		// Every aggregate function over one column, and COUNT(col) beside COUNT(*).
		f.Add([]byte{byte(i), 0, 3, 2, 3, 5, 3, 3, 5, 1, 3, 5, 4, 3, 5})    // global MIN, MAX, SUM, AVG of nullable hi
		f.Add([]byte{byte(i), 1, 1, 3, 2, 3, 4, 3, 3, 4, 1, 3, 4, 4, 3, 4}) // by cat: MIN, MAX, SUM, AVG of score
		f.Add([]byte{byte(i), 1, 11, 2, 0, 3, 7, 0, 0, 0, 3, 4})            // by small: COUNT(fnull), COUNT(*), COUNT(score)
	}
	// Dictionary group-bys whose filter removes every row of some codes.
	for _, c := range []struct {
		filter string
		data   []byte
	}{
		{"dict-gt", []byte{1, 1, 1, 0, 0, 1, 3, 4}}, // by cat: COUNT(*), SUM(score)
		{"in-list", []byte{1, 2, 1, 0, 0, 4, 3, 7}}, // by status: COUNT(*), AVG(fnull)
	} {
		f.Add(append([]byte{byte(sort.SearchStrings(names, c.filter))}, c.data...))
	}
	// Int group columns, unfiltered and under an RLE range.
	for _, filter := range []string{"none", "rle-range"} {
		i := byte(sort.SearchStrings(names, filter))
		f.Add([]byte{i, 1, 11, 2, 1, 3, 4, 4, 3, 9, 0, 0}) // by small (-3..3): SUM(score), AVG(irle), COUNT(*)
		f.Add([]byte{i, 2, 1, 12, 1, 1, 1, 0, 0, 0})       // by (cat, konst): an expression, COUNT(*)
		f.Add([]byte{i, 2, 16, 2, 1, 3, 3, 4, 3, 7})       // by (runs, status): RLE int + dict keys
		f.Add([]byte{i, 1, 13, 1, 1, 3, 4, 0, 0})          // by w4095: the widest span that fuses
		f.Add([]byte{i, 1, 14, 1, 1, 3, 4, 0, 0})          // by w4096: one past it, general path
		f.Add([]byte{i, 1, 15, 0, 1, 3, 15})               // by huge: a span that overflows int64
		f.Add([]byte{i, 2, 12, 13, 0, 1, 3, 8})            // by (konst, w4095): 4096 codes in all
		f.Add([]byte{i, 1, 5, 1, 0, 0, 2, 3, 4})           // by hi: a nullable int falls back
	}
	views := fuzzViews(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &treeDecoder{data: data}
		filter, groupCols, aggs := d.aggShape(names)
		for _, view := range views {
			want := refAggregate(refRows(view, filter), groupCols, aggs)
			for _, guarded := range []bool{false, true} {
				got, _ := runAgg(t, view, filter, groupCols, aggs, guarded)
				sortByGroupKey(got, len(groupCols))
				if !sameBits(got, want) {
					t.Fatalf("%s group by %v aggs %+v over %d segments (guarded=%v):\ngot:  %v\nwant: %v",
						FormatNode(filter, view.Schema), groupCols, aggs, len(view.Segs), guarded, got, want)
				}
			}
		}
	})
}
