package exec

import (
	"fmt"
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
		col := d.next() % 7
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
	col := d.next() % 7
	return NewLeaf(col, vector.CmpOp(d.next()%6), d.value(col))
}

// value draws a comparison constant for col: a value some kernel row holds
// (NULLs included), that value nudged just off the data, or a constant just
// below or above the column's whole domain.
func (d *treeDecoder) value(col int) types.Value {
	mode, v := d.next()%4, kernelRow(d.next() * 3)[col]
	if mode == 0 || v.IsNull {
		return v
	}
	switch v.Type {
	case types.Int64:
		return types.NewInt([]int64{v.I + 1, -1, 1 << 40}[mode-1])
	case types.Float64:
		return types.NewFloat([]float64{v.F + 0.125, -0.25, 1e6}[mode-1])
	}
	return types.NewString([]string{v.S + "x", "", "zzz"}[mode-1])
}

// FuzzFilterTree checks random filter trees — leaves with all six operators,
// IN lists, And/Or to depth 3, the kernelFilters as building blocks — against
// row-at-a-time EvalRow, over the seven-column kernel table (deletes, nulls,
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

	var views []*core.View
	for _, maxSegRows := range []int{32, 64, 4096} {
		tbl := newKernelTable(f, maxSegRows)
		fillKernel(f, tbl, 500, 40)
		views = append(views, tbl.Snapshot())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &treeDecoder{data: data, known: known}
		tree := d.node(0)
		for _, view := range views {
			label := fmt.Sprintf("%s over %d segments", FormatNode(tree, view.Schema), len(view.Segs))
			checkFilter(t, label, view, tree, refRows(view, tree))
		}
	})
}
