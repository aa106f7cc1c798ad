package colstore

import (
	"sort"

	"s2db/internal/types"
)

// RowSortMerge is the pre-columnar merge algorithm: materialize every live
// row, stable-sort the union by the sort key, rebuild segments from rows.
// It is kept as the independent oracle kmerge_test.go checks the k-way
// merge against.
type RowSortMerge struct {
	schema  *types.Schema
	maxRows int
	inputs  []*Meta
	rows    []types.Row
	origins []srcLoc
}

// NewRowSortMerge prepares a row-materializing merge of the given runs,
// flattening them in the same order as NewKMerge.
func NewRowSortMerge(runs [][]*Meta, schema *types.Schema, maxRows int) *RowSortMerge {
	if maxRows <= 0 {
		maxRows = MaxSegmentRows
	}
	r := &RowSortMerge{schema: schema, maxRows: maxRows}
	for _, run := range runs {
		run = append([]*Meta(nil), run...)
		sortRunMetas(run, schema)
		r.inputs = append(r.inputs, run...)
	}
	for i, m := range r.inputs {
		for j := 0; j < m.Seg.NumRows; j++ {
			if !m.Deleted.Get(j) {
				r.rows = append(r.rows, m.Seg.RowAt(j))
				r.origins = append(r.origins, srcLoc{input: int32(i), off: int32(j)})
			}
		}
	}
	if schema.SortKey >= 0 {
		key := []int{schema.SortKey}
		idxs := make([]int, len(r.rows))
		for i := range idxs {
			idxs[i] = i
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			return types.CompareRows(r.rows[idxs[a]], r.rows[idxs[b]], key) < 0
		})
		nr := make([]types.Row, len(r.rows))
		no := make([]srcLoc, len(r.origins))
		for i, j := range idxs {
			nr[i], no[i] = r.rows[j], r.origins[j]
		}
		r.rows, r.origins = nr, no
	}
	return r
}

// Inputs mirrors KMerge.Inputs.
func (r *RowSortMerge) Inputs() []*Meta { return r.inputs }

// NumRows mirrors KMerge.NumRows.
func (r *RowSortMerge) NumRows() int { return len(r.rows) }

// NumOutputs mirrors KMerge.NumOutputs.
func (r *RowSortMerge) NumOutputs() int { return (len(r.rows) + r.maxRows - 1) / r.maxRows }

// BuildOutput mirrors KMerge.BuildOutput.
func (r *RowSortMerge) BuildOutput(i int, id uint64) *Segment {
	start := i * r.maxRows
	end := start + r.maxRows
	if end > len(r.rows) {
		end = len(r.rows)
	}
	return buildFromRows(id, r.schema, r.rows[start:end])
}

// Remaps mirrors KMerge.Remaps.
func (r *RowSortMerge) Remaps() [][]OutLoc {
	out := make([][]OutLoc, len(r.inputs))
	for i, m := range r.inputs {
		rm := make([]OutLoc, m.Seg.NumRows)
		for j := range rm {
			rm[j] = OutLoc{Seg: -1, Off: -1}
		}
		out[i] = rm
	}
	for p, s := range r.origins {
		out[s.input][s.off] = OutLoc{Seg: int32(p / r.maxRows), Off: int32(p % r.maxRows)}
	}
	return out
}
