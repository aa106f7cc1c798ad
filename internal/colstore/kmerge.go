// Columnar k-way merge (§2.1.2): the background merger's inner loop.
//
// Sorted runs are already ordered and non-overlapping on the sort key, so
// re-sorting their union row by row (materialize every live row, then an
// O(N log N) resort over boxed values) throws away the work previous merges
// and flushes did. KMerge instead walks one cursor per run over *decoded
// column vectors* — reusing vectors already resident in the execution
// layer's decoded-vector cache when a VectorSource is supplied — and merges
// them with a small binary heap keyed on the sort-key column: O(N log k)
// comparisons on unboxed values, no types.Row materialization at all. The
// merged order is then fed column-wise into the codec builders, so payload
// bytes move straight from decoded input vectors to encoded output columns.
package colstore

import (
	"math"
	"sort"

	"s2db/internal/bitmap"
	"s2db/internal/codec"
	"s2db/internal/types"
)

// VectorSource provides already-decoded column vectors for immutable
// segments, typically the execution layer's decoded-vector cache. Peek
// calls must not decode on a miss and must not perturb cache state (the
// merger is about to retire these segments; promoting them would evict
// genuinely hot entries).
type VectorSource interface {
	PeekInts(seg *Segment, col int) ([]int64, bool)
	PeekStrs(seg *Segment, col int) ([]string, bool)
}

// OutLoc is the output location of one input row after a merge: Seg indexes
// the merger's outputs, Off is the row offset inside that output. Seg < 0
// marks a row that was deleted at merge time and has no output location.
type OutLoc struct {
	Seg int32
	Off int32
}

// srcLoc addresses one live input row: an index into the flattened input
// list plus the row offset inside that segment.
type srcLoc struct {
	input int32
	off   int32
}

// colVec is one decoded input column: exactly one payload slice is set
// depending on the column type; nulls is shared with the segment (nil when
// the column has none).
type colVec struct {
	ints  []int64
	strs  []string
	nulls *bitmap.Bitmap
}

// KMerge merges the live rows of several sorted runs into output chunks of
// at most maxRows rows each, entirely in columnar form.
type KMerge struct {
	schema  *types.Schema
	maxRows int
	inputs  []*Meta
	cols    [][]colVec // [input][column]
	ord     []srcLoc   // merged order of live rows
}

// NewKMerge prepares a merge of the given runs. Each run's segments must be
// individually sorted by the schema's sort key and mutually non-overlapping
// (the LSM invariant); runs are listed oldest first, which decides the
// order of equal keys. src, when non-nil, supplies already-decoded vectors.
func NewKMerge(runs [][]*Meta, schema *types.Schema, maxRows int, src VectorSource) *KMerge {
	if maxRows <= 0 {
		maxRows = MaxSegmentRows
	}
	k := &KMerge{schema: schema, maxRows: maxRows}
	runStarts := make([]int, len(runs))
	for i, run := range runs {
		run = append([]*Meta(nil), run...)
		sortRunMetas(run, schema)
		runStarts[i] = len(k.inputs)
		k.inputs = append(k.inputs, run...)
	}
	k.decodeInputs(src)
	total := 0
	for _, m := range k.inputs {
		total += m.LiveRows()
	}
	k.ord = make([]srcLoc, 0, total)
	if schema.SortKey < 0 {
		// No sort key: output order is run order, segment order, row order.
		for i, m := range k.inputs {
			for r := 0; r < m.Seg.NumRows; r++ {
				if !m.Deleted.Get(r) {
					k.ord = append(k.ord, srcLoc{input: int32(i), off: int32(r)})
				}
			}
		}
		return k
	}
	k.mergeOrder(runs, runStarts)
	return k
}

// sortRunMetas orders one run's segments by sort-key range (all-null
// segments first, mirroring null-first value ordering), then by id for
// determinism. Flushes produce single-segment runs; merge outputs are
// created in key order with ascending ids, so this is usually a no-op.
func sortRunMetas(run []*Meta, schema *types.Schema) {
	key := schema.SortKey
	sort.Slice(run, func(i, j int) bool {
		a, b := run[i].Seg, run[j].Seg
		if key >= 0 {
			av, bv := types.Null(schema.Columns[key].Type), types.Null(schema.Columns[key].Type)
			if a.HasRange[key] {
				av = a.Min[key]
			}
			if b.HasRange[key] {
				bv = b.Min[key]
			}
			if c := types.Compare(av, bv); c != 0 {
				return c < 0
			}
		}
		return a.ID < b.ID
	})
}

// decodeInputs fills k.cols with every input's decoded column vectors,
// peeking at the vector source first so cache-resident vectors are reused
// instead of re-decoded.
func (k *KMerge) decodeInputs(src VectorSource) {
	k.cols = make([][]colVec, len(k.inputs))
	for i, m := range k.inputs {
		cv := make([]colVec, len(k.schema.Columns))
		for c, col := range k.schema.Columns {
			cv[c].nulls = m.Seg.Cols[c].Nulls
			switch col.Type {
			case types.Int64, types.Float64:
				if src != nil {
					if v, ok := src.PeekInts(m.Seg, c); ok {
						cv[c].ints = v
						continue
					}
				}
				cv[c].ints = m.Seg.Cols[c].Ints.DecodeAll(make([]int64, 0, m.Seg.NumRows))
			case types.String:
				if src != nil {
					if v, ok := src.PeekStrs(m.Seg, c); ok {
						cv[c].strs = v
						continue
					}
				}
				cv[c].strs = m.Seg.Cols[c].Strs.DecodeAll(make([]string, 0, m.Seg.NumRows))
			}
		}
		k.cols[i] = cv
	}
}

// runCursor walks one run's live rows in order.
type runCursor struct {
	runIdx int     // position in the runs list; breaks key ties (older run wins)
	inputs []int32 // flat input indices of this run's segments, in order
	pos    int     // current segment (index into inputs)
	off    int32   // current row offset
	// Cached state of the current segment.
	n     int32
	del   *bitmap.Bitmap
	key   colVec
	input int32
}

// load caches the cursor's current segment; reports false when the run is
// exhausted.
func (c *runCursor) load(k *KMerge) bool {
	for c.pos < len(c.inputs) {
		c.input = c.inputs[c.pos]
		m := k.inputs[c.input]
		c.n = int32(m.Seg.NumRows)
		c.del = m.Deleted
		c.key = k.cols[c.input][k.schema.SortKey]
		if c.off < c.n {
			return true
		}
		c.pos++
		c.off = 0
	}
	return false
}

// next advances to the next live row; reports false when the run is
// exhausted.
func (c *runCursor) next(k *KMerge) bool {
	for {
		if !c.load(k) {
			return false
		}
		if !c.del.Get(int(c.off)) {
			return true
		}
		c.off++
	}
}

// less orders two cursors by their current sort-key value with nulls first
// (types.Compare semantics), breaking ties by run order so the merge is
// deterministic and equal keys keep the older run's rows first.
func (k *KMerge) less(a, b *runCursor) bool {
	an := a.key.nulls != nil && a.key.nulls.Get(int(a.off))
	bn := b.key.nulls != nil && b.key.nulls.Get(int(b.off))
	if an || bn {
		if an && bn {
			return a.runIdx < b.runIdx
		}
		return an
	}
	switch k.schema.Columns[k.schema.SortKey].Type {
	case types.Int64:
		av, bv := a.key.ints[a.off], b.key.ints[b.off]
		if av != bv {
			return av < bv
		}
	case types.Float64:
		av := math.Float64frombits(uint64(a.key.ints[a.off]))
		bv := math.Float64frombits(uint64(b.key.ints[b.off]))
		if av < bv {
			return true
		}
		if av > bv {
			return false
		}
	default:
		av, bv := a.key.strs[a.off], b.key.strs[b.off]
		if av != bv {
			return av < bv
		}
	}
	return a.runIdx < b.runIdx
}

// mergeOrder computes the global sorted order with a binary min-heap of run
// cursors. Runs are already sorted, so this is O(N log k) comparisons over
// unboxed key values.
func (k *KMerge) mergeOrder(runs [][]*Meta, runStarts []int) {
	heap := make([]*runCursor, 0, len(runs))
	for i, run := range runs {
		c := &runCursor{runIdx: i, inputs: make([]int32, len(run))}
		for j := range run {
			c.inputs[j] = int32(runStarts[i] + j)
		}
		if c.next(k) {
			heap = append(heap, c)
		}
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			least := i
			if l < len(heap) && k.less(heap[l], heap[least]) {
				least = l
			}
			if r < len(heap) && k.less(heap[r], heap[least]) {
				least = r
			}
			if least == i {
				return
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 {
		top := heap[0]
		k.ord = append(k.ord, srcLoc{input: top.input, off: top.off})
		top.off++
		if top.next(k) {
			siftDown(0)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			siftDown(0)
		}
	}
}

// Inputs returns the flattened input metas in merge order (runs in caller
// order, segments within a run in sort-key order).
func (k *KMerge) Inputs() []*Meta { return k.inputs }

// NumRows returns the number of live rows across all inputs.
func (k *KMerge) NumRows() int { return len(k.ord) }

// NumOutputs returns the number of output segments.
func (k *KMerge) NumOutputs() int { return (len(k.ord) + k.maxRows - 1) / k.maxRows }

// Remaps returns, per input (aligned with Inputs), the output location of
// every input row offset.
func (k *KMerge) Remaps() [][]OutLoc {
	out := make([][]OutLoc, len(k.inputs))
	for i, m := range k.inputs {
		r := make([]OutLoc, m.Seg.NumRows)
		for j := range r {
			r[j] = OutLoc{Seg: -1, Off: -1}
		}
		out[i] = r
	}
	for p, s := range k.ord {
		out[s.input][s.off] = OutLoc{Seg: int32(p / k.maxRows), Off: int32(p % k.maxRows)}
	}
	return out
}

// BuildOutput builds output chunk i as a segment with the given id: it
// gathers the chunk's values column by column from the decoded input
// vectors and encodes them directly, without ever materializing a row. Safe
// for concurrent calls on distinct chunks — all shared state is read-only
// after NewKMerge.
func (k *KMerge) BuildOutput(i int, id uint64) *Segment {
	start := i * k.maxRows
	end := start + k.maxRows
	if end > len(k.ord) {
		end = len(k.ord)
	}
	ord := k.ord[start:end]
	n := len(ord)
	seg := &Segment{
		ID:       id,
		NumRows:  n,
		Cols:     make([]Column, len(k.schema.Columns)),
		Min:      make([]types.Value, len(k.schema.Columns)),
		Max:      make([]types.Value, len(k.schema.Columns)),
		HasRange: make([]bool, len(k.schema.Columns)),
		schema:   k.schema,
	}
	for c, col := range k.schema.Columns {
		var nulls *bitmap.Bitmap
		setNull := func(j int) {
			if nulls == nil {
				nulls = bitmap.New(n)
			}
			nulls.Set(j)
		}
		switch col.Type {
		case types.Int64, types.Float64:
			vals := make([]int64, n)
			var minV, maxV int64
			var minF, maxF float64
			for j, s := range ord {
				cv := &k.cols[s.input][c]
				if cv.nulls != nil && cv.nulls.Get(int(s.off)) {
					setNull(j)
					continue
				}
				v := cv.ints[s.off]
				vals[j] = v
				if col.Type == types.Int64 {
					if !seg.HasRange[c] {
						minV, maxV = v, v
					} else {
						if v < minV {
							minV = v
						}
						if v > maxV {
							maxV = v
						}
					}
				} else {
					f := math.Float64frombits(uint64(v))
					if !seg.HasRange[c] {
						minF, maxF = f, f
					} else {
						if f < minF {
							minF = f
						}
						if f > maxF {
							maxF = f
						}
					}
				}
				seg.HasRange[c] = true
			}
			if seg.HasRange[c] {
				if col.Type == types.Int64 {
					seg.Min[c], seg.Max[c] = types.NewInt(minV), types.NewInt(maxV)
				} else {
					seg.Min[c], seg.Max[c] = types.NewFloat(minF), types.NewFloat(maxF)
				}
			}
			seg.Cols[c] = Column{Ints: codec.EncodeInts(vals), Nulls: nulls}
		case types.String:
			vals := make([]string, n)
			var minS, maxS string
			for j, s := range ord {
				cv := &k.cols[s.input][c]
				if cv.nulls != nil && cv.nulls.Get(int(s.off)) {
					setNull(j)
					continue
				}
				v := cv.strs[s.off]
				vals[j] = v
				if !seg.HasRange[c] {
					minS, maxS = v, v
					seg.HasRange[c] = true
				} else {
					if v < minS {
						minS = v
					}
					if v > maxS {
						maxS = v
					}
				}
			}
			if seg.HasRange[c] {
				seg.Min[c], seg.Max[c] = types.NewString(minS), types.NewString(maxS)
			}
			seg.Cols[c] = Column{Strs: codec.EncodeStrings(vals), Nulls: nulls}
		}
	}
	return seg
}
