package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"s2db/internal/types"
)

// buildRunMeta builds one sorted run (a single segment) from rows, applying
// deletes afterwards so Deleted offsets refer to post-sort positions.
func buildRunMeta(schema *types.Schema, id uint64, run int, rows []types.Row, del []int) *Meta {
	b := NewBuilder(schema)
	for _, r := range rows {
		b.Add(r)
	}
	m := NewMeta(b.Build(id), run, fmt.Sprintf("f-%d", id))
	if len(del) > 0 {
		d := m.Deleted.Clone()
		for _, i := range del {
			d.Set(i)
		}
		m = m.CloneWithDeleted(d)
	}
	return m
}

func dumpOutputs(t *testing.T, m interface {
	NumOutputs() int
	BuildOutput(i int, id uint64) *Segment
}, id uint64) [][]types.Row {
	t.Helper()
	var out [][]types.Row
	for i := 0; i < m.NumOutputs(); i++ {
		seg := m.BuildOutput(i, id+uint64(i))
		rows := make([]types.Row, seg.NumRows)
		for j := range rows {
			rows[j] = seg.RowAt(j)
		}
		out = append(out, rows)
	}
	return out
}

// randValue returns a value for column c of the given type; key values are
// drawn from a small domain so cross-run ties are common.
func randValue(rng *rand.Rand, t types.ColType, withNulls bool) types.Value {
	if withNulls && rng.Intn(8) == 0 {
		return types.Null(t)
	}
	switch t {
	case types.Int64:
		return types.NewInt(int64(rng.Intn(64)))
	case types.Float64:
		return types.NewFloat(float64(rng.Intn(64)) / 4)
	default:
		return types.NewString(fmt.Sprintf("k%02d", rng.Intn(64)))
	}
}

// TestKMergeMatchesRowSort checks the columnar k-way merge against the
// legacy row-sort oracle: same outputs row for row and identical remaps,
// across key types, nulls in the sort key, deletes, and tie-heavy data.
func TestKMergeMatchesRowSort(t *testing.T) {
	for _, keyType := range []types.ColType{types.Int64, types.Float64, types.String} {
		for _, withNulls := range []bool{false, true} {
			name := fmt.Sprintf("key=%v/nulls=%v", keyType, withNulls)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				schema := types.NewSchema(
					types.Column{Name: "k", Type: keyType},
					types.Column{Name: "v", Type: types.Int64},
					types.Column{Name: "s", Type: types.String},
				)
				schema.SortKey = 0
				var runs [][]*Meta
				id := uint64(1)
				for r := 0; r < 5; r++ {
					n := 1 + rng.Intn(40)
					rows := make([]types.Row, n)
					for i := range rows {
						rows[i] = types.Row{
							randValue(rng, keyType, withNulls),
							types.NewInt(rng.Int63n(1000)),
							types.NewString(fmt.Sprintf("p-%d-%d", r, i)),
						}
					}
					var del []int
					for i := 0; i < n; i++ {
						if rng.Intn(4) == 0 {
							del = append(del, i)
						}
					}
					runs = append(runs, []*Meta{buildRunMeta(schema, id, r, rows, del)})
					id++
				}
				maxRows := 16
				km := NewKMerge(runs, schema, maxRows, nil)
				rs := NewRowSortMerge(runs, schema, maxRows)
				if km.NumRows() != rs.NumRows() || km.NumOutputs() != rs.NumOutputs() {
					t.Fatalf("shape mismatch: kmerge %d rows/%d outs, rowsort %d rows/%d outs",
						km.NumRows(), km.NumOutputs(), rs.NumRows(), rs.NumOutputs())
				}
				ko := dumpOutputs(t, km, 100)
				ro := dumpOutputs(t, rs, 100)
				for i := range ko {
					for j := range ko[i] {
						for c := range ko[i][j] {
							if !types.Equal(ko[i][j][c], ro[i][j][c]) {
								t.Fatalf("output[%d][%d][%d]: kmerge %v, rowsort %v",
									i, j, c, ko[i][j][c], ro[i][j][c])
							}
						}
					}
				}
				krm, rrm := km.Remaps(), rs.Remaps()
				for i := range krm {
					for j := range krm[i] {
						if krm[i][j] != rrm[i][j] {
							t.Fatalf("remap[%d][%d]: kmerge %+v, rowsort %+v", i, j, krm[i][j], rrm[i][j])
						}
					}
				}
			})
		}
	}
}

// TestKMergeMultiSegmentRun exercises a run holding several ordered,
// non-overlapping segments (the shape a previous merge produces).
func TestKMergeMultiSegmentRun(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "v", Type: types.Int64},
	)
	schema.SortKey = 0
	mk := func(id uint64, run int, lo, n int) *Meta {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(lo + i)), types.NewInt(int64(id))}
		}
		return buildRunMeta(schema, id, run, rows, nil)
	}
	// Run 0: two non-overlapping segments, listed out of key order to prove
	// NewKMerge re-orders them. Run 1: one overlapping-with-both segment.
	runs := [][]*Meta{
		{mk(2, 0, 50, 30), mk(1, 0, 0, 30)},
		{mk(3, 1, 20, 60)},
	}
	km := NewKMerge(runs, schema, 1<<20, nil)
	rs := NewRowSortMerge(runs, schema, 1<<20)
	ko := dumpOutputs(t, km, 10)
	ro := dumpOutputs(t, rs, 10)
	if len(ko) != 1 || len(ro) != 1 || len(ko[0]) != len(ro[0]) {
		t.Fatalf("shape mismatch: %d vs %d outputs", len(ko), len(ro))
	}
	for j := range ko[0] {
		for c := range ko[0][j] {
			if !types.Equal(ko[0][j][c], ro[0][j][c]) {
				t.Fatalf("row %d col %d: %v vs %v", j, c, ko[0][j][c], ro[0][j][c])
			}
		}
	}
}

// TestKMergeNoSortKey: without a sort key the merge concatenates live rows
// in run order.
func TestKMergeNoSortKey(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.String},
	)
	rows := func(base int, n int) []types.Row {
		out := make([]types.Row, n)
		for i := range out {
			out[i] = types.Row{types.NewInt(int64(base + i)), types.NewString(fmt.Sprintf("s%d", base+i))}
		}
		return out
	}
	runs := [][]*Meta{
		{buildRunMeta(schema, 1, 0, rows(100, 5), []int{1})},
		{buildRunMeta(schema, 2, 1, rows(200, 4), nil)},
	}
	km := NewKMerge(runs, schema, 1<<20, nil)
	if km.NumRows() != 8 {
		t.Fatalf("NumRows = %d, want 8", km.NumRows())
	}
	seg := km.BuildOutput(0, 9)
	want := []int64{100, 102, 103, 104, 200, 201, 202, 203}
	for i, w := range want {
		if got := seg.ValueAt(i, 0).I; got != w {
			t.Fatalf("row %d = %d, want %d", i, got, w)
		}
	}
}

// TestKMergeRemapPointsAtIdenticalRow: every live input row is found,
// byte-identical, at its remapped output location; deleted rows map to -1.
func TestKMergeRemapPointsAtIdenticalRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := testSchema()
	schema.SortKey = 0
	var runs [][]*Meta
	for r := 0; r < 4; r++ {
		n := 20 + rng.Intn(20)
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(rng.Int63n(100)),
				types.NewFloat(rng.Float64() * 10),
				types.NewString(fmt.Sprintf("r%d-%d", r, i)),
			}
		}
		var del []int
		for i := 0; i < n; i += 3 {
			del = append(del, i)
		}
		runs = append(runs, []*Meta{buildRunMeta(schema, uint64(r+1), r, rows, del)})
	}
	km := NewKMerge(runs, schema, 32, nil)
	outs := make([]*Segment, km.NumOutputs())
	for i := range outs {
		outs[i] = km.BuildOutput(i, uint64(100+i))
	}
	remaps := km.Remaps()
	for i, m := range km.Inputs() {
		for j := 0; j < m.Seg.NumRows; j++ {
			loc := remaps[i][j]
			if m.Deleted.Get(j) {
				if loc.Seg >= 0 {
					t.Fatalf("deleted row (%d,%d) remapped to %+v", i, j, loc)
				}
				continue
			}
			if loc.Seg < 0 {
				t.Fatalf("live row (%d,%d) has no remap", i, j)
			}
			got := outs[loc.Seg].RowAt(int(loc.Off))
			want := m.Seg.RowAt(j)
			for c := range want {
				if !types.Equal(got[c], want[c]) {
					t.Fatalf("remapped row (%d,%d)→%+v col %d: %v != %v", i, j, loc, c, got[c], want[c])
				}
			}
		}
	}
}

// countingSource counts Peek hits and serves doctored vectors so the test
// can prove cache-resident vectors are actually consumed.
type countingSource struct {
	seg   *Segment
	col   int
	ints  []int64
	peeks int
}

func (s *countingSource) PeekInts(seg *Segment, col int) ([]int64, bool) {
	s.peeks++
	if seg == s.seg && col == s.col {
		return s.ints, true
	}
	return nil, false
}

func (s *countingSource) PeekStrs(seg *Segment, col int) ([]string, bool) {
	s.peeks++
	return nil, false
}

func TestKMergeUsesVectorSource(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "v", Type: types.Int64},
	)
	schema.SortKey = 0
	rows := []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(2), types.NewInt(20)},
	}
	m := buildRunMeta(schema, 1, 0, rows, nil)
	// Serve a doctored payload vector for column 1: if the merge reuses the
	// resident vector, outputs reflect it.
	src := &countingSource{seg: m.Seg, col: 1, ints: []int64{111, 222}}
	km := NewKMerge([][]*Meta{{m}}, schema, 1<<20, src)
	if src.peeks == 0 {
		t.Fatal("vector source never consulted")
	}
	seg := km.BuildOutput(0, 5)
	if got := seg.ValueAt(0, 1).I; got != 111 {
		t.Fatalf("resident vector not used: got %d, want 111", got)
	}
}

// TestKMergeFloatKeyOrdering pins float key comparison semantics (IEEE bits
// stored, float compare order).
func TestKMergeFloatKeyOrdering(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", Type: types.Float64})
	schema.SortKey = 0
	mk := func(id uint64, run int, vals ...float64) *Meta {
		rows := make([]types.Row, len(vals))
		for i, v := range vals {
			rows[i] = types.Row{types.NewFloat(v)}
		}
		return buildRunMeta(schema, id, run, rows, nil)
	}
	runs := [][]*Meta{
		{mk(1, 0, -5.5, 0.25, 3)},
		{mk(2, 1, math.Inf(-1), -1, 0.25, 100)},
	}
	km := NewKMerge(runs, schema, 1<<20, nil)
	seg := km.BuildOutput(0, 9)
	want := []float64{math.Inf(-1), -5.5, -1, 0.25, 0.25, 3, 100}
	for i, w := range want {
		if got := seg.ValueAt(i, 0).F; got != w {
			t.Fatalf("row %d = %v, want %v", i, got, w)
		}
	}
}

// TestPickMergeCacheAware: with more candidates than fanout, hot runs are
// skipped; zero-heat extras still merge; nil heat merges everything.
func TestPickMergeCacheAware(t *testing.T) {
	sizes := map[int]int{1: 10, 2: 11, 3: 9, 4: 12, 5: 10, 6: 11}
	// Nil heat: size-only behavior merges the whole tier.
	if p := PickMerge(sizes, 4, nil); p == nil || len(p.Runs) != 6 {
		t.Fatalf("nil heat: got %+v, want all 6 runs", p)
	}
	// Runs 2 and 5 are hot: the planner must pick the 4 cold ones.
	heat := map[int]int64{2: 1 << 20, 5: 1 << 10}
	p := PickMerge(sizes, 4, heat)
	if p == nil || len(p.Runs) != 4 {
		t.Fatalf("hot runs: got %+v, want 4 cold runs", p)
	}
	for _, r := range p.Runs {
		if r == 2 || r == 5 {
			t.Fatalf("hot run %d selected in %+v", r, p.Runs)
		}
	}
	// One hot run out of six: four coldest merge plus the fifth zero-heat
	// run rides along; only the hot one is left out.
	p = PickMerge(sizes, 4, map[int]int64{3: 1 << 20})
	if p == nil || len(p.Runs) != 5 {
		t.Fatalf("one hot run: got %+v, want 5 runs", p)
	}
	for _, r := range p.Runs {
		if r == 3 {
			t.Fatalf("hot run 3 selected in %+v", p.Runs)
		}
	}
}
