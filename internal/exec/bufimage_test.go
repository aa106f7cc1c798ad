package exec

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s2db/internal/bitmap"
	"s2db/internal/colstore"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// liveSpansPerBit is the per-row loop liveSpans replaced: the oracle its
// word-at-a-time span extraction must match.
func liveSpansPerBit(meta *colstore.Meta) []Span {
	var out []Span
	for i := 0; i < meta.Seg.NumRows; i++ {
		if !meta.Deleted.Get(i) {
			out = appendSpan(out, int32(i), int32(i+1))
		}
	}
	return out
}

func TestLiveSpansMatchesPerBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		del := bitmap.New(n)
		// Densities from empty to full, with runs that cross word borders.
		density := rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				run := 1 + rng.Intn(80)
				for j := i; j < min(n, i+run); j++ {
					del.Set(j)
				}
				i += run
			}
		}
		meta := &colstore.Meta{Seg: colstore.NewStub(1, n, nil), Deleted: del}
		got, want := liveSpans(meta, nil), liveSpansPerBit(meta)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: liveSpans %v, per-bit loop %v", n, got, want)
		}
	}
}

// TestBufferImageScanStats pins what a full scan reports for the write
// buffer's columnar image: the build, the rows the image covers and the
// row-path (delta) rows, across a first scan, a repeat, a delta, a seek
// and a rebuild. Every scan's rows and aggregates match the walk oracle.
func TestBufferImageScanStats(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 200, 100)
	type want struct{ builds, image, rows int64 }
	check := func(label string, filter Node, w want) {
		t.Helper()
		view := tbl.Snapshot()
		defer view.Release()
		ref := refRows(view, filter)
		s := NewScan(view, CloneNode(filter))
		if n := s.Count(); n != int64(len(ref)) {
			t.Fatalf("%s: Count = %d, walk oracle %d", label, n, len(ref))
		}
		got := want{s.Stats.BufferImageBuilds, s.Stats.BufferImageRows, s.Stats.BufferRowsScanned}
		if got != w {
			t.Fatalf("%s: builds, image rows, row-path rows = %+v, want %+v", label, got, w)
		}
		var rows []types.Row
		NewScan(view, CloneNode(filter)).Run(func(r types.Row) bool { rows = append(rows, r.Clone()); return true })
		sortByGroupKey(rows, 1)
		sortByGroupKey(ref, 1)
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("%s: Run returned %d rows, walk oracle %d", label, len(rows), len(ref))
		}
		aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 3}, {Func: Max, Col: 0}}
		agg, _ := runAgg(t, view, filter, []int{2}, aggs, false)
		sortByGroupKey(agg, 1)
		if wantAgg := refAggregate(ref, []int{2}, aggs); !reflect.DeepEqual(agg, wantAgg) {
			t.Fatalf("%s: Aggregate %v, walk oracle %v", label, agg, wantAgg)
		}
	}
	bump := func(r types.Row) types.Row { r = r.Clone(); r[3] = types.NewInt(r[3].I + 1); return r }
	update := func(ids ...int) {
		for _, id := range ids {
			if _, err := tbl.UpdateByUnique([]types.Value{types.NewInt(int64(id))}, bump); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The first full scan builds the image; it covers all 100 rows.
	check("first scan", nil, want{builds: 1, image: 100})
	check("repeat", nil, want{image: 100})
	// Two buffer rows updated and three inserted: the image masks the two
	// and the row path reads five.
	update(200, 201)
	for i := 300; i < 303; i++ {
		if err := tbl.Insert(kernelRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	check("delta", nil, want{image: 98, rows: 5})
	// Zone maps eliminate the image (it holds ids 200..299), but its
	// rows still count as covered; the delta rows take the row path.
	check("zone-eliminated", &Leaf{Col: 0, Op: vector.Gt, Val: types.NewInt(299)}, want{image: 98, rows: 5})
	// A pinned unique key seeks the skiplist: no image.
	check("seek", &Leaf{Col: 0, Op: vector.Eq, Val: types.NewInt(250)}, want{rows: 1})
	// A delta of more than imageRebuildMin keys rebuilds at the view.
	var ids []int
	for id := 210; id < 280; id++ {
		ids = append(ids, id)
	}
	update(ids...)
	check("rebuild", nil, want{builds: 1, image: 103})
	check("after rebuild", nil, want{image: 103})
}
