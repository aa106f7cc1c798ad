package exec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"s2db/internal/codec"
	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/wal"
)

// newKernelTable builds a table exercising every encoding the fused kernels
// dispatch on: id (unique int), cat (indexed dict string), status (dict
// string), val (sort key → RLE runs in bulk-loaded segments), score
// (float), hi (high-cardinality bit-packed int, nulls every 7th row), note
// (high-distinct string, nulls every 11th row), fnull (bit-packed float,
// -0.0 every 17th row, nulls every 5th), frle (RLE float, runs of 32),
// irle (RLE int, runs of 64, null in 16-row blocks), tag (dict string,
// nulls every 9th row), and six Int64 columns without nulls for the
// bounded-int group codes: small (bit-packed, -3..3), konst (one value:
// bit-packed at width 0), w4095 and w4096 (bit-packed, spanning exactly
// 4095 and 4096 in every segment of two rows or more), huge (MinInt64 and
// MaxInt64, a span that overflows int64) and runs (runs of 100 from -2:
// RLE in a segment of a few hundred rows, bit-packed in smaller ones). Every float is a small multiple of 0.25, so
// sums are exact in any order.
func newKernelTable(t testing.TB, maxSegRows int) *core.Table {
	t.Helper()
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "cat", Type: types.String},
		types.Column{Name: "status", Type: types.String},
		types.Column{Name: "val", Type: types.Int64},
		types.Column{Name: "score", Type: types.Float64},
		types.Column{Name: "hi", Type: types.Int64},
		types.Column{Name: "note", Type: types.String},
		types.Column{Name: "fnull", Type: types.Float64},
		types.Column{Name: "frle", Type: types.Float64},
		types.Column{Name: "irle", Type: types.Int64},
		types.Column{Name: "tag", Type: types.String},
		types.Column{Name: "small", Type: types.Int64},
		types.Column{Name: "konst", Type: types.Int64},
		types.Column{Name: "w4095", Type: types.Int64},
		types.Column{Name: "w4096", Type: types.Int64},
		types.Column{Name: "huge", Type: types.Int64},
		types.Column{Name: "runs", Type: types.Int64},
	)
	s.UniqueKey = []int{0}
	s.SecondaryKeys = [][]int{{1}}
	s.SortKey = 3
	tbl, err := core.NewTable("k", s, core.Config{MaxSegmentRows: maxSegRows},
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func kernelRow(i int) types.Row {
	hi := types.NewInt(int64(i * 7919 % 100003))
	if i%7 == 0 {
		hi = types.Null(types.Int64)
	}
	note := types.NewString(fmt.Sprintf("note-%d", i*31%977))
	if i%11 == 0 {
		note = types.Null(types.String)
	}
	fnull := types.NewFloat(float64(i%40-20) * 0.5)
	switch {
	case i%5 == 2:
		fnull = types.Null(types.Float64)
	case i%17 == 0:
		fnull = types.NewFloat(math.Copysign(0, -1))
	}
	irle := types.NewInt(int64(i/64)*1000003 + 7)
	if (i/16)%5 == 3 {
		irle = types.Null(types.Int64)
	}
	tag := types.NewString(fmt.Sprintf("t%d", i%6))
	if i%9 == 0 {
		tag = types.Null(types.String)
	}
	return types.Row{
		types.NewInt(int64(i)),
		types.NewString(fmt.Sprintf("c%d", i%4)),
		types.NewString(fmt.Sprintf("s%d", i%3)),
		types.NewInt(int64(i / 16)), // runs of 16 on the sort key
		types.NewFloat(float64(i%250) * 0.25),
		hi,
		note,
		fnull,
		types.NewFloat(float64(i/32) * 0.5),
		irle,
		tag,
		types.NewInt(int64(i%7 - 3)),
		types.NewInt(42),
		types.NewInt(int64(i%2)*4095 - 2000),
		types.NewInt(int64(i%2) * 4096),
		types.NewInt([]int64{math.MinInt64, math.MaxInt64}[i%2]),
		types.NewInt(int64(i/100 - 2)),
	}
}

// kernelCols is the kernel table's column count.
const kernelCols = 17

// fillKernel loads n rows (flushed to segments), deletes every 13th row so
// deletion bitmaps split RLE runs mid-way, then inserts extra unflushed
// buffer rows.
func fillKernel(t testing.TB, tbl *core.Table, n, buffered int) {
	t.Helper()
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, kernelRow(i))
	}
	if _, err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteWhere(core.Where{Pred: func(r types.Row) bool {
		return r[0].I%13 == 0
	}}); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+buffered; i++ {
		if err := tbl.Insert(kernelRow(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// cloneFilter hands a run its own adaptive state; guarded additionally wraps
// every node in a guard (ref_test.go), which enforces the EvalSpans
// ownership rule but hides leaves from the group filter and from segment
// skipping — so the suites run every filter both ways.
func cloneFilter(t testing.TB, filter Node, guarded bool) Node {
	f := CloneNode(filter)
	if guarded {
		f = guardTree(t, f)
	}
	return f
}

func runAgg(t testing.TB, view *core.View, filter Node, groupCols []int, aggs []AggSpec, guarded bool) ([]types.Row, ScanStats) {
	f := cloneFilter(t, filter, guarded)
	s := NewScan(view, f)
	rows := Aggregate(view, f, groupCols, aggs, s)
	return rows, s.Stats
}

func runRows(t testing.TB, view *core.View, filter Node, project []int, guarded bool) []types.Row {
	s := NewScan(view, cloneFilter(t, filter, guarded))
	s.Project = project
	var out []types.Row
	s.Run(func(r types.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// checkFilter runs tree over view cold, warm (children reordered by
// observed cost, group filter armed) and guarded, and compares Run — rows in
// order, no id twice — and Count with want, the oracle's rows.
func checkFilter(t testing.TB, label string, view *core.View, tree Node, want []types.Row) {
	t.Helper()
	plain := CloneNode(tree)
	for pass, filter := range []Node{plain, plain, guardTree(t, CloneNode(tree))} {
		var got []types.Row
		seen := map[int64]bool{}
		NewScan(view, filter).Run(func(r types.Row) bool {
			if seen[r[0].I] {
				t.Fatalf("%s pass %d: id %d returned twice", label, pass, r[0].I)
			}
			seen[r[0].I] = true
			got = append(got, r.Clone())
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s pass %d: Run returned %d rows, EvalRow oracle %d", label, pass, len(got), len(want))
		}
		if n := NewScan(view, filter).Count(); n != int64(len(want)) {
			t.Fatalf("%s pass %d: Count = %d, EvalRow oracle %d", label, pass, n, len(want))
		}
	}
}

// checkAgg compares Aggregate, plain and guarded, with the row-at-a-time
// oracle over want's rows: exactly, after sorting by group key. The kernel
// table's floats are multiples of 0.25 and expression sums fold in scan
// order on both sides, so no tolerance is needed or wanted.
func checkAgg(t *testing.T, name string, view *core.View, filter Node, ref []types.Row, groupCols []int, aggs []AggSpec) {
	t.Helper()
	want := refAggregate(ref, groupCols, aggs)
	for _, guarded := range []bool{false, true} {
		got, _ := runAgg(t, view, filter, groupCols, aggs, guarded)
		sortByGroupKey(got, len(groupCols))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (guarded=%v): Aggregate != EvalRow oracle\ngot:  %v\nwant: %v", name, guarded, got, want)
		}
	}
}

// kernelFilters is the shared predicate zoo: RLE range, dict equality
// (index-eligible), IN list, bit-packed and float comparisons with nulls,
// conjunctions mixing encodings, a disjunction, and an empty-selection
// predicate.
func kernelFilters() map[string]Node {
	return map[string]Node{
		"none":       nil,
		"rle-range":  NewLeaf(3, vector.Ge, types.NewInt(10)),
		"rle-eq":     NewLeaf(3, vector.Eq, types.NewInt(4)),
		"dict-eq":    NewLeaf(1, vector.Eq, types.NewString("c2")),
		"dict-gt":    NewLeaf(1, vector.Gt, types.NewString("c1")),
		"in-list":    NewIn(2, []types.Value{types.NewString("s0"), types.NewString("s2")}),
		"bitpack-gt": NewLeaf(5, vector.Gt, types.NewInt(50000)),
		"float-lt":   NewLeaf(4, vector.Lt, types.NewFloat(31.25)),
		"and-mixed": NewAnd(
			NewLeaf(3, vector.Ge, types.NewInt(5)),
			NewLeaf(1, vector.Eq, types.NewString("c1")),
			NewLeaf(4, vector.Lt, types.NewFloat(50)),
		),
		"or-fallback": NewOr(
			NewLeaf(1, vector.Eq, types.NewString("c0")),
			NewLeaf(3, vector.Lt, types.NewInt(3)),
		),
		"empty": NewLeaf(3, vector.Lt, types.NewInt(-1)),
	}
}

// TestFusedUnfusedAggregateEquivalence is the 11 filters × 6 groupings × 8
// aggregate sets matrix: every aggregation kernel, over every filter
// strategy, agrees with the row-at-a-time EvalRow oracle. (The name dates
// from when the reference was an unfused copy of the pipeline.)
func TestFusedUnfusedAggregateEquivalence(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 600, 50)
	view := tbl.Snapshot()

	expr := func(r types.Row) types.Value {
		return types.NewFloat(float64(r[3].I) * (1 - r[4].F/100))
	}
	aggSets := map[string][]AggSpec{
		"count-star":   {{Func: Count, Col: -1}},
		"int-stats":    {{Func: Sum, Col: 3}, {Func: Min, Col: 3}, {Func: Max, Col: 3}, {Func: Avg, Col: 3}},
		"float-stats":  {{Func: Sum, Col: 4}, {Func: Min, Col: 4}, {Func: Max, Col: 4}},
		"null-cols":    {{Func: Count, Col: 6}, {Func: Min, Col: 6}, {Func: Max, Col: 6}, {Func: Sum, Col: 5}, {Func: Avg, Col: 5}},
		"expr":         {{Func: Sum, Expr: expr, ExprCols: []int{3, 4}}, {Func: Avg, Expr: expr, ExprCols: []int{3, 4}}},
		"mixed-expr":   {{Func: Count, Col: -1}, {Func: Sum, Col: 3}, {Func: Sum, Expr: expr, ExprCols: []int{3, 4}}},
		"opaque-expr":  {{Func: Sum, Expr: expr}}, // nil ExprCols: fused must decline, results still equal
		"string-stats": {{Func: Min, Col: 1}, {Func: Max, Col: 2}, {Func: Count, Col: -1}},
	}
	groupings := map[string][]int{
		"global":      nil,
		"dict":        {1},
		"dict2":       {1, 2},
		"non-dict":    {3},
		"dict+nulls":  {6},
		"dict-status": {2},
	}
	for fname, filter := range kernelFilters() {
		ref := refRows(view, filter)
		for gname, groupCols := range groupings {
			for aname, aggs := range aggSets {
				checkAgg(t, fname+"/"+gname+"/"+aname, view, filter, ref, groupCols, aggs)
			}
		}
	}
}

func TestFusedUnfusedRowEquivalence(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 400, 30)
	view := tbl.Snapshot()
	projections := [][]int{nil, {0, 3}, {1, 4, 6}}
	for fname, filter := range kernelFilters() {
		ref := refRows(view, filter)
		for pi, proj := range projections {
			want := projectRows(ref, proj)
			for _, guarded := range []bool{false, true} {
				got := projectRows(runRows(t, view, filter, proj, guarded), proj)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/proj%d (guarded=%v): Run rows != EvalRow oracle (%d vs %d)", fname, pi, guarded, len(got), len(want))
				}
			}
		}
	}
}

func TestFusedUnfusedCountEquivalence(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 500, 40)
	view := tbl.Snapshot()
	for fname, filter := range kernelFilters() {
		want := int64(len(refRows(view, filter)))
		for _, guarded := range []bool{false, true} {
			if got := NewScan(view, cloneFilter(t, filter, guarded)).Count(); got != want {
				t.Fatalf("%s (guarded=%v): Count %d != EvalRow oracle %d", fname, guarded, got, want)
			}
		}
	}
}

// TestOrOverAndMatchesEvalRow is the regression test for OR returning a row
// once per matching branch: a conjunction under a disjunction used to write
// its intermediate selections into the disjunction's "remaining" buffer, so
// 218 rows came back where EvalRow says 219. Every tree is checked for
// count, for the exact row multiset, and for no row returned twice — cold,
// warm (children reordered by observed cost) and guarded.
func TestOrOverAndMatchesEvalRow(t *testing.T) {
	trees := map[string]Node{
		"or(and,leaf)": NewOr(
			NewAnd(NewLeaf(3, vector.Ge, types.NewInt(5)), NewLeaf(1, vector.Eq, types.NewString("c1"))),
			NewLeaf(2, vector.Eq, types.NewString("s0")),
		),
		"three overlapping branches": NewOr(
			NewAnd(NewLeaf(3, vector.Ge, types.NewInt(5)), NewLeaf(3, vector.Lt, types.NewInt(20))),
			NewAnd(NewLeaf(3, vector.Ge, types.NewInt(10)), NewLeaf(1, vector.Ne, types.NewString("c3"))),
			NewIn(2, []types.Value{types.NewString("s0"), types.NewString("s1")}),
		),
	}
	// One 500-row segment is where the lost rows showed; 64-row segments
	// exercise the same trees across segment boundaries.
	for _, maxSegRows := range []int{4096, 64} {
		tbl := newKernelTable(t, maxSegRows)
		fillKernel(t, tbl, 500, 0)
		view := tbl.Snapshot()
		for name, tree := range trees {
			want := refRows(view, tree)
			if name == "or(and,leaf)" && len(want) != 219 {
				t.Fatalf("%s: oracle count = %d, want 219", name, len(want))
			}
			checkFilter(t, fmt.Sprintf("%s/%d", name, maxSegRows), view, tree, want)
		}
	}
}

// TestGroupFilterSeeksWhenCandidatesAreFew: a group-profitable conjunction
// nested under a selective sibling receives a handful of candidate rows; it
// must seek those values rather than decode its columns for the whole
// segment, and still agree with the oracle (both columns carry NULLs).
func TestGroupFilterSeeksWhenCandidatesAreFew(t *testing.T) {
	tbl := newKernelTable(t, 4096)
	fillKernel(t, tbl, 500, 0)
	view := tbl.Snapshot()

	inner := NewAnd(
		NewLeaf(5, vector.Ge, types.NewInt(0)),             // passes every non-NULL hi
		NewLeaf(6, vector.Ne, types.NewString("note-310")), // passes nearly every non-NULL note
	)
	if got, want := NewScan(view, inner).Count(), int64(len(refRows(view, inner))); got != want {
		t.Fatalf("warm-up count = %d, EvalRow oracle %d", got, want)
	}
	if !inner.groupProfitable() {
		t.Fatal("inner conjunction did not turn group-profitable after one scan")
	}

	reached := func(s *Scan) int64 { return s.Stats.VecDecodes + s.Stats.VecCacheHits }
	few := NewLeaf(0, vector.Lt, types.NewInt(40))
	alone := NewScan(view, CloneNode(few))
	alone.Count()

	outer := NewAnd(few, inner)
	outer.DisableReorder = true // the selective leaf runs first
	want := refRows(view, outer)
	scan := NewScan(view, outer)
	if got := scan.Count(); got != int64(len(want)) || got == 0 {
		t.Fatalf("count = %d, EvalRow oracle %d", got, len(want))
	}
	if scan.Stats.GroupFilters != 1 {
		t.Fatalf("group filter ran %d times, want 1", scan.Stats.GroupFilters)
	}
	if reached(scan) != reached(alone) {
		t.Fatalf("group filter over %d candidate rows decoded whole columns: %d full-column reads, the selective leaf alone makes %d",
			len(want), reached(scan), reached(alone))
	}
	if got := runRows(t, view, outer, nil, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("Run returned %d rows, EvalRow oracle %d", len(got), len(want))
	}
}

// TestFastCountUsesMetadataOnly: a filterless count must read no column
// vectors and visit no segments — it answers from segment meta plus the
// buffer walk — while still matching the row-at-a-time count exactly,
// deletes and buffer rows included.
func TestFastCountUsesMetadataOnly(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 500, 40)
	view := tbl.Snapshot()
	fast := NewScan(view, nil)
	got := fast.Count()
	if want := int64(len(refRows(view, nil))); got != want {
		t.Fatalf("fast count %d != row-at-a-time count %d", got, want)
	}
	if fast.Stats.SegmentsScanned != 0 || fast.Stats.VecDecodes != 0 {
		t.Fatalf("fast count touched data: %+v", fast.Stats)
	}
}

// TestRunStraddlesSelectionGap pins the RLE boundary case from the issue: a
// deletion carves a gap out of the middle of a run, and the span kernel
// must clip the run to both sides of the gap.
func TestRunStraddlesSelectionGap(t *testing.T) {
	tbl := newKernelTable(t, 256)
	rows := make([]types.Row, 0, 64)
	for i := 0; i < 64; i++ {
		rows = append(rows, kernelRow(i))
	}
	if _, err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	// Delete ids 20..24: val = id/16, so the val==1 run [16,32) gains an
	// interior gap.
	if _, err := tbl.DeleteWhere(core.Where{Pred: func(r types.Row) bool {
		return r[0].I >= 20 && r[0].I < 25
	}}); err != nil {
		t.Fatal(err)
	}
	view := tbl.Snapshot()
	filter := NewLeaf(3, vector.Eq, types.NewInt(1))
	if got := NewScan(view, CloneNode(filter)).Count(); got != 11 {
		t.Fatalf("straddled-run count = %d, want 11", got)
	}
	if got := len(refRows(view, filter)); got != 11 {
		t.Fatalf("straddled-run row-at-a-time count = %d, want 11", got)
	}
	// Single-run segment: every val identical.
	one := newKernelTable(t, 256)
	same := make([]types.Row, 0, 32)
	for i := 0; i < 32; i++ {
		r := kernelRow(i)
		r[3] = types.NewInt(5)
		same = append(same, r)
	}
	if _, err := one.BulkLoad(same); err != nil {
		t.Fatal(err)
	}
	v1 := one.Snapshot()
	if got := NewScan(v1, NewLeaf(3, vector.Eq, types.NewInt(5))).Count(); got != 32 {
		t.Fatalf("single-run segment count = %d, want 32", got)
	}
	if got := NewScan(v1, NewLeaf(3, vector.Eq, types.NewInt(6))).Count(); got != 0 {
		t.Fatalf("single-run segment miss count = %d, want 0", got)
	}
}

// TestFusedCountersSurface checks the observability counters: filters
// report span-filtered segments, fused aggregations report fused
// segments and — for plain global aggregates — materialize nothing.
func TestFusedCountersSurface(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 600, 0)
	view := tbl.Snapshot()
	filter := NewLeaf(3, vector.Ge, types.NewInt(10))
	aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 3}, {Func: Sum, Col: 4}}

	_, fstats := runAgg(t, view, filter, nil, aggs, false)
	if fstats.EncodedFilterSegs == 0 {
		t.Fatalf("no span-filtered segments recorded: %+v", fstats)
	}
	if fstats.FusedAggSegs == 0 {
		t.Fatalf("no fused-agg segments recorded: %+v", fstats)
	}
	if fstats.RowsMaterialized != 0 {
		t.Fatalf("plain global aggregate materialized %d rows", fstats.RowsMaterialized)
	}

	// Materializing scans count their built rows.
	s := NewScan(view, CloneNode(filter))
	var rows int64
	s.Run(func(types.Row) bool { rows++; return true })
	if s.Stats.RowsMaterialized != rows {
		t.Fatalf("RowsMaterialized = %d, want %d", s.Stats.RowsMaterialized, rows)
	}
}

// TestFusedEquivalenceUnderMerges races aggregation against concurrent
// inserts, flushes and LSM merges; on every snapshot the kernels must agree
// with the row-at-a-time oracle (run under -race in CI).
func TestFusedEquivalenceUnderMerges(t *testing.T) {
	tbl := newKernelTable(t, 32)
	fillKernel(t, tbl, 256, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 10000
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < 64; k++ {
				_ = tbl.Insert(kernelRow(i))
				i++
			}
			_, _ = tbl.Flush()
			tbl.Merge()
		}
	}()
	filter := NewAnd(
		NewLeaf(3, vector.Ge, types.NewInt(2)),
		NewLeaf(1, vector.Gt, types.NewString("c0")),
	)
	aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 3}, {Func: Min, Col: 4}, {Func: Max, Col: 6}}
	for round := 0; round < 30; round++ {
		view := tbl.Snapshot()
		got, _ := runAgg(t, view, filter, []int{1}, aggs, round%2 == 1)
		sortByGroupKey(got, 1)
		if want := refAggregate(refRows(view, filter), []int{1}, aggs); !reflect.DeepEqual(got, want) {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: Aggregate != EvalRow oracle under merge churn\ngot:  %v\nwant: %v", round, got, want)
		}
	}
	close(stop)
	wg.Wait()
}

// TestKernelTableEncodings pins the encodings the typed kernels are tested
// over: a float column with nulls, an RLE float column, an RLE int column
// with nulls and a dict string column with nulls — else the suites below
// would silently stop reaching the encoded branches they exist for.
func TestKernelTableEncodings(t *testing.T) {
	tbl := newKernelTable(t, 4096)
	fillKernel(t, tbl, 600, 0)
	seg := tbl.Snapshot().Segs[0].Seg
	if seg.Cols[7].Nulls == nil {
		t.Error("fnull has no nulls")
	}
	if _, ok := seg.Cols[8].Ints.(*codec.RLE); !ok {
		t.Errorf("frle is %T, want RLE", seg.Cols[8].Ints)
	}
	if _, ok := seg.Cols[9].Ints.(*codec.RLE); !ok || seg.Cols[9].Nulls == nil {
		t.Errorf("irle: %T, nulls %v; want RLE with nulls", seg.Cols[9].Ints, seg.Cols[9].Nulls != nil)
	}
	if _, ok := seg.Cols[10].Strs.(*codec.Dict); !ok || seg.Cols[10].Nulls == nil {
		t.Errorf("tag: %T, nulls %v; want a dict with nulls", seg.Cols[10].Strs, seg.Cols[10].Nulls != nil)
	}
	for col, want := range map[int]codec.Kind{11: codec.KindBitPack, 12: codec.KindBitPack, 13: codec.KindBitPack, 14: codec.KindBitPack, 15: codec.KindBitPack, 16: codec.KindRLE} {
		if c := seg.Cols[col]; c.Ints.Kind() != want || c.Nulls != nil {
			t.Errorf("%s: %T, nulls %v; want kind %v without nulls", seg.Schema().Columns[col].Name, c.Ints, c.Nulls != nil, want)
		}
	}
}

// intGroupings are the group shapes over the kernel table's Int64 columns,
// each with whether every segment takes fuseCodeGroup: a bounded int
// column without nulls fuses (RLE, bit-packed, negative, constant, a span
// of exactly 4095), alone or with a dictionary while the combined space
// stays within maxFusedGroupCodes; a span of 4096, a span that overflows
// int64, a nullable int column and a combined space past the bound do not.
// irle holds nulls in some segments only; those fall back, the rest fuse.
var intGroupings = []struct {
	name  string
	cols  []int
	fused bool
}{
	{"val", []int{3}, true},
	{"runs", []int{16}, true},
	{"small-negative", []int{11}, true},
	{"konst", []int{12}, true},
	{"span-4095", []int{13}, true},
	{"span-4096", []int{14}, false},
	{"span-overflow", []int{15}, false},
	{"hi-nullable", []int{5}, false},
	{"irle-nullable", []int{9}, true},
	{"dict+small", []int{1, 11}, true},
	{"small+dict", []int{11, 2}, true},
	{"konst+span-4095", []int{12, 13}, true},
	{"span-4095+dict", []int{13, 1}, false},
	{"id", []int{0}, true},
	{"val+small", []int{3, 11}, true},
}

// TestIntGroupCodes checks every int grouping under a spread of filters
// (none, RLE, dictionary, bit-packed, a disjunction, an empty selection)
// against the row-at-a-time oracle, and that the segments fuse exactly
// when the shape admits a bounded code space.
func TestIntGroupCodes(t *testing.T) {
	expr := func(r types.Row) types.Value { return types.NewFloat(float64(r[3].I) * (1 - r[4].F/100)) }
	aggSets := map[string][]AggSpec{
		"plain": {{Func: Count, Col: -1}, {Func: Sum, Col: 4}, {Func: Min, Col: 6}, {Func: Avg, Col: 9}, {Func: Max, Col: 15}},
		"expr":  {{Func: Sum, Expr: expr, ExprCols: []int{3, 4}}, {Func: Sum, Col: 8}},
	}
	for _, segRows := range []int{32, 64, 4096} {
		tbl := newKernelTable(t, segRows)
		fillKernel(t, tbl, 600, 40)
		view := tbl.Snapshot()
		for _, fname := range []string{"none", "rle-range", "dict-eq", "bitpack-gt", "or-fallback", "empty"} {
			filter := kernelFilters()[fname]
			ref := refRows(view, filter)
			for _, g := range intGroupings {
				for aname, aggs := range aggSets {
					checkAgg(t, fmt.Sprintf("%d/%s/%s/%s", segRows, fname, g.name, aname), view, filter, ref, g.cols, aggs)
				}
			}
		}
		for _, g := range intGroupings {
			_, st := runAgg(t, view, nil, g.cols, aggSets["plain"], false)
			want := int64(0)
			for _, m := range view.Segs {
				if g.fused && m.Seg.Cols[g.cols[0]].Nulls == nil {
					want++
				}
			}
			if st.SegmentsScanned == 0 || st.FusedAggSegs != want {
				t.Errorf("%d/%s: %d of %d segments fused, want %d", segRows, g.name, st.FusedAggSegs, st.SegmentsScanned, want)
			}
		}
	}
}

// TestIntGroupHostileZoneMap: zone maps come from blob bytes, so the int
// group codes may not trust them for memory safety. Each segment's zone
// maps are rewritten to lie — too narrow from either side, inverted,
// missing, far off — and the aggregation must leave the general path's
// result, in the general path's order and bit for bit, with no panic and
// no segment fused. A zone map that is loose but still bounds the values
// fuses and gives the same result. The tables hold no buffer rows, so the
// segments decide the group order; by (cat, small) rows first see their
// groups out of code order.
func TestIntGroupHostileZoneMap(t *testing.T) {
	aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 4}, {Func: Sum, Col: 3}, {Func: Max, Col: 6}}
	lies := map[string]func(lo, hi int64) (int64, int64, bool){
		"at-min":   func(lo, hi int64) (int64, int64, bool) { return lo, lo, true },
		"at-max":   func(lo, hi int64) (int64, int64, bool) { return hi, hi, true },
		"inverted": func(lo, hi int64) (int64, int64, bool) { return hi, lo, true },
		// Max − Min wraps to 1 in uint64 unless an inverted range is refused.
		"inverted-extreme": func(lo, hi int64) (int64, int64, bool) { return math.MaxInt64, math.MinInt64, true },
		"no-range":         func(lo, hi int64) (int64, int64, bool) { return lo, hi, false },
		"far-below":        func(lo, hi int64) (int64, int64, bool) { return math.MinInt64, math.MinInt64 + 10, true },
		"far-above":        func(lo, hi int64) (int64, int64, bool) { return math.MaxInt64 - 10, math.MaxInt64, true },
	}
	honest := newKernelTable(t, 64)
	fillKernel(t, honest, 600, 0)
	hview := honest.Snapshot()
	for _, cols := range [][]int{{11}, {3}, {1, 11}, {11, 12}} {
		want, wst := runAgg(t, hview, nil, cols, aggs, false)
		if wst.FusedAggSegs != wst.SegmentsScanned {
			t.Fatalf("group by %v: honest zone maps fused %d of %d segments", cols, wst.FusedAggSegs, wst.SegmentsScanned)
		}
		for name, lie := range lies {
			tbl := newKernelTable(t, 64)
			fillKernel(t, tbl, 600, 0)
			view := tbl.Snapshot()
			for _, m := range view.Segs {
				seg := m.Seg
				for _, c := range cols {
					if seg.Schema().Columns[c].Type != types.Int64 {
						continue
					}
					lo, hi, has := lie(seg.Min[c].I, seg.Max[c].I)
					seg.Min[c], seg.Max[c], seg.HasRange[c] = types.NewInt(lo), types.NewInt(hi), has
				}
			}
			got, st := runAgg(t, view, nil, cols, aggs, false)
			if !sameBits(got, want) {
				t.Fatalf("group by %v, zone maps %s: result differs from honest zone maps\ngot:  %v\nwant: %v", cols, name, got, want)
			}
			if st.FusedAggSegs != 0 {
				t.Fatalf("group by %v, zone maps %s: %d segments fused", cols, name, st.FusedAggSegs)
			}
		}
	}
	// A loose zone map still bounds the values: it fuses, and agrees.
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 600, 0)
	view := tbl.Snapshot()
	for _, m := range view.Segs {
		m.Seg.Min[11], m.Seg.Max[11] = types.NewInt(m.Seg.Min[11].I-100), types.NewInt(m.Seg.Max[11].I+3000)
	}
	want, _ := runAgg(t, hview, nil, []int{11}, aggs, false)
	got, st := runAgg(t, view, nil, []int{11}, aggs, false)
	if !sameBits(got, want) || st.FusedAggSegs != st.SegmentsScanned {
		t.Fatalf("loose zone maps: fused %d of %d segments\ngot:  %v\nwant: %v", st.FusedAggSegs, st.SegmentsScanned, got, want)
	}
}

// TestTypedKernelsAgreeOnEveryType runs each strategy — encoded forced,
// regular forced, adaptive — over the float, nullable-float, RLE-float,
// nullable-RLE-int and nullable-dict columns against the EvalRow oracle, with the constants
// where float rules bite (-0.0 against stored -0.0 and 0.0, NaN), and folds
// every aggregate over those columns through every fused kernel; the
// nullable dict column exercises the encoded filter's null skip.
func TestTypedKernelsAgreeOnEveryType(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 600, 40)
	view := tbl.Snapshot()
	negZero, nan := types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN())
	consts := map[int][]types.Value{
		4:  {types.NewFloat(31.25), negZero, nan},
		6:  {types.NewString("note-310"), types.NewString("")},
		7:  {types.NewFloat(0), negZero, types.NewFloat(-5), nan},
		8:  {types.NewFloat(3.5), negZero, nan},
		9:  {types.NewInt(2*1000003 + 7), types.NewInt(0)},
		10: {types.NewString("t2"), types.NewString("t")},
	}
	for col, vals := range consts {
		for _, v := range vals {
			for op := vector.Eq; op <= vector.Ge; op++ {
				for _, leaf := range []*Leaf{NewLeaf(col, op, v), NewLeaf(col, op, v).ForceEncoded(), NewLeaf(col, op, v).ForceRegular()} {
					label := fmt.Sprintf("col %d %v %v (strategy %d)", col, op, v, leaf.forceStrategy)
					checkFilter(t, label, view, leaf, refRows(view, leaf))
				}
			}
		}
		in := NewIn(col, append([]types.Value{types.Null(vals[0].Type)}, vals...)).ForceEncoded()
		checkFilter(t, fmt.Sprintf("col %d IN %v", col, vals), view, in, refRows(view, in))
	}
	// A group filter over the nullable columns, dense and sparse.
	group := NewAnd(NewLeaf(7, vector.Ge, types.NewFloat(-8)), NewLeaf(9, vector.Ge, types.NewInt(0)), NewLeaf(8, vector.Le, types.NewFloat(100)))
	for _, filter := range []Node{group, NewAnd(NewLeaf(0, vector.Lt, types.NewInt(20)), group)} {
		checkFilter(t, FormatNode(filter, view.Schema), view, filter, refRows(view, filter))
	}

	checkTypedFolds(t, view)
	// A full 4096-row segment makes val RLE without nulls, so global folds
	// take its integer runs.
	big := newKernelTable(t, 4096)
	fillKernel(t, big, 5000, 40)
	checkTypedFolds(t, big.Snapshot())
}

// checkTypedFolds folds every aggregate over the float, RLE and nullable
// columns through every fused kernel and the general path.
func checkTypedFolds(t *testing.T, view *core.View) {
	stats := func(col int) []AggSpec {
		return []AggSpec{{Func: Sum, Col: col}, {Func: Min, Col: col}, {Func: Max, Col: col}, {Func: Avg, Col: col}, {Func: Count, Col: col}}
	}
	aggSets := map[string][]AggSpec{
		"val": stats(3), "fnull": stats(7), "frle": stats(8), "irle": stats(9),
		"mixed": {{Func: Count, Col: -1}, {Func: Sum, Col: 8}, {Func: Max, Col: 7}, {Func: Min, Col: 6}, {Func: Max, Col: 10}},
	}
	for fname, filter := range map[string]Node{"none": nil, "frle-range": NewLeaf(8, vector.Ge, types.NewFloat(2)), "irle-eq": NewLeaf(9, vector.Eq, types.NewInt(1000003+7))} {
		ref := refRows(view, filter)
		for gname, groupCols := range map[string][]int{"global": nil, "dict": {1}, "dict2": {1, 2}, "note": {6}, "frle": {8}, "tag": {10}, "tag+dict": {10, 2}} {
			for aname, aggs := range aggSets {
				checkAgg(t, fname+"/"+gname+"/"+aname, view, filter, ref, groupCols, aggs)
			}
		}
	}
}

// TestNaNRejectedAtWrite: NaN is the one float Compare cannot order, so it
// may not be stored — every write path refuses it, naming the column. A
// stored NaN used to become a segment's zone-map min and max, after which
// `score != 5` skipped the whole segment.
func TestNaNRejectedAtWrite(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 100, 10)
	nanRow := kernelRow(1000)
	nanRow[4] = types.NewFloat(math.NaN())
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"score"`) || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("%s of a NaN: err = %v, want one naming column \"score\"", what, err)
		}
	}
	wantErr("Insert", tbl.Insert(nanRow))
	_, err := tbl.BulkLoad([]types.Row{nanRow})
	wantErr("BulkLoad", err)
	_, err = tbl.UpdateWhere(core.Where{Pred: func(r types.Row) bool { return r[0].I == 3 }}, func(r types.Row) types.Row {
		r = r.Clone()
		r[4] = types.NewFloat(math.NaN())
		return r
	})
	wantErr("UpdateWhere", err)
	if _, err := tbl.UpdateByUnique([]types.Value{types.NewInt(5)}, func(r types.Row) types.Row {
		r = r.Clone()
		r[7] = types.NewFloat(math.NaN())
		return r
	}); err == nil || !strings.Contains(err.Error(), `"fnull"`) {
		t.Fatalf("UpdateByUnique of a NaN: err = %v, want one naming column \"fnull\"", err)
	}
	// Nothing was stored: every scan still agrees with the oracle.
	view := tbl.Snapshot()
	for _, f := range []Node{NewLeaf(4, vector.Ne, types.NewFloat(5)), NewLeaf(4, vector.Gt, types.NewFloat(0)), NewLeaf(4, vector.Lt, types.NewFloat(3))} {
		checkFilter(t, FormatNode(f, view.Schema), view, f, refRows(view, f))
	}
}

// TestFloatEqualityNeverUsesHashes: an index files -0.0 and 0.0 under one
// key and one hash, as float equality equates them, so a float equality
// may be answered from an index. 40 rows hold -0.0 in an indexed float
// column; `score = 0` must find all 40 through segment skipping, the
// leaf's index strategy, core's Where and LookupEqual alike.
func TestFloatEqualityNeverUsesHashes(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "score", Type: types.Float64},
	)
	s.UniqueKey = []int{0}
	s.SecondaryKeys = [][]int{{1}}
	tbl, err := core.NewTable("f", s, core.Config{MaxSegmentRows: 64},
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 200)
	for i := 0; i < 200; i++ {
		score := types.NewFloat(float64(i % 5))
		if i%5 == 0 {
			score = types.NewFloat(math.Copysign(0, -1))
		}
		rows = append(rows, types.Row{types.NewInt(int64(i)), score})
	}
	if _, err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	view := tbl.Snapshot()
	zero := types.NewFloat(0)
	for _, leaf := range []*Leaf{NewLeaf(1, vector.Eq, zero), {Col: 1, Op: vector.Eq, Val: zero, forceStrategy: indexStrategy}, NewIn(1, []types.Value{zero})} {
		for _, skip := range []bool{false, true} {
			scan := NewScan(view, CloneNode(leaf))
			scan.DisableIndexSkipping = skip
			if n := scan.Count(); n != 40 {
				t.Fatalf("%s (index skipping off: %v): Count = %d, want 40", FormatNode(leaf, s), skip, n)
			}
		}
	}
	if got := len(tbl.LookupEqual(1, zero)); got != 40 {
		t.Fatalf("LookupEqual(score, 0) = %d rows, want 40", got)
	}
	n, err := tbl.UpdateWhere(core.Eq(1, zero), func(r types.Row) types.Row {
		r = r.Clone()
		r[1] = types.NewFloat(7)
		return r
	})
	if err != nil || n != 40 {
		t.Fatalf("UpdateWhere(score = 0) updated %d rows (err %v), want 40", n, err)
	}
}

// TestGroupByFloatZeros: GROUP BY puts -0.0 and 0.0 in one group, which
// counts every row the filter fnull = 0 matches.
func TestGroupByFloatZeros(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 500, 40)
	view := tbl.Snapshot()
	want := int64(len(refRows(view, NewLeaf(7, vector.Eq, types.NewFloat(0)))))
	var zeros []types.Row
	for _, r := range Aggregate(view, nil, []int{7}, []AggSpec{{Func: Count, Col: -1}}, nil) {
		if !r[0].IsNull && r[0].F == 0 {
			zeros = append(zeros, r)
		}
	}
	if len(zeros) != 1 || zeros[0][1].I != want {
		t.Fatalf("groups with fnull = 0: %v, want one of %d rows", zeros, want)
	}
}

// groupByTable builds the shape of sqlmix's orders table in segments of
// segRows rows: id, category (an 8-entry dictionary), bucket (an int in
// 0..7, a bounded code space), quantity (int) and price (float), no nulls,
// with a decoded-vector cache so repeated scans fold rather than decode.
func groupByTable(tb testing.TB, n, segRows int) *core.View {
	tb.Helper()
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "category", Type: types.String},
		types.Column{Name: "bucket", Type: types.Int64},
		types.Column{Name: "quantity", Type: types.Int64},
		types.Column{Name: "price", Type: types.Float64},
	)
	s.UniqueKey = []int{0}
	cfg := core.Config{MaxSegmentRows: segRows, Tenant: core.Tenant{Cache: NewVecCache(64 << 20)}}
	tbl, err := core.NewTable("orders", s, cfg, core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]types.Row, n)
	x := uint64(1)
	for i := range rows {
		x = x*6364136223846793005 + 1442695040888963407
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cat%d", x>>61)),
			types.NewInt(int64(x >> 58 & 7)), types.NewInt(int64(x>>8%10) + 1), types.NewFloat(float64(x>>16%100000) / 100)}
	}
	if _, err := tbl.BulkLoad(rows); err != nil {
		tb.Fatal(err)
	}
	return tbl.Snapshot()
}

// groupByShapes are the three fused modes over sqlmix's GROUP BY, with the
// aggregates its statement sends each partition: COUNT(*), SUM(quantity),
// and AVG(price) as SUM and COUNT partials.
var groupByShapes = []struct {
	name      string
	groupCols []int
}{{"global", nil}, {"dict", []int{1}}, {"code", []int{2}}}

// groupBySink keeps the benchmark's Aggregate calls live.
var groupBySink []types.Row

func groupBySpecs(groupCols []int) []AggSpec {
	return newAggPlan(groupCols, []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 3}, {Func: Avg, Col: 4}}).partialSpecs
}

// BenchmarkFusedGroupBy folds sqlmix's GROUP BY over four 4 096-row
// segments through fuseGlobal, fuseDictGroup and fuseCodeGroup.
func BenchmarkFusedGroupBy(b *testing.B) {
	view := groupByTable(b, 4*4096, 4096)
	for _, sh := range groupByShapes {
		b.Run(sh.name, func(b *testing.B) {
			aggs := groupBySpecs(sh.groupCols)
			s := NewScan(view, nil)
			Aggregate(view, nil, sh.groupCols, aggs, s)
			if s.Stats.FusedAggSegs != int64(len(view.Segs)) {
				b.Fatalf("%d of %d segments fused", s.Stats.FusedAggSegs, len(view.Segs))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groupBySink = Aggregate(view, nil, sh.groupCols, aggs, nil)
			}
		})
	}
}

// TestDictGroupOpensOnlyCodesWithRows: a dictionary GROUP BY opens a group
// only for the codes with surviving rows, in code order. Each filter
// removes every row of some codes; the result has no group for them, and
// the rest come out in code order, whether one segment holds the rows or
// many do.
func TestDictGroupOpensOnlyCodesWithRows(t *testing.T) {
	aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 4}, {Func: Min, Col: 5}, {Func: Avg, Col: 7}}
	cases := []struct {
		filter Node
		group  int
		want   []string
	}{
		{NewLeaf(1, vector.Gt, types.NewString("c1")), 1, []string{"c2", "c3"}},
		{NewLeaf(1, vector.Eq, types.NewString("c1")), 1, []string{"c1"}},
		{NewIn(2, []types.Value{types.NewString("s2"), types.NewString("s0")}), 2, []string{"s0", "s2"}},
		{NewLeaf(3, vector.Lt, types.NewInt(-1)), 2, nil},
	}
	for _, segRows := range []int{64, 4096} {
		tbl := newKernelTable(t, segRows)
		fillKernel(t, tbl, 600, 0)
		view := tbl.Snapshot()
		for _, c := range cases {
			label := fmt.Sprintf("%d-row segments, group by %d where %s", segRows, c.group, FormatNode(c.filter, view.Schema))
			want := refAggregate(refRows(view, c.filter), []int{c.group}, aggs)
			got, st := runAgg(t, view, c.filter, []int{c.group}, aggs, false)
			var keys []string
			for _, r := range got {
				keys = append(keys, r[0].S)
			}
			if !slices.Equal(keys, c.want) {
				t.Fatalf("%s: groups %q, want %q", label, keys, c.want)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s:\ngot:  %v\nwant: %v", label, got, want)
			}
			if c.want != nil && st.FusedAggSegs != st.SegmentsScanned {
				t.Fatalf("%s: %d of %d segments fused", label, st.FusedAggSegs, st.SegmentsScanned)
			}
		}
	}
}

// TestFoldEachFunction folds MIN, MAX, SUM, AVG and COUNT of one column in
// one query — globally, by a dictionary and by a bounded int column, with
// and without a filter — over int, float and string columns with nulls and
// without, and compares the bits with the row-at-a-time oracle. The orders
// table's prices do not add exactly in floating point, so only a fold that
// adds each group's rows in row order keeps their bits.
func TestFoldEachFunction(t *testing.T) {
	kernel := newKernelTable(t, 64)
	fillKernel(t, kernel, 600, 0)
	cases := []struct {
		name      string
		view      *core.View
		cols      []int
		groupings [][]int
		filter    Node
	}{
		// id and score have no nulls, hi and fnull have some; status and
		// note are the string columns without and with nulls.
		{"kernel", kernel.Snapshot(), []int{0, 4, 5, 7, 2, 6}, [][]int{nil, {1}, {11}}, NewLeaf(5, vector.Gt, types.NewInt(50000))},
		{"orders", groupByTable(t, 3*4096, 4096), []int{3, 4}, [][]int{nil, {1}, {2}}, NewLeaf(3, vector.Gt, types.NewInt(4))},
	}
	for _, c := range cases {
		for _, filter := range []Node{nil, c.filter} {
			ref := refRows(c.view, filter)
			for _, g := range c.groupings {
				for _, col := range c.cols {
					aggs := []AggSpec{{Func: Min, Col: col}, {Func: Max, Col: col}, {Func: Count, Col: col}}
					if c.view.Schema.Columns[col].Type != types.String {
						aggs = append(aggs, AggSpec{Func: Sum, Col: col}, AggSpec{Func: Avg, Col: col})
					}
					label := fmt.Sprintf("%s: col %d by %v where %s", c.name, col, g, FormatNode(filter, c.view.Schema))
					got, st := runAgg(t, c.view, filter, g, aggs, false)
					sortByGroupKey(got, len(g))
					if want := refAggregate(ref, g, aggs); !sameBits(got, want) {
						t.Fatalf("%s:\ngot:  %v\nwant: %v", label, got, want)
					}
					if st.SegmentsScanned == 0 || st.FusedAggSegs != st.SegmentsScanned {
						t.Fatalf("%s: %d of %d segments fused", label, st.FusedAggSegs, st.SegmentsScanned)
					}
				}
			}
		}
	}
}

// TestCountColumnAgainstCountStar: over a column without nulls COUNT(col)
// is its group's surviving row count, the COUNT(*) beside it; over a
// column with nulls it counts the non-null rows only.
func TestCountColumnAgainstCountStar(t *testing.T) {
	tbl := newKernelTable(t, 64)
	fillKernel(t, tbl, 600, 0)
	view := tbl.Snapshot()
	// COUNT(*), then score and cat (no nulls), then hi and note (nulls).
	aggs := []AggSpec{{Func: Count, Col: -1}, {Func: Count, Col: 4}, {Func: Count, Col: 1}, {Func: Count, Col: 5}, {Func: Count, Col: 6}}
	for _, g := range [][]int{nil, {2}, {11}, {1, 2}} {
		for _, filter := range []Node{nil, NewLeaf(3, vector.Ge, types.NewInt(10))} {
			label := fmt.Sprintf("by %v where %s", g, FormatNode(filter, view.Schema))
			got, st := runAgg(t, view, filter, g, aggs, false)
			sortByGroupKey(got, len(g))
			if want := refAggregate(refRows(view, filter), g, aggs); !sameBits(got, want) {
				t.Fatalf("%s:\ngot:  %v\nwant: %v", label, got, want)
			}
			if st.SegmentsScanned == 0 || st.FusedAggSegs != st.SegmentsScanned {
				t.Fatalf("%s: %d of %d segments fused", label, st.FusedAggSegs, st.SegmentsScanned)
			}
			nulls := false
			for _, r := range got {
				c := r[len(g):]
				if star := c[0].I; c[1].I != star || c[2].I != star || c[3].I > star || c[4].I > star {
					t.Fatalf("%s: COUNT(*) %d, COUNT of columns without nulls %d and %d, with nulls %d and %d",
						label, star, c[1].I, c[2].I, c[3].I, c[4].I)
				}
				nulls = nulls || c[3].I < c[0].I && c[4].I < c[0].I
			}
			if !nulls {
				t.Fatalf("%s: the nullable columns counted their nulls", label)
			}
		}
	}
}

// TestFusedFoldAllocsFlatInRows: a fused fold allocates per segment and per
// group, never per row: a one-segment GROUP BY of 1 024 rows allocates as
// much as one of 8 192, in every fused mode.
func TestFusedFoldAllocsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random, so allocation counts vary run to run")
	}
	small, large := groupByTable(t, 1024, 8192), groupByTable(t, 8192, 8192)
	for _, sh := range groupByShapes {
		aggs := groupBySpecs(sh.groupCols)
		allocs := func(view *core.View) float64 {
			s := NewScan(view, nil)
			Aggregate(view, nil, sh.groupCols, aggs, s)
			if len(view.Segs) != 1 || s.Stats.FusedAggSegs != 1 {
				t.Fatalf("%s: %d of %d segments fused", sh.name, s.Stats.FusedAggSegs, len(view.Segs))
			}
			return testing.AllocsPerRun(100, func() { Aggregate(view, nil, sh.groupCols, aggs, nil) })
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s: %.0f allocs at 1 024 rows, %.0f at 8 192", sh.name, a, b)
		}
	}
}
