package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/wal"
)

// newTable builds a test table: id (unique), grp (indexed string),
// val (int), price (float).
func newTable(t testing.TB, maxSegRows int) *core.Table {
	t.Helper()
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "grp", Type: types.String},
		types.Column{Name: "val", Type: types.Int64},
		types.Column{Name: "price", Type: types.Float64},
	)
	s.UniqueKey = []int{0}
	s.SecondaryKeys = [][]int{{1}}
	s.SortKey = 2
	tbl, err := core.NewTable("t", s, core.Config{MaxSegmentRows: maxSegRows},
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// fill inserts n rows: grp cycles g0..g4, val = i%100, price = i*0.5; half
// flushed to segments, half left in buffer when split is true.
func fill(t testing.TB, tbl *core.Table, n int, flushAll bool) {
	t.Helper()
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("g%d", i%5)),
			types.NewInt(int64(i % 100)),
			types.NewFloat(float64(i) * 0.5),
		})
	}
	split := n / 2
	if flushAll {
		split = n
	}
	if err := tbl.BulkLoad(rows[:split]); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[split:] {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
}

func scalarCount(tbl *core.Table, pred func(types.Row) bool) int64 {
	var n int64
	view := tbl.Snapshot()
	view.ScanBuffer(func(r types.Row) bool {
		if pred(r) {
			n++
		}
		return true
	})
	for _, m := range view.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			if !m.Deleted.Get(i) && pred(m.Seg.RowAt(i)) {
				n++
			}
		}
	}
	return n
}

func TestScanLeafFiltersMatchScalar(t *testing.T) {
	tbl := newTable(t, 64)
	fill(t, tbl, 500, false)
	cases := []struct {
		name string
		node Node
		pred func(types.Row) bool
	}{
		{"int-lt", NewLeaf(2, vector.Lt, types.NewInt(30)), func(r types.Row) bool { return r[2].I < 30 }},
		{"int-eq", NewLeaf(2, vector.Eq, types.NewInt(7)), func(r types.Row) bool { return r[2].I == 7 }},
		{"str-eq", NewLeaf(1, vector.Eq, types.NewString("g3")), func(r types.Row) bool { return r[1].S == "g3" }},
		{"float-ge", NewLeaf(3, vector.Ge, types.NewFloat(100)), func(r types.Row) bool { return r[3].F >= 100 }},
		{"in-list", NewIn(2, []types.Value{types.NewInt(1), types.NewInt(2)}), func(r types.Row) bool { return r[2].I == 1 || r[2].I == 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := NewScan(tbl.Snapshot(), c.node).Count()
			want := scalarCount(tbl, c.pred)
			if got != want {
				t.Fatalf("Count = %d, want %d", got, want)
			}
		})
	}
}

func TestScanAndOrTrees(t *testing.T) {
	tbl := newTable(t, 64)
	fill(t, tbl, 600, false)
	node := NewAnd(
		NewLeaf(2, vector.Ge, types.NewInt(10)),
		NewOr(
			NewLeaf(1, vector.Eq, types.NewString("g1")),
			NewLeaf(1, vector.Eq, types.NewString("g2")),
		),
		NewLeaf(3, vector.Lt, types.NewFloat(250)),
	)
	pred := func(r types.Row) bool {
		return r[2].I >= 10 && (r[1].S == "g1" || r[1].S == "g2") && r[3].F < 250
	}
	// Run several times so adaptive reordering kicks in and stays correct.
	for pass := 0; pass < 3; pass++ {
		got := NewScan(tbl.Snapshot(), node).Count()
		want := scalarCount(tbl, pred)
		if got != want {
			t.Fatalf("pass %d: Count = %d, want %d", pass, got, want)
		}
	}
}

func TestSegmentSkippingViaIndex(t *testing.T) {
	tbl := newTable(t, 32)
	// Bulk load in group-clustered batches so each segment holds one group.
	for g := 0; g < 5; g++ {
		rows := make([]types.Row, 32)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(int64(g*1000 + i)),
				types.NewString(fmt.Sprintf("g%d", g)),
				types.NewInt(int64(i)),
				types.NewFloat(1),
			}
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
	}
	scan := NewScan(tbl.Snapshot(), NewLeaf(1, vector.Eq, types.NewString("g2")))
	n := scan.Count()
	if n != 32 {
		t.Fatalf("Count = %d", n)
	}
	if scan.Stats.SegmentsSkipped != 4 || scan.Stats.SegmentsScanned != 1 {
		t.Fatalf("skipped %d scanned %d, want 4/1", scan.Stats.SegmentsSkipped, scan.Stats.SegmentsScanned)
	}
	if scan.Stats.GlobalIndexProbes == 0 {
		t.Fatal("global index not consulted")
	}
}

func TestZoneMapSkipping(t *testing.T) {
	tbl := newTable(t, 32)
	// Sort key is val; bulk loads create val-clustered segments.
	for b := 0; b < 4; b++ {
		rows := make([]types.Row, 32)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(int64(b*32 + i)),
				types.NewString("g"),
				types.NewInt(int64(b*1000 + i)),
				types.NewFloat(1),
			}
		}
		tbl.BulkLoad(rows)
	}
	scan := NewScan(tbl.Snapshot(), NewLeaf(2, vector.Lt, types.NewInt(100)))
	if n := scan.Count(); n != 32 {
		t.Fatalf("Count = %d", n)
	}
	if scan.Stats.SegmentsSkipped != 3 {
		t.Fatalf("zone maps skipped %d segments, want 3", scan.Stats.SegmentsSkipped)
	}
}

func TestInListDynamicIndexDisable(t *testing.T) {
	tbl := newTable(t, 32)
	fill(t, tbl, 128, true)
	// A huge IN list must not go through the index (probe cost too high).
	var vals []types.Value
	for i := 0; i < 1000; i++ {
		vals = append(vals, types.NewString(fmt.Sprintf("g%d", i)))
	}
	scan := NewScan(tbl.Snapshot(), NewIn(1, vals))
	scan.Count()
	if scan.Stats.GlobalIndexProbes != 0 {
		t.Fatalf("index used for oversized IN list (%d probes)", scan.Stats.GlobalIndexProbes)
	}
}

func TestEncodedFilterUsedOnDictColumn(t *testing.T) {
	tbl := newTable(t, 256)
	fill(t, tbl, 512, true)
	// Non-equality string predicate: index can't help, dict encoding can.
	scan := NewScan(tbl.Snapshot(), NewLeaf(1, vector.Gt, types.NewString("g2")).ForceEncoded())
	got := scan.Count()
	want := scalarCount(tbl, func(r types.Row) bool { return r[1].S > "g2" })
	if got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if scan.Stats.EncodedFilters == 0 {
		t.Fatal("encoded filter not used on dictionary column")
	}
}

func TestForceRegularMatchesEncoded(t *testing.T) {
	tbl := newTable(t, 256)
	fill(t, tbl, 512, true)
	pred := NewLeaf(1, vector.Eq, types.NewString("g1")).ForceRegular()
	scanReg := NewScan(tbl.Snapshot(), pred)
	scanReg.DisableIndexSkipping = true
	gotReg := scanReg.Count()
	scanEnc := NewScan(tbl.Snapshot(), NewLeaf(1, vector.Eq, types.NewString("g1")).ForceEncoded())
	scanEnc.DisableIndexSkipping = true
	if gotEnc := scanEnc.Count(); gotEnc != gotReg {
		t.Fatalf("encoded %d != regular %d", gotEnc, gotReg)
	}
	if scanReg.Stats.RegularFilters == 0 {
		t.Fatal("regular strategy not used when forced")
	}
}

func TestAggregateSimple(t *testing.T) {
	tbl := newTable(t, 64)
	fill(t, tbl, 200, false)
	rows := Aggregate(tbl.Snapshot(), nil, nil, []AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, Col: 2},
		{Func: Min, Col: 2},
		{Func: Max, Col: 2},
		{Func: Avg, Col: 3},
	}, nil)
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	var wantSum, wantN int64
	var wantF float64
	for i := 0; i < 200; i++ {
		wantN++
		wantSum += int64(i % 100)
		wantF += float64(i) * 0.5
	}
	if r[0].I != wantN || r[1].I != wantSum {
		t.Fatalf("count/sum = %v/%v", r[0], r[1])
	}
	if r[2].I != 0 || r[3].I != 99 {
		t.Fatalf("min/max = %v/%v", r[2], r[3])
	}
	if av := r[4].F; av < wantF/200-0.001 || av > wantF/200+0.001 {
		t.Fatalf("avg = %v", av)
	}
}

func TestAggregateGroupByWithExprAndFilter(t *testing.T) {
	tbl := newTable(t, 64)
	fill(t, tbl, 300, false)
	filter := NewLeaf(2, vector.Lt, types.NewInt(50))
	rows := Aggregate(tbl.Snapshot(), filter, []int{1}, []AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, Expr: func(r types.Row) types.Value { return types.NewFloat(r[3].F * 2) }},
	}, nil)
	if len(rows) != 5 {
		t.Fatalf("got %d groups", len(rows))
	}
	// Check one group against scalar computation.
	for _, r := range rows {
		g := r[0].S
		var wantN int64
		var wantS float64
		scalarCount(tbl, func(row types.Row) bool {
			if row[1].S == g && row[2].I < 50 {
				wantN++
				wantS += row[3].F * 2
			}
			return false
		})
		if r[1].I != wantN {
			t.Fatalf("group %s count = %d, want %d", g, r[1].I, wantN)
		}
		if d := r[2].F - wantS; d < -0.01 || d > 0.01 {
			t.Fatalf("group %s sum = %f, want %f", g, r[2].F, wantS)
		}
	}
}

func TestSortAndLimit(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(3), types.NewString("c")},
		{types.NewInt(1), types.NewString("b")},
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("d")},
	}
	SortRows(rows, []SortKey{{Col: 0}, {Col: 1, Desc: true}})
	if rows[0][1].S != "b" || rows[1][1].S != "a" || rows[3][0].I != 3 {
		t.Fatalf("sorted = %v", rows)
	}
	if got := Limit(rows, 2); len(got) != 2 {
		t.Fatalf("Limit = %v", got)
	}
}

func TestEquiJoinIndexVsHashAgree(t *testing.T) {
	tbl := newTable(t, 64)
	fill(t, tbl, 400, false)
	// Build side: 3 groups.
	build := []types.Row{
		{types.NewString("g1"), types.NewInt(100)},
		{types.NewString("g4"), types.NewInt(400)},
	}
	count := func(mode JoinMode) (int, bool) {
		n := 0
		var stats ScanStats
		used := EquiJoin(build, []int{0}, tbl.Snapshot(), []int{1}, nil, mode, &stats,
			func(b, p types.Row) bool { n++; return true })
		return n, used
	}
	nIdx, usedIdx := count(JoinForceIndex)
	nHash, usedHash := count(JoinForceHash)
	if !usedIdx || usedHash {
		t.Fatalf("join paths wrong: idx=%v hash=%v", usedIdx, usedHash)
	}
	if nIdx != nHash {
		t.Fatalf("index join %d != hash join %d", nIdx, nHash)
	}
	want := int(scalarCount(tbl, func(r types.Row) bool { return r[1].S == "g1" || r[1].S == "g4" }))
	if nIdx != want {
		t.Fatalf("join rows = %d, want %d", nIdx, want)
	}
}

func TestEquiJoinAutoFallsBackOnLargeBuild(t *testing.T) {
	tbl := newTable(t, 64)
	fill(t, tbl, 100, true)
	// Build side nearly as large as probe side: auto mode must fall back.
	var build []types.Row
	for i := 0; i < 90; i++ {
		build = append(build, types.Row{types.NewString(fmt.Sprintf("g%d", i))})
	}
	var stats ScanStats
	used := EquiJoin(build, []int{0}, tbl.Snapshot(), []int{1}, nil, JoinAuto, &stats,
		func(b, p types.Row) bool { return true })
	if used {
		t.Fatal("join index filter should have been dynamically disabled")
	}
	if stats.JoinIndexFallbacks != 1 {
		t.Fatalf("fallbacks = %d", stats.JoinIndexFallbacks)
	}
}

// TestEquiJoinFloatZeros: a build key 0.0 joins the probe rows holding
// -0.0, in segments and in the buffer, on the index path, the hash path and
// whichever the join picks itself.
func TestEquiJoinFloatZeros(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "f", Type: types.Float64},
	)
	s.UniqueKey = []int{0}
	s.SecondaryKeys = [][]int{{1}}
	tbl, err := core.NewTable("z", s, core.Config{MaxSegmentRows: 32},
		core.NewCommitter(), wal.NewLog(), core.NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 200)
	for i := range rows {
		f := float64(i % 4)
		if f == 0 {
			f = math.Copysign(0, -1)
		}
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(f)}
	}
	if err := tbl.BulkLoad(rows[:100]); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[100:] {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	build := []types.Row{{types.NewFloat(0)}}
	for _, mode := range []JoinMode{JoinAuto, JoinForceHash, JoinForceIndex} {
		n := 0
		used := EquiJoin(build, []int{0}, tbl.Snapshot(), []int{1}, nil, mode, nil,
			func(b, p types.Row) bool { n++; return true })
		if n != 50 || used != (mode != JoinForceHash) {
			t.Errorf("mode %d: %d rows joined (index path %v), want 50", mode, n, used)
		}
	}
}

// TestEquiJoinSkipsNullKeys: a NULL build key joins no NULL probe key, in
// segments or in the buffer, whichever path the join takes.
func TestEquiJoinSkipsNullKeys(t *testing.T) {
	tbl := newTable(t, 64)
	nullRow := func(id int64) types.Row {
		return types.Row{types.NewInt(id), types.Null(types.String), types.NewInt(1), types.NewFloat(1)}
	}
	if err := tbl.BulkLoad([]types.Row{nullRow(1001), nullRow(1002)}); err != nil {
		t.Fatal(err)
	}
	fill(t, tbl, 200, false)
	if err := tbl.Insert(nullRow(1000)); err != nil {
		t.Fatal(err)
	}
	build := []types.Row{{types.Null(types.String)}, {types.NewString("g1")}}
	want := int(scalarCount(tbl, func(r types.Row) bool { return !r[1].IsNull && r[1].S == "g1" }))
	for _, mode := range []JoinMode{JoinAuto, JoinForceHash, JoinForceIndex} {
		n := 0
		EquiJoin(build, []int{0}, tbl.Snapshot(), []int{1}, nil, mode, nil, func(b, p types.Row) bool {
			if b[0].IsNull || p[1].IsNull {
				t.Errorf("mode %d joined NULL keys: %v with %v", mode, b, p)
			}
			n++
			return true
		})
		if n != want {
			t.Errorf("mode %d: %d pairs, want %d", mode, n, want)
		}
	}
}

func TestScanSeesBufferAndSegmentsConsistently(t *testing.T) {
	tbl := newTable(t, 32)
	fill(t, tbl, 100, false) // half segments, half buffer
	total := NewScan(tbl.Snapshot(), nil).Count()
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
	// Delete some rows, scan again at old and new snapshots.
	view := tbl.Snapshot()
	tbl.DeleteWhere(core.Where{Col: -1, Pred: func(r types.Row) bool { return r[0].I < 10 }})
	if n := NewScan(view, nil).Count(); n != 100 {
		t.Fatalf("old snapshot count = %d", n)
	}
	if n := NewScan(tbl.Snapshot(), nil).Count(); n != 90 {
		t.Fatalf("new snapshot count = %d", n)
	}
}

func TestQuickFilterTreeRandom(t *testing.T) {
	tbl := newTable(t, 64)
	fill(t, tbl, 300, false)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		op := vector.CmpOp(rng.Intn(6))
		cut := rng.Int63n(100)
		g := fmt.Sprintf("g%d", rng.Intn(5))
		node := NewAnd(
			NewLeaf(2, op, types.NewInt(cut)),
			NewLeaf(1, vector.Eq, types.NewString(g)),
		)
		got := NewScan(tbl.Snapshot(), node).Count()
		want := scalarCount(tbl, func(r types.Row) bool {
			return vector.Cmp(r[2].I, op, cut) && r[1].S == g
		})
		if got != want {
			t.Fatalf("trial %d (op=%v cut=%d g=%s): %d != %d", trial, op, cut, g, got, want)
		}
	}
}

func TestEncodedGroupByMatchesGeneralPath(t *testing.T) {
	tbl := newTable(t, 256)
	fill(t, tbl, 1024, true) // grp is dictionary-encoded in segments
	// Encoded group-by path (plain aggs, single dict group column).
	fast := Aggregate(tbl.Snapshot(), nil, []int{1}, []AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, Col: 2},
		{Func: Min, Col: 0},
		{Func: Max, Col: 0},
		{Func: Avg, Col: 3},
	}, nil)
	// Force the general path with a no-op expression aggregate appended.
	slow := Aggregate(tbl.Snapshot(), nil, []int{1}, []AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, Col: 2},
		{Func: Min, Col: 0},
		{Func: Max, Col: 0},
		{Func: Avg, Col: 3},
		{Func: Sum, Expr: func(r types.Row) types.Value { return types.NewInt(0) }},
	}, nil)
	if len(fast) != len(slow) {
		t.Fatalf("group counts differ: %d vs %d", len(fast), len(slow))
	}
	index := map[string]types.Row{}
	for _, r := range slow {
		index[r[0].S] = r
	}
	for _, r := range fast {
		want := index[r[0].S]
		if want == nil {
			t.Fatalf("group %s missing from general path", r[0].S)
		}
		for c := 1; c <= 5; c++ {
			a, b := r[c], want[c]
			if a.Type == types.Float64 {
				if d := a.F - b.F; d < -1e-9 || d > 1e-9 {
					t.Fatalf("group %s col %d: %v vs %v", r[0].S, c, a, b)
				}
				continue
			}
			if !types.Equal(a, b) {
				t.Fatalf("group %s col %d: %v vs %v", r[0].S, c, a, b)
			}
		}
	}
	// And the encoded path was actually taken.
	s2 := NewScan(tbl.Snapshot(), nil)
	Aggregate(tbl.Snapshot(), nil, []int{1}, []AggSpec{{Func: Count, Col: -1}}, s2)
	if s2.Stats.EncodedFilters == 0 {
		t.Fatal("encoded group-by not used on dictionary column")
	}
}
