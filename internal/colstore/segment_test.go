package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"s2db/internal/bitmap"
	"s2db/internal/types"
)

func testSchema() *types.Schema {
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "price", Type: types.Float64},
		types.Column{Name: "name", Type: types.String},
	)
	return s
}

func mkRow(i int) types.Row {
	return types.Row{
		types.NewInt(int64(i)),
		types.NewFloat(float64(i) * 1.5),
		types.NewString(fmt.Sprintf("name-%03d", i%10)),
	}
}

func buildSegment(t *testing.T, schema *types.Schema, n int) *Segment {
	t.Helper()
	b := NewBuilder(schema)
	for i := 0; i < n; i++ {
		b.Add(mkRow(i))
	}
	return b.Build(1)
}

func TestBuildAndRowAt(t *testing.T) {
	schema := testSchema()
	seg := buildSegment(t, schema, 100)
	if seg.NumRows != 100 {
		t.Fatalf("NumRows = %d", seg.NumRows)
	}
	for _, i := range []int{0, 1, 50, 99} {
		r := seg.RowAt(i)
		want := mkRow(i)
		for c := range want {
			if !types.Equal(r[c], want[c]) {
				t.Fatalf("RowAt(%d)[%d] = %v, want %v", i, c, r[c], want[c])
			}
		}
	}
}

func TestBuilderSortsBySortKey(t *testing.T) {
	schema := testSchema()
	schema.SortKey = 0
	b := NewBuilder(schema)
	for _, i := range []int{5, 1, 9, 3} {
		b.Add(mkRow(i))
	}
	seg := b.Build(1)
	prev := int64(-1)
	for i := 0; i < seg.NumRows; i++ {
		v := seg.ValueAt(i, 0).I
		if v < prev {
			t.Fatalf("segment not sorted at %d: %d < %d", i, v, prev)
		}
		prev = v
	}
}

func TestZoneMaps(t *testing.T) {
	seg := buildSegment(t, testSchema(), 100) // ids 0..99
	if !types.Equal(seg.Min[0], types.NewInt(0)) || !types.Equal(seg.Max[0], types.NewInt(99)) {
		t.Fatalf("id range [%v, %v]", seg.Min[0], seg.Max[0])
	}
	// MayContain: op codes match vector.CmpOp (Eq=0 Ne=1 Lt=2 Le=3 Gt=4 Ge=5).
	cases := []struct {
		op   int
		v    int64
		want bool
	}{
		{0, 50, true}, {0, 100, false}, {0, -1, false},
		{2, 1, true}, {2, 0, false},
		{4, 98, true}, {4, 99, false},
		{5, 99, true}, {5, 100, false},
		{3, 0, true}, {3, -1, false},
	}
	for _, c := range cases {
		if got := seg.MayContain(0, c.op, types.NewInt(c.v)); got != c.want {
			t.Errorf("MayContain(op=%d, v=%d) = %v, want %v", c.op, c.v, got, c.want)
		}
	}
}

// TestZoneMapsMatchBoxedCompare: the typed zone-map loops keep the Min,
// Max and HasRange that a walk with types.Compare over boxed values
// keeps, bit for bit — on random rows with NULLs, NaN, −0.0 and 0.0,
// infinities and empty strings, including all-NULL and single-row
// columns.
func TestZoneMapsMatchBoxedCompare(t *testing.T) {
	schema := testSchema()
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2, math.Inf(1), math.Inf(-1), 1e300}
	strs := []string{"", "a", "ab", "b", "\x00", "zz"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12)
		nullRate := rng.Intn(3) // 0: none, 1: some, 2: most
		rows := make([]types.Row, n)
		for i := range rows {
			row := types.Row{
				types.NewInt(rng.Int63n(21) - 10),
				types.NewFloat(floats[rng.Intn(len(floats))]),
				types.NewString(strs[rng.Intn(len(strs))]),
			}
			for c := range row {
				if rng.Intn(4) < nullRate {
					row[c] = types.Null(schema.Columns[c].Type)
				}
			}
			rows[i] = row
		}
		seg := BuildSegment(1, schema, rows)
		for c := range schema.Columns {
			lo, hi, has := boxedRange(rows, c)
			if seg.HasRange[c] != has || !sameBits(seg.Min[c], lo) || !sameBits(seg.Max[c], hi) {
				t.Fatalf("trial %d column %d: typed [%v %v] %v, boxed [%v %v] %v (rows %v)",
					trial, c, seg.Min[c], seg.Max[c], seg.HasRange[c], lo, hi, has, rows)
			}
		}
	}
}

// boxedRange is the zone-map walk the typed loops replace: the first
// non-NULL value, moved only by one types.Compare orders strictly before
// or after it.
func boxedRange(rows []types.Row, c int) (lo, hi types.Value, has bool) {
	for _, r := range rows {
		v := r[c]
		switch {
		case v.IsNull:
		case !has:
			lo, hi, has = v, v, true
		default:
			if types.Compare(v, lo) < 0 {
				lo = v
			}
			if types.Compare(v, hi) > 0 {
				hi = v
			}
		}
	}
	return lo, hi, has
}

// sameBits compares values field by field, floats by their bits, so NaN
// matches NaN and −0.0 differs from 0.0.
func sameBits(a, b types.Value) bool {
	return a.Type == b.Type && a.IsNull == b.IsNull && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func TestNullHandling(t *testing.T) {
	schema := testSchema()
	b := NewBuilder(schema)
	b.Add(types.Row{types.NewInt(1), types.Null(types.Float64), types.NewString("x")})
	b.Add(types.Row{types.NewInt(2), types.NewFloat(7), types.Null(types.String)})
	seg := b.Build(1)
	if !seg.ValueAt(0, 1).IsNull {
		t.Fatal("null float lost")
	}
	if !seg.ValueAt(1, 2).IsNull {
		t.Fatal("null string lost")
	}
	if v := seg.ValueAt(1, 1); v.F != 7 {
		t.Fatalf("non-null value wrong: %v", v)
	}
	// Range over non-null values only.
	if !types.Equal(seg.Min[1], types.NewFloat(7)) {
		t.Fatalf("Min over nulls = %v", seg.Min[1])
	}
}

func TestAllNullColumnEliminatesSegment(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Type: types.Int64})
	b := NewBuilder(schema)
	b.Add(types.Row{types.Null(types.Int64)})
	seg := b.Build(1)
	if seg.MayContain(0, 0, types.NewInt(1)) {
		t.Fatal("all-null column should never match a comparison")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	schema := testSchema()
	b := NewBuilder(schema)
	for i := 0; i < 500; i++ {
		r := mkRow(i)
		if i%17 == 0 {
			r[1] = types.Null(types.Float64)
		}
		b.Add(r)
	}
	seg := b.Build(42)
	buf := seg.Encode()
	dec, err := Decode(buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != 42 || dec.NumRows != seg.NumRows {
		t.Fatalf("header mismatch: %d/%d", dec.ID, dec.NumRows)
	}
	for i := 0; i < seg.NumRows; i++ {
		for c := range schema.Columns {
			if !types.Equal(dec.ValueAt(i, c), seg.ValueAt(i, c)) {
				t.Fatalf("(%d,%d): %v != %v", i, c, dec.ValueAt(i, c), seg.ValueAt(i, c))
			}
		}
	}
	for c := range schema.Columns {
		if dec.HasRange[c] != seg.HasRange[c] {
			t.Fatalf("HasRange[%d] mismatch", c)
		}
		if seg.HasRange[c] && (!types.Equal(dec.Min[c], seg.Min[c]) || !types.Equal(dec.Max[c], seg.Max[c])) {
			t.Fatalf("range[%d] mismatch", c)
		}
	}
	// Truncation fails cleanly.
	if _, err := Decode(buf[:len(buf)/2], schema); err == nil {
		t.Fatal("truncated segment should fail to decode")
	}
}

func TestDecodeSchemaMismatch(t *testing.T) {
	seg := buildSegment(t, testSchema(), 10)
	other := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	if _, err := Decode(seg.Encode(), other); err == nil {
		t.Fatal("decode with wrong schema should fail")
	}
}

func TestMergeSegmentsPreservesLiveRows(t *testing.T) {
	schema := testSchema()
	schema.SortKey = 0
	var metas []*Meta
	total := 0
	for s := 0; s < 3; s++ {
		b := NewBuilder(schema)
		for i := 0; i < 50; i++ {
			b.Add(mkRow(s*50 + i))
		}
		m := NewMeta(b.Build(uint64(s)), s, fmt.Sprintf("f%d", s))
		// Delete every 7th row.
		for i := 0; i < 50; i += 7 {
			m.Deleted.Set(i)
		}
		total += m.LiveRows()
		metas = append(metas, m)
	}
	// Each input meta is its own single-segment run.
	runs := make([][]*Meta, len(metas))
	for i, m := range metas {
		runs[i] = []*Meta{m}
	}
	km := NewKMerge(runs, schema, 40, nil)
	got := 0
	prev := int64(-1)
	for o := 0; o < km.NumOutputs(); o++ {
		seg := km.BuildOutput(o, uint64(101+o))
		if seg.NumRows > 40 {
			t.Fatalf("segment exceeds maxRows: %d", seg.NumRows)
		}
		for i := 0; i < seg.NumRows; i++ {
			v := seg.ValueAt(i, 0).I
			if v < prev {
				t.Fatalf("merged output not globally sorted")
			}
			prev = v
			got++
		}
	}
	if got != total {
		t.Fatalf("merge produced %d rows, want %d live rows", got, total)
	}
}

func TestPickMerge(t *testing.T) {
	// Fewer runs than fanout: no merge.
	if p := PickMerge(map[int]int{1: 10}, 4, nil); p != nil {
		t.Fatal("single run should not merge")
	}
	// Four similarly-sized runs merge.
	sizes := map[int]int{1: 10, 2: 12, 3: 9, 4: 11}
	p := PickMerge(sizes, 4, nil)
	if p == nil || len(p.Runs) != 4 {
		t.Fatalf("PickMerge = %+v", p)
	}
	// One big run plus three small ones: not enough in any tier.
	sizes = map[int]int{1: 100000, 2: 12, 3: 9, 4: 11}
	if p := PickMerge(sizes, 4, nil); p != nil {
		t.Fatalf("unbalanced tiers should not merge, got %+v", p)
	}
}

func TestPickMergeKeepsRunCountLogarithmic(t *testing.T) {
	// Simulate repeated flushes of 100-row runs and verify the run count
	// stays bounded when merges are applied.
	fanout := 4
	sizes := map[int]int{}
	nextRun := 0
	maxRuns := 0
	for flush := 0; flush < 200; flush++ {
		sizes[nextRun] = 100
		nextRun++
		for {
			p := PickMerge(sizes, fanout, nil)
			if p == nil {
				break
			}
			total := 0
			for _, r := range p.Runs {
				total += sizes[r]
				delete(sizes, r)
			}
			sizes[nextRun] = total
			nextRun++
		}
		if len(sizes) > maxRuns {
			maxRuns = len(sizes)
		}
	}
	if maxRuns > 12 {
		t.Fatalf("run count reached %d; merge policy is not logarithmic", maxRuns)
	}
}

func TestMetaCloneIsolation(t *testing.T) {
	seg := buildSegment(t, testSchema(), 10)
	m := NewMeta(seg, 0, "f")
	d := m.Deleted.Clone()
	d.Set(3)
	m2 := m.CloneWithDeleted(d)
	if m.Deleted.Get(3) {
		t.Fatal("original meta mutated")
	}
	if !m2.Deleted.Get(3) || m2.LiveRows() != 9 {
		t.Fatal("clone wrong")
	}
}

// Property: segment round trip through encode/decode preserves every cell
// for random rows including nulls.
func TestQuickSegmentRoundTrip(t *testing.T) {
	schema := testSchema()
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		b := NewBuilder(schema)
		rows := make([]types.Row, n)
		for i := 0; i < n; i++ {
			r := types.Row{
				types.NewInt(rng.Int63n(1000) - 500),
				types.NewFloat(rng.NormFloat64()),
				types.NewString(fmt.Sprintf("s%d", rng.Intn(20))),
			}
			if rng.Intn(10) == 0 {
				r[rng.Intn(3)] = types.Null(schema.Columns[rng.Intn(3)].Type)
			}
			rows[i] = r.Clone()
			b.Add(r)
		}
		seg := b.Build(uint64(seed))
		dec, err := Decode(seg.Encode(), schema)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for c := 0; c < 3; c++ {
				if !types.Equal(dec.ValueAt(i, c), rows[i][c]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

var _ = bitmap.New // silence unused import when editing
