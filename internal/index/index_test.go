package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"s2db/internal/colstore"
	"s2db/internal/types"
)

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want Postings }{
		{Postings{1, 3, 5}, Postings{3, 5, 7}, Postings{3, 5}},
		{Postings{1, 2}, Postings{3, 4}, Postings{}},
		{Postings{}, Postings{1}, Postings{}},
		{Postings{1, 2, 3}, Postings{1, 2, 3}, Postings{1, 2, 3}},
		// Long vs short exercises the galloping path.
		{Postings{500}, seqPostings(0, 1000), Postings{500}},
	}
	for _, c := range cases {
		got := Intersect(c.a, c.b)
		if len(got) != len(c.want) {
			t.Fatalf("Intersect(%v, %v) = %v", c.a, c.b, got)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("Intersect(%v, %v) = %v", c.a, c.b, got)
			}
		}
	}
}

func seqPostings(from, to int32) Postings {
	p := make(Postings, 0, to-from)
	for i := from; i < to; i++ {
		p = append(p, i)
	}
	return p
}

func TestQuickIntersectMatchesSet(t *testing.T) {
	f := func(aRaw, bRaw []uint16) bool {
		a := toSortedPostings(aRaw)
		b := toSortedPostings(bRaw)
		got := Intersect(a, b)
		set := map[int32]bool{}
		for _, v := range a {
			set[v] = true
		}
		var want Postings
		for _, v := range b {
			if set[v] {
				want = append(want, v)
			}
		}
		return reflect.DeepEqual(append(Postings{}, got...), append(Postings{}, want...)) ||
			(len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func toSortedPostings(raw []uint16) Postings {
	seen := map[int32]bool{}
	var p Postings
	for _, v := range raw {
		if !seen[int32(v)] {
			seen[int32(v)] = true
			p = append(p, int32(v))
		}
	}
	// insertion sort is fine for test sizes
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j] < p[j-1]; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	return p
}

func TestUnion(t *testing.T) {
	got := Union(Postings{1, 3}, Postings{2, 3, 4})
	want := Postings{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Union = %v", got)
	}
}

func idxSchema() *types.Schema {
	s := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.String},
		types.Column{Name: "c", Type: types.Int64},
	)
	s.SecondaryKeys = [][]int{{0}, {1, 2}}
	return s
}

func buildSeg(schema *types.Schema, id uint64, rows []types.Row) *colstore.Segment {
	b := colstore.NewBuilder(schema)
	for _, r := range rows {
		b.Add(r)
	}
	return b.Build(id)
}

func TestSegmentIndexLookup(t *testing.T) {
	schema := idxSchema()
	seg := buildSeg(schema, 1, []types.Row{
		{types.NewInt(5), types.NewString("x"), types.NewInt(1)},
		{types.NewInt(7), types.NewString("y"), types.NewInt(2)},
		{types.NewInt(5), types.NewString("x"), types.NewInt(3)},
	})
	si := BuildSegmentIndex(seg, 0)
	if got := si.Lookup(types.NewInt(5)); !reflect.DeepEqual(got, Postings{0, 2}) {
		t.Fatalf("Lookup(5) = %v", got)
	}
	if got := si.Lookup(types.NewInt(6)); got != nil {
		t.Fatalf("Lookup(6) = %v", got)
	}
	if si.DistinctValues() != 2 {
		t.Fatalf("DistinctValues = %d", si.DistinctValues())
	}
	if si.Lookup(types.Null(types.Int64)) != nil {
		t.Fatal("nulls must not be indexed")
	}
}

// TestGlobalIndexLookupAndMerge covers the lookups of segments that share
// a value: one probe finds every registered segment, however many are
// registered.
func TestGlobalIndexLookupAndMerge(t *testing.T) {
	g := NewGlobalIndex()
	h := types.HashMany([]types.Value{types.NewInt(42)})
	for seg := uint64(1); seg <= 3; seg++ {
		g.AddSegment(seg, []uint64{h})
	}
	segs, probes := g.Lookup(h)
	if !reflect.DeepEqual(segs, []uint64{1, 2, 3}) || probes != 1 {
		t.Fatalf("Lookup = %v probes=%d", segs, probes)
	}
	g.AddSegment(4, []uint64{h})
	segs, probes = g.Lookup(h)
	if !reflect.DeepEqual(segs, []uint64{1, 2, 3, 4}) || probes != 1 {
		t.Fatalf("Lookup after a fourth segment = %v probes=%d", segs, probes)
	}
	if segs, _ := g.Lookup(types.HashMany([]types.Value{types.NewInt(43)})); len(segs) != 0 {
		t.Fatalf("absent value matched %v", segs)
	}
}

func TestGlobalIndexLazyDeletion(t *testing.T) {
	g := NewGlobalIndex()
	h := types.HashMany([]types.Value{types.NewInt(1)})
	g.AddSegment(1, []uint64{h})
	g.AddSegment(2, []uint64{h})
	g.DropSegment(1)
	segs, _ := g.Lookup(h)
	if len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("Lookup after drop = %v", segs)
	}
}

// TestGlobalIndexModel runs random registrations, drops, re-registrations
// of dropped ids and lookups against a naive map from hash to segment set:
// Lookup returns exactly the live segments registered under the hash, each
// once.
func TestGlobalIndexModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGlobalIndex()
	model := map[uint64]map[uint64]bool{} // hash -> live segments
	live := map[uint64][]uint64{}         // segment -> its hashes
	var dropped []uint64
	nextID := uint64(1)
	register := func(id uint64) {
		hashes := make([]uint64, rng.Intn(8))
		for i := range hashes {
			hashes[i] = uint64(rng.Intn(20)) // small universe: repeats and sharing
		}
		g.AddSegment(id, hashes)
		live[id] = hashes
		for _, h := range hashes {
			if model[h] == nil {
				model[h] = map[uint64]bool{}
			}
			model[h][id] = true
		}
	}
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			register(nextID)
			nextID++
		case r < 5 && len(dropped) > 0:
			i := rng.Intn(len(dropped))
			id := dropped[i]
			dropped = append(dropped[:i], dropped[i+1:]...)
			register(id)
		case r < 7 && len(live) > 0:
			ids := make([]uint64, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[rng.Intn(len(ids))]
			g.DropSegment(id)
			for _, h := range live[id] {
				delete(model[h], id)
			}
			delete(live, id)
			dropped = append(dropped, id)
		default:
			h := uint64(rng.Intn(22))
			got, _ := g.Lookup(h)
			sorted := append([]uint64(nil), got...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			var want []uint64
			for id := range model[h] {
				want = append(want, id)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(sorted) != len(want) || (len(want) > 0 && !reflect.DeepEqual(sorted, want)) {
				t.Fatalf("op %d: Lookup(%d) = %v, want %v", op, h, got, want)
			}
		}
	}
	if g.purges == 0 {
		t.Fatal("no purge ran: the amortised purge path is untested")
	}
}

// TestGlobalIndexRegistrationCost: registering a segment touches only its
// own hashes. A thousand registrations run no purge and leave every earlier
// segment's entries where they were.
func TestGlobalIndexRegistrationCost(t *testing.T) {
	g := NewGlobalIndex()
	shared := types.HashMany([]types.Value{types.NewString("shared")})
	own := make([]*uint64, 0, 1000)
	for id := uint64(1); id <= 1000; id++ {
		h := types.HashMany([]types.Value{types.NewInt(int64(id))})
		g.AddSegment(id, []uint64{h, shared})
		own = append(own, &g.m[h][0])
	}
	if g.purges != 0 {
		t.Fatalf("registration ran %d purges", g.purges)
	}
	for i, p := range own {
		id := uint64(i + 1)
		l := g.m[types.HashMany([]types.Value{types.NewInt(int64(id))})]
		if len(l) != 1 || &l[0] != p || *p != id {
			t.Fatalf("segment %d's entry was rewritten", id)
		}
	}
	if segs, _ := g.Lookup(shared); len(segs) != 1000 {
		t.Fatalf("shared value found in %d segments, want 1000", len(segs))
	}
}

func TestSetSingleColumnLookup(t *testing.T) {
	schema := idxSchema()
	set := NewSet(schema)
	seg1 := buildSeg(schema, 1, []types.Row{
		{types.NewInt(5), types.NewString("x"), types.NewInt(1)},
		{types.NewInt(6), types.NewString("y"), types.NewInt(2)},
	})
	seg2 := buildSeg(schema, 2, []types.Row{
		{types.NewInt(5), types.NewString("z"), types.NewInt(3)},
	})
	set.AddSegment(seg1)
	set.AddSegment(seg2)
	matches, _ := set.LookupColumn(0, types.NewInt(5))
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	found := map[uint64]Postings{}
	for _, m := range matches {
		found[m.SegID] = m.Rows
	}
	if !reflect.DeepEqual(found[1], Postings{0}) || !reflect.DeepEqual(found[2], Postings{0}) {
		t.Fatalf("matches = %+v", found)
	}
}

func TestSetTupleLookup(t *testing.T) {
	schema := idxSchema()
	set := NewSet(schema)
	seg := buildSeg(schema, 1, []types.Row{
		{types.NewInt(1), types.NewString("x"), types.NewInt(10)},
		{types.NewInt(2), types.NewString("x"), types.NewInt(20)},
		{types.NewInt(3), types.NewString("x"), types.NewInt(10)},
	})
	set.AddSegment(seg)
	// (b, c) = (x, 10) matches rows 0 and 2.
	matches, _ := set.LookupTuple([]int{1, 2}, []types.Value{types.NewString("x"), types.NewInt(10)})
	if len(matches) != 1 || !reflect.DeepEqual(matches[0].Rows, Postings{0, 2}) {
		t.Fatalf("tuple matches = %+v", matches)
	}
	// A tuple absent from the table produces no segment candidates even
	// though each column value exists somewhere.
	matches, _ = set.LookupTuple([]int{1, 2}, []types.Value{types.NewString("x"), types.NewInt(99)})
	if len(matches) != 0 {
		t.Fatalf("phantom tuple matched: %+v", matches)
	}
}

func TestSetDropSegment(t *testing.T) {
	schema := idxSchema()
	set := NewSet(schema)
	seg := buildSeg(schema, 1, []types.Row{{types.NewInt(5), types.NewString("x"), types.NewInt(1)}})
	set.AddSegment(seg)
	set.DropSegment(1)
	matches, _ := set.LookupColumn(0, types.NewInt(5))
	if len(matches) != 0 {
		t.Fatalf("dropped segment still matched: %+v", matches)
	}
}

// Property: index lookups return exactly the rows a full scan would.
func TestQuickIndexMatchesScan(t *testing.T) {
	schema := idxSchema()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := NewSet(schema)
		type rowRef struct {
			seg uint64
			row int32
		}
		byVal := map[int64][]rowRef{}
		for segID := uint64(1); segID <= 5; segID++ {
			n := rng.Intn(30) + 1
			rows := make([]types.Row, n)
			for i := range rows {
				v := rng.Int63n(10)
				rows[i] = types.Row{types.NewInt(v), types.NewString(fmt.Sprint(v % 3)), types.NewInt(v % 4)}
				byVal[v] = append(byVal[v], rowRef{segID, int32(i)})
			}
			set.AddSegment(buildSeg(schema, segID, rows))
		}
		for v := int64(0); v < 10; v++ {
			matches, _ := set.LookupColumn(0, types.NewInt(v))
			var got []rowRef
			for _, m := range matches {
				for _, r := range m.Rows {
					got = append(got, rowRef{m.SegID, r})
				}
			}
			if len(got) != len(byVal[v]) {
				return false
			}
			want := map[rowRef]bool{}
			for _, r := range byVal[v] {
				want[r] = true
			}
			for _, r := range got {
				if !want[r] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSetAddSegment indexes full-size segments of a table with a
// unique int key, a low-cardinality string key and a two-column key, on a
// set that already holds earlier segments.
func BenchmarkSetAddSegment(b *testing.B) {
	schema := idxSchema()
	const n = colstore.MaxSegmentRows
	segs := make([]*colstore.Segment, 8)
	for s := range segs {
		rows := make([]types.Row, n)
		for i := range rows {
			id := int64(s*n + i)
			rows[i] = types.Row{types.NewInt(id), types.NewString(fmt.Sprint("tag", id%97)), types.NewInt(id % 1000)}
		}
		segs[s] = buildSeg(schema, uint64(s+1), rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := NewSet(schema)
		for _, seg := range segs {
			set.AddSegment(seg)
		}
	}
}
