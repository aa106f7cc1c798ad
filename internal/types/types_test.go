package types

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"s2db/internal/codec"
)

// decodeWhole decodes buf as exactly one row.
func decodeWhole(buf []byte) (Row, error) {
	r := codec.NewReader(buf)
	row := DecodeRow(r)
	return row, r.Done()
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewString("a"), NewString("b"), -1},
		{Null(Int64), NewInt(-999), -1}, // nulls sort first
		{Null(Int64), Null(Int64), 0},
		{NewInt(5), Null(Int64), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); sign(got) != c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func TestValueString(t *testing.T) {
	if NewInt(42).String() != "42" || NewString("x").String() != "x" || !Null(Int64).IsNull {
		t.Fatal("value rendering broken")
	}
	if Null(Float64).String() != "NULL" {
		t.Fatal("null rendering broken")
	}
}

// TestHashStability pins KeyHash and HashMany: placement, the global index
// and the unique-key locks of every process, and whatever blob holds for
// the next one, depend on these exact values (FNV-1a over EncodeKey bytes).
func TestHashStability(t *testing.T) {
	cases := []struct {
		name string
		vs   []Value
		want uint64
	}{
		{"int 1", []Value{NewInt(1)}, 0xcffdb262079a45df},
		{"int -1", []Value{NewInt(-1)}, 0xd72bde2686fbcaa4},
		{"float 0.0", []Value{NewFloat(0)}, 0xcffdb162079a442c},
		{"float -0.0", []Value{NewFloat(math.Copysign(0, -1))}, 0xcffdb162079a442c},
		{"float 1.5", []Value{NewFloat(1.5)}, 0xa086e75f6076d4eb},
		{"string with 0x00", []Value{NewString("a\x00b")}, 0x195452df09e5f047},
		{"NULL", []Value{Null(Int64)}, 0xaf63bd4c8601b7df},
		{"tuple (1, x)", []Value{NewInt(1), NewString("x")}, 0x40669d74cbe691c9},
	}
	for _, c := range cases {
		if got := HashMany(c.vs); got != c.want {
			t.Errorf("HashMany(%s) = %#x, want %#x", c.name, got, c.want)
		}
		if got := KeyHash(EncodeKey(nil, c.vs...)); got != c.want {
			t.Errorf("KeyHash(EncodeKey(%s)) = %#x, want %#x", c.name, got, c.want)
		}
	}
	if HashMany([]Value{NewInt(1), NewInt(2)}) == HashMany([]Value{NewInt(2), NewInt(1)}) {
		t.Error("tuple hash ignores order")
	}
	// bench/main.go re-executes the chbench run until warehouses 1 and 2
	// sit on different partitions of two; with this hash they always do.
	if HashMany([]Value{NewInt(1)})%2 == HashMany([]Value{NewInt(2)})%2 {
		t.Error("warehouses 1 and 2 share a partition of two")
	}
}

// Property: EncodeKey is order-preserving for ints.
func TestQuickEncodeKeyOrderInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, NewInt(a))
		kb := EncodeKey(nil, NewInt(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewInt(a), NewInt(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey is order-preserving for floats (including negatives).
func TestQuickEncodeKeyOrderFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, NewFloat(a))
		kb := EncodeKey(nil, NewFloat(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewFloat(a), NewFloat(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey is order-preserving for strings, including ones with
// embedded zero bytes (the escape sequence must not break ordering).
func TestQuickEncodeKeyOrderStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKey(nil, NewString(a))
		kb := EncodeKey(nil, NewString(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(NewString(a), NewString(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyTupleOrdering(t *testing.T) {
	// ("a", 2) < ("a", 10) < ("b", 0): tuple ordering is lexicographic.
	k1 := EncodeKey(nil, NewString("a"), NewInt(2))
	k2 := EncodeKey(nil, NewString("a"), NewInt(10))
	k3 := EncodeKey(nil, NewString("b"), NewInt(0))
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Fatal("tuple key ordering broken")
	}
	// Embedded zero in a prefix must not make "a\x00" ~ "a" ambiguous.
	ka := EncodeKey(nil, NewString("a\x00"), NewInt(0))
	kb := EncodeKey(nil, NewString("a"), NewInt(255))
	if bytes.Compare(kb, ka) >= 0 {
		t.Fatal("terminator does not sort below escaped zero")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{NewInt(-5), NewFloat(3.25), NewString("hello")},
		{Null(Int64), Null(Float64), Null(String)},
		{NewString(""), NewString("with\x00zero")},
	}
	for _, r := range rows {
		buf := EncodeRow(nil, r)
		got, err := decodeWhole(buf)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", r, err)
		}
		if len(got) != len(r) {
			t.Fatalf("arity mismatch: %v vs %v", got, r)
		}
		for i := range r {
			if !Equal(got[i], r[i]) || got[i].IsNull != r[i].IsNull {
				t.Fatalf("value %d: %v != %v", i, got[i], r[i])
			}
		}
	}
	// Truncation is an error, not a panic.
	buf := EncodeRow(nil, Row{NewString("abcdef")})
	if _, err := decodeWhole(buf[:len(buf)-2]); err == nil {
		t.Fatal("truncated row should fail")
	}
}

func TestQuickRowCodec(t *testing.T) {
	f := func(i int64, fv float64, s string, nullMask uint8) bool {
		if math.IsNaN(fv) {
			return true
		}
		r := Row{NewInt(i), NewFloat(fv), NewString(s)}
		for b := 0; b < 3; b++ {
			if nullMask&(1<<b) != 0 {
				r[b] = Null(r[b].Type)
			}
		}
		buf := EncodeRow(nil, r)
		got, err := decodeWhole(buf)
		if err != nil || len(got) != 3 {
			return false
		}
		for j := range r {
			if !Equal(got[j], r[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaValidate(t *testing.T) {
	ok := NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "b", Type: String})
	ok.UniqueKey = []int{0}
	ok.SecondaryKeys = [][]int{{1}}
	ok.ShardKey = []int{0}
	ok.SortKey = 1
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Schema{
		NewSchema(), // no columns
		NewSchema(Column{Name: "", Type: Int64}),
		NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "a", Type: Int64}),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad schema %d validated", i)
		}
	}
	oob := NewSchema(Column{Name: "a", Type: Int64})
	oob.UniqueKey = []int{5}
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range unique key validated")
	}
	oob2 := NewSchema(Column{Name: "a", Type: Int64})
	oob2.SortKey = 3
	if err := oob2.Validate(); err == nil {
		t.Fatal("out-of-range sort key validated")
	}
	empty := NewSchema(Column{Name: "a", Type: Int64})
	empty.SecondaryKeys = [][]int{{}}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty secondary key validated")
	}
}

func TestCheckRow(t *testing.T) {
	s := NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "b", Type: String})
	if err := s.CheckRow(Row{NewInt(1), NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckRow(Row{NewInt(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := s.CheckRow(Row{NewString("x"), NewString("y")}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestShardHashRoutingStability(t *testing.T) {
	s := NewSchema(Column{Name: "a", Type: Int64}, Column{Name: "b", Type: Int64})
	s.ShardKey = []int{0}
	r1 := Row{NewInt(7), NewInt(1)}
	r2 := Row{NewInt(7), NewInt(999)} // different non-shard column
	if s.ShardHash(r1) != s.ShardHash(r2) {
		t.Fatal("shard hash depends on non-shard columns")
	}
	// Default shard key is the first column.
	d := NewSchema(Column{Name: "a", Type: Int64})
	if len(d.ShardColumns()) != 1 || d.ShardColumns()[0] != 0 {
		t.Fatal("default shard key wrong")
	}
}

func TestRowCloneAndProject(t *testing.T) {
	r := Row{NewInt(1), NewString("x"), NewFloat(2)}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].I != 1 {
		t.Fatal("Clone aliases the original")
	}
	p := r.Project([]int{2, 0})
	if p[0].F != 2 || p[1].I != 1 {
		t.Fatalf("Project = %v", p)
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if CompareRows(a, b, []int{0}) != 0 {
		t.Fatal("equal on first key should be 0")
	}
	if CompareRows(a, b, []int{0, 1}) >= 0 {
		t.Fatal("tie-break on second key failed")
	}
}

// FuzzDecodeRow holds DecodeRow to the decoder contract: rows arrive in log
// records and snapshot bundles, so hostile bytes are rejected with
// codec.ErrCorrupt, without panicking or allocating beyond 128 bytes per
// input byte plus 1 MiB, and an accepted row re-encodes to bytes that
// decode and re-encode to themselves.
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(nil, Row{NewInt(-5), NewFloat(3.25), NewString("hello")}))
	f.Add(EncodeRow(nil, Row{Null(Int64), Null(Float64), Null(String)}))
	f.Add(EncodeRow(nil, Row{}))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x10}) // arity 2^32
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		row, err := decodeWhole(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		enc := EncodeRow(nil, row)
		again, err := decodeWhole(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted row: %v", err)
		}
		if !bytes.Equal(EncodeRow(nil, again), enc) {
			t.Fatal("unstable round trip")
		}
	})
}
