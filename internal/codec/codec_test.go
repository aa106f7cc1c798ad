package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripInts(t *testing.T, vals []int64, enc IntColumn) {
	t.Helper()
	if enc.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", enc.Len(), len(vals))
	}
	got := enc.DecodeAll(nil)
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("DecodeAll[%d] = %d, want %d", i, got[i], v)
		}
		if enc.At(i) != v {
			t.Fatalf("At(%d) = %d, want %d", i, enc.At(i), v)
		}
	}
	buf := enc.AppendBinary(nil)
	dec, err := decodeWhole(buf, DecodeIntColumn)
	if err != nil {
		t.Fatalf("DecodeIntColumn: %v", err)
	}
	if !reflect.DeepEqual(dec.DecodeAll(nil), got) {
		t.Fatalf("serialized round trip differs")
	}
	if dec.Kind() != enc.Kind() {
		t.Fatalf("kind changed across serialization: %v -> %v", enc.Kind(), dec.Kind())
	}
}

func TestBitPackRoundTrip(t *testing.T) {
	cases := [][]int64{
		{},
		{0},
		{7, 7, 7},
		{-5, 0, 5, 1 << 40, -(1 << 40)},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	for _, vals := range cases {
		roundTripInts(t, vals, NewBitPack(vals))
	}
}

func TestBitPackWidth(t *testing.T) {
	b := NewBitPack([]int64{100, 101, 102, 103})
	if b.Width() != 2 {
		t.Fatalf("Width = %d, want 2 (frame of reference)", b.Width())
	}
	if b.At(3) != 103 {
		t.Fatalf("At(3) = %d", b.At(3))
	}
}

func TestBitPackCrossWordBoundary(t *testing.T) {
	// Width 13 guarantees values straddling 64-bit word boundaries.
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = int64(i * 37 % 8000)
	}
	roundTripInts(t, vals, NewBitPack(vals))
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]int64{
		{1},
		{1, 1, 1, 2, 2, 3},
		{5, 5, 5, 5, 5},
		{-1, -1, 0, 0, 1, 1},
	}
	for _, vals := range cases {
		roundTripInts(t, vals, NewRLE(vals))
	}
}

func TestRLERuns(t *testing.T) {
	r := NewRLE([]int64{4, 4, 4, 9, 9, 2})
	if r.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3", r.Runs())
	}
	v, s, e := r.Run(1)
	if v != 9 || s != 3 || e != 5 {
		t.Fatalf("Run(1) = (%d, %d, %d), want (9, 3, 5)", v, s, e)
	}
}

func TestPlainIntRoundTrip(t *testing.T) {
	vals := []int64{1, -9, 1 << 62, -(1 << 62)}
	roundTripInts(t, vals, NewPlainInt(vals))
}

func TestEncodeIntsChoosesRLEForRuns(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i / 1000)
	}
	if k := EncodeInts(vals).Kind(); k != KindRLE {
		t.Fatalf("EncodeInts picked %v for long runs, want rle", k)
	}
}

func TestEncodeIntsChoosesBitPackForRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	if k := EncodeInts(vals).Kind(); k != KindBitPack {
		t.Fatalf("EncodeInts picked %v for random data, want bitpack", k)
	}
}

func roundTripStrings(t *testing.T, vals []string, enc StringColumn) {
	t.Helper()
	if enc.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", enc.Len(), len(vals))
	}
	for i, v := range vals {
		if enc.At(i) != v {
			t.Fatalf("At(%d) = %q, want %q", i, enc.At(i), v)
		}
	}
	got := enc.DecodeAll(nil)
	if !reflect.DeepEqual(got, append([]string{}, vals...)) && len(vals) > 0 {
		t.Fatalf("DecodeAll mismatch: %v vs %v", got, vals)
	}
	buf := enc.AppendBinary(nil)
	dec, err := decodeWhole(buf, DecodeStringColumn)
	if err != nil {
		t.Fatalf("DecodeStringColumn: %v", err)
	}
	for i, v := range vals {
		if dec.At(i) != v {
			t.Fatalf("decoded At(%d) = %q, want %q", i, dec.At(i), v)
		}
	}
}

func TestDictRoundTrip(t *testing.T) {
	vals := []string{"b", "a", "b", "c", "a", "a"}
	d := NewDict(vals)
	roundTripStrings(t, vals, d)
	if d.DictSize() != 3 {
		t.Fatalf("DictSize = %d, want 3", d.DictSize())
	}
	if d.CodeOf("b") != 1 {
		t.Fatalf("CodeOf(b) = %d, want 1 (sorted dict)", d.CodeOf("b"))
	}
	if d.CodeOf("zzz") != -1 {
		t.Fatalf("CodeOf(zzz) should be -1")
	}
}

func TestPlainStringRoundTrip(t *testing.T) {
	roundTripStrings(t, []string{"", "hello", "world", ""}, NewPlainString([]string{"", "hello", "world", ""}))
}

func TestLZStringRoundTrip(t *testing.T) {
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = strings.Repeat("payload-", i%7+1) + string(rune('a'+i%26))
	}
	roundTripStrings(t, vals, NewLZString(vals))
}

func TestLZStringCompresses(t *testing.T) {
	vals := make([]string, 2000)
	for i := range vals {
		vals[i] = "the same highly compressible string value"
	}
	raw := 0
	for _, v := range vals {
		raw += len(v)
	}
	lz := NewLZString(vals)
	if cs := lz.CompressedSize(); cs >= raw/4 {
		t.Fatalf("compressed %d of %d raw bytes; expected at least 4x", cs, raw)
	}
}

func TestLZStringSpanningBlocks(t *testing.T) {
	// One giant value spanning multiple 16K blocks must slice correctly.
	big := strings.Repeat("0123456789abcdef", 4096) // 64 KiB
	vals := []string{"start", big, "end"}
	lz := NewLZString(vals)
	if lz.At(1) != big {
		t.Fatal("big value corrupted across block boundary")
	}
	if lz.At(0) != "start" || lz.At(2) != "end" {
		t.Fatal("neighbors corrupted")
	}
}

func TestEncodeStringsChoosesDictForLowCardinality(t *testing.T) {
	vals := make([]string, 1000)
	for i := range vals {
		vals[i] = []string{"red", "green", "blue"}[i%3]
	}
	if k := EncodeStrings(vals).Kind(); k != KindDict {
		t.Fatalf("EncodeStrings picked %v, want dict", k)
	}
}

func TestLZBlockRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(5000)
		src := make([]byte, n)
		for i := range src {
			// Skewed alphabet produces matches; occasionally random bytes.
			if rng.Intn(4) == 0 {
				src[i] = byte(rng.Intn(256))
			} else {
				src[i] = byte('a' + rng.Intn(4))
			}
		}
		comp := lzCompressBlock(nil, src)
		out, err := lzWalk(nil, comp, len(src), true)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("trial %d: round trip mismatch (n=%d)", trial, n)
		}
	}
	// Runs, whose matches overlap the bytes they produce.
	for _, src := range [][]byte{bytes.Repeat([]byte("a"), 4000), bytes.Repeat([]byte("ab"), 2000)} {
		out, err := lzWalk(nil, lzCompressBlock(nil, src), len(src), true)
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("overlapping matches over %q: round trip failed: %v", src[:2], err)
		}
	}
}

// Property: every int encoding round-trips and seeks correctly.
func TestQuickIntEncodings(t *testing.T) {
	f := func(vals []int64) bool {
		for _, enc := range []IntColumn{NewBitPack(vals), NewRLE(vals), NewPlainInt(vals), EncodeInts(vals)} {
			if len(vals) == 0 && enc.Kind() == KindRLE {
				continue // RLE of empty input has zero runs; fine but skip At checks
			}
			got := enc.DecodeAll(nil)
			if len(got) != len(vals) {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] || enc.At(i) != vals[i] {
					return false
				}
			}
			buf := enc.AppendBinary(nil)
			dec, err := decodeWhole(buf, DecodeIntColumn)
			if err != nil {
				return false
			}
			for i := range vals {
				if dec.At(i) != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every string encoding round-trips and seeks correctly.
func TestQuickStringEncodings(t *testing.T) {
	f := func(vals []string) bool {
		for _, enc := range []StringColumn{NewDict(vals), NewPlainString(vals), NewLZString(vals), EncodeStrings(vals)} {
			if enc.Len() != len(vals) {
				return false
			}
			for i := range vals {
				if enc.At(i) != vals[i] {
					return false
				}
			}
			buf := enc.AppendBinary(nil)
			dec, err := decodeWhole(buf, DecodeStringColumn)
			if err != nil {
				return false
			}
			for i := range vals {
				if dec.At(i) != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodeWhole(nil, DecodeIntColumn); err == nil {
		t.Fatal("DecodeIntColumn(nil) should fail")
	}
	if _, err := decodeWhole([]byte{byte(KindDict)}, DecodeIntColumn); err == nil {
		t.Fatal("int decoder must reject string kinds")
	}
	if _, err := decodeWhole([]byte{byte(KindBitPack)}, DecodeStringColumn); err == nil {
		t.Fatal("string decoder must reject int kinds")
	}
	// Truncated bitpack payload.
	buf := NewBitPack([]int64{1, 2, 3}).AppendBinary(nil)
	if _, err := decodeWhole(buf[:len(buf)-2], DecodeIntColumn); err == nil {
		t.Fatal("truncated bitpack should fail")
	}
}

// unservableColumn is a string column that a decoder without decode-time
// validation accepts, and whose accessors then panic or allocate without
// bound.
type unservableColumn struct {
	name string
	data []byte
}

func unservableColumns() []unservableColumn {
	offsets := func(offs ...int64) []byte { return NewBitPack(offs).AppendBinary(nil) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	lz := func(rawLen uint64, block []byte) []byte { // rawLen raw bytes in one block
		return AppendBytes(binary.AppendUvarint(binary.AppendUvarint(nil, rawLen), 1), block)
	}
	return []unservableColumn{
		// At(1) indexes entry 5 of 1.
		{"dict code past its entries", cat(header(KindDict, 1), AppendBytes(nil, []byte("a")), offsets(0, 5))},
		// At(0) slices data[0:100] of 2 bytes.
		{"plain offsets past the data", cat(header(KindPlainString), offsets(0, 100), AppendBytes(nil, []byte("ab")))},
		// At(0) slices data[2:0].
		{"plain offsets decreasing", cat(header(KindPlainString), offsets(2, 0), AppendBytes(nil, []byte("ab")))},
		// Len() is -1.
		{"plain offsets empty", cat(header(KindPlainString), offsets(), AppendBytes(nil, ""))},
		// At(0) slices 100 raw bytes of 2.
		{"lz offsets past the raw length", cat(header(KindLZString), offsets(0, 100), newLZBlocks([]byte("ab")).appendBinary(nil))},
		// Decompressing copies from before the block's first byte.
		{"lz match at offset 0", cat(header(KindLZString), offsets(0, 4), lz(4, []byte{1, 'a', 3, 0}))},
		// Seven block bytes decompress to 64 MiB.
		{"lz block past its length", cat(header(KindLZString), offsets(0, 2), lz(2, cat([]byte{1, 'a'}, binary.AppendUvarint(nil, 1<<26), []byte{1})))},
	}
}

// TestDecodeRejectsUnservableColumns: each column above is rejected when
// it is decoded, with an error wrapping ErrCorrupt, instead of panicking
// or allocating on first use.
func TestDecodeRejectsUnservableColumns(t *testing.T) {
	for _, c := range unservableColumns() {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeWhole(c.data, DecodeStringColumn); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decoded with err %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestRLEFindRunBoundaries pins FindRun at the offsets span execution
// depends on: both ends of a single-run column, first/last row of interior
// runs, and run transitions.
func TestRLEFindRunBoundaries(t *testing.T) {
	// Single-run segment: every offset maps to run 0.
	one := NewRLE([]int64{7, 7, 7, 7})
	for _, i := range []int{0, 1, 3} {
		if j := one.FindRun(i); j != 0 {
			t.Fatalf("single-run FindRun(%d) = %d, want 0", i, j)
		}
		if v := one.At(i); v != 7 {
			t.Fatalf("single-run At(%d) = %d, want 7", i, v)
		}
	}
	if v, s, e := one.Run(0); v != 7 || s != 0 || e != 4 {
		t.Fatalf("single-run Run(0) = (%d, %d, %d), want (7, 0, 4)", v, s, e)
	}

	r := NewRLE([]int64{4, 4, 4, 9, 9, 2})
	want := []int{0, 0, 0, 1, 1, 2}
	for i, wj := range want {
		if j := r.FindRun(i); j != wj {
			t.Fatalf("FindRun(%d) = %d, want %d", i, j, wj)
		}
	}
	// At must agree with FindRun across every offset, including the
	// first and last row of the trailing run.
	wantVals := []int64{4, 4, 4, 9, 9, 2}
	for i, wv := range wantVals {
		if v := r.At(i); v != wv {
			t.Fatalf("At(%d) = %d, want %d", i, v, wv)
		}
	}
}
