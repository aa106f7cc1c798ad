package colstore

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"s2db/internal/bitmap"
	"s2db/internal/codec"
	"s2db/internal/types"
)

// encodedSegment is the encoding of an n-row segment of testSchema, after
// edit has changed the built segment.
func encodedSegment(n int, edit func(*Segment)) []byte {
	b := NewBuilder(testSchema())
	for i := 0; i < n; i++ {
		r := mkRow(i)
		if i%3 == 1 {
			r[1] = types.Null(types.Float64)
		}
		b.Add(r)
	}
	seg := b.Build(7)
	edit(seg)
	return seg.Encode()
}

// hostileSegments are segment files whose columns cannot serve the rows
// the header claims.
func hostileSegments() map[string][]byte {
	return map[string][]byte{
		"NumRows past the columns": encodedSegment(2, func(s *Segment) { s.NumRows = 50 }),
		// 2^63 rows, which turn negative as an int.
		"NumRows 2^63": encodedSegment(2, func(s *Segment) { s.NumRows = math.MinInt64 }),
		// Get(99) indexes the second word of a one-word bitmap.
		"null bitmap shorter than the segment": encodedSegment(100, func(s *Segment) { s.Cols[1].Nulls = bitmap.New(1) }),
		"trailing bytes":                       append(encodedSegment(2, func(*Segment) {}), 0),
	}
}

// TestDecodeRejectsHostileSegments: each segment above is rejected with an
// error wrapping codec.ErrCorrupt, and a segment of an unknown version
// with one wrapping codec.ErrVersion.
func TestDecodeRejectsHostileSegments(t *testing.T) {
	for name, data := range hostileSegments() {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(data, testSchema()); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("decoded with err %v, want ErrCorrupt", err)
			}
		})
	}
	data := encodedSegment(2, func(*Segment) {})
	data[1] = segmentVersion + 1
	if _, err := Decode(data, testSchema()); !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("unknown version: err %v, want ErrVersion", err)
	}
}

// sweepRows bounds the rows the fuzz contract reads: a segment of up to
// sweepRows rows is read in full, a longer one (constant columns of 2^31
// rows fit in a few bytes) at its first and last sweepRows/2 rows.
const sweepRows = 1 << 12

// FuzzDecode holds Decode to the decoder contract: hostile bytes are
// rejected with codec.ErrCorrupt or codec.ErrVersion, without panicking
// or allocating beyond 128 bytes per input byte plus 1 MiB; an accepted
// segment answers ValueAt for every cell, and re-encodes to bytes that
// decode and re-encode to themselves.
func FuzzDecode(f *testing.F) {
	for _, n := range []int{0, 1, 2, 40} {
		f.Add(encodedSegment(n, func(*Segment) {}))
	}
	for _, data := range hostileSegments() {
		f.Add(data)
	}
	schema := testSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seg, err := Decode(data, schema)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrVersion) {
				t.Fatalf("rejection %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		for i := 0; i < seg.NumRows; i++ {
			if i == sweepRows/2 && seg.NumRows > sweepRows {
				i = seg.NumRows - sweepRows/2
			}
			seg.RowAt(i)
		}
		enc := seg.Encode()
		again, err := Decode(enc, schema)
		if err != nil {
			t.Fatalf("re-decode of an accepted segment: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("unstable round trip")
		}
	})
}
