package bitmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"s2db/internal/codec"
)

// decodeWhole decodes buf as exactly one bitmap.
func decodeWhole(buf []byte) (*Bitmap, error) {
	r := codec.NewReader(buf)
	b := Decode(r)
	return b, r.Done()
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 7 {
		t.Fatal("Clear(64) failed")
	}
}

func TestRangeOrder(t *testing.T) {
	b := New(200)
	want := []int{3, 64, 65, 190}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.Range(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	b := New(100)
	b.Set(1)
	b.Set(2)
	b.Set(3)
	count := 0
	b.Range(func(i int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d bits, want 2", count)
	}
}

func TestOrAnd(t *testing.T) {
	a, b := New(70), New(70)
	a.Set(1)
	a.Set(69)
	b.Set(1)
	b.Set(2)
	c := a.Clone()
	c.Or(b)
	if c.Count() != 3 || !c.Get(2) {
		t.Fatal("Or wrong")
	}
	d := a.Clone()
	d.And(b)
	if d.Count() != 1 || !d.Get(1) {
		t.Fatal("And wrong")
	}
	// a unchanged by clone operations.
	if a.Count() != 2 {
		t.Fatal("Clone is not a deep copy")
	}
}

func TestOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths should panic")
		}
	}()
	New(10).Or(New(11))
}

func TestSerializationRoundTrip(t *testing.T) {
	f := func(idxs []uint16, n uint16) bool {
		size := int(n) + 1
		b := New(size)
		for _, i := range idxs {
			b.Set(int(i) % size)
		}
		buf := b.AppendBinary(nil)
		dec, err := decodeWhole(buf)
		if err != nil || dec.Len() != b.Len() || dec.Count() != b.Count() {
			return false
		}
		for i := 0; i < size; i++ {
			if dec.Get(i) != b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodeWhole(nil); err == nil {
		t.Fatal("Decode(nil) should fail")
	}
	b := New(100)
	buf := b.AppendBinary(nil)
	if _, err := decodeWhole(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated decode should fail")
	}
	// Lengths of 2^63 bits and above are negative as int.
	for _, n := range []uint64{1 << 63, math.MaxUint64} {
		if _, err := decodeWhole(binary.AppendUvarint(nil, n)); err == nil {
			t.Fatalf("Decode of length %d should fail", n)
		}
	}
	// A bit set past the length would reach Count and Range.
	if _, err := decodeWhole(binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 3), 1<<5)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("bit past the length: err %v, want ErrCorrupt", err)
	}
}

// FuzzDecode holds bitmap.Decode to the decoder contract: hostile bytes are
// rejected with ErrCorrupt, without panicking or allocating beyond 128
// bytes per input byte plus 1 MiB; an accepted bitmap answers Get for
// every bit below Len, Count matches the bits Range visits, and it
// re-encodes stably.
func FuzzDecode(f *testing.F) {
	b := New(130)
	b.Set(0)
	b.Set(129)
	f.Add(b.AppendBinary(nil))
	f.Add(New(0).AppendBinary(nil))
	f.Add(binary.AppendUvarint(nil, 1<<63))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := decodeWhole(data)
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
		set := 0
		for i := 0; i < b.Len(); i++ {
			if b.Get(i) {
				set++
			}
		}
		ranged := 0
		b.Range(func(i int) bool {
			if i >= b.Len() {
				t.Fatalf("Range visits bit %d of %d", i, b.Len())
			}
			ranged++
			return true
		})
		if set != b.Count() || ranged != set {
			t.Fatalf("Get finds %d bits, Count %d, Range %d", set, b.Count(), ranged)
		}
		enc := b.AppendBinary(nil)
		again, err := decodeWhole(enc)
		if err != nil || !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatalf("unstable round trip: %v", err)
		}
	})
}
