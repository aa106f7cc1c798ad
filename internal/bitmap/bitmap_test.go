package bitmap

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

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
		dec, used, err := Decode(buf)
		if err != nil || used != len(buf) || dec.Len() != b.Len() || dec.Count() != b.Count() {
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
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) should fail")
	}
	b := New(100)
	buf := b.AppendBinary(nil)
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated decode should fail")
	}
	// Lengths of 2^63 bits and above are negative as int.
	for _, n := range []uint64{1 << 63, math.MaxUint64} {
		if _, _, err := Decode(binary.AppendUvarint(nil, n)); err == nil {
			t.Fatalf("Decode of length %d should fail", n)
		}
	}
}
