// Package bitmap provides the dense bit vector used for deleted-row
// tracking in segment metadata (§4: "S2DB represents deletes using a bit
// vector stored as part of the segment metadata") and for null tracking in
// column vectors.
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"s2db/internal/codec"
)

// Bitmap is a fixed-length dense bit vector. The zero value is an empty
// bitmap; use New to size one.
type Bitmap struct {
	n     int
	words []uint64
}

// New returns a bitmap of n bits, all zero.
func New(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i/64] |= 1 << uint(i%64) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i/64] &^= 1 << uint(i%64) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i/64]&(1<<uint(i%64)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy. Cloning is how the unified table installs a new
// deleted-bits version without disturbing concurrent readers (§4.2).
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{n: b.n, words: w}
}

// Or merges other into b (b |= other). Panics when lengths differ.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: Or length mismatch %d != %d", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And intersects other into b (b &= other). Panics when lengths differ.
func (b *Bitmap) And(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitmap: And length mismatch %d != %d", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// NextSet returns the first set bit at or after i, or Len() when there is
// none. It tests a word at a time.
func (b *Bitmap) NextSet(i int) int { return b.next(i, 0) }

// NextClear returns the first clear bit at or after i, or Len() when there
// is none.
func (b *Bitmap) NextClear(i int) int { return b.next(i, ^uint64(0)) }

// next returns the first bit at or after i whose value differs from flip's
// bits: each word is XORed with flip, so a clear bit reads as set when
// flip is all ones. Bits past Len read as set under that flip; the result
// is capped at Len.
func (b *Bitmap) next(i int, flip uint64) int {
	if i >= b.n {
		return b.n
	}
	wi := i / 64
	w := (b.words[wi] ^ flip) &^ (1<<uint(i%64) - 1)
	for w == 0 {
		if wi++; wi == len(b.words) {
			return b.n
		}
		w = b.words[wi] ^ flip
	}
	return min(wi*64+bits.TrailingZeros64(w), b.n)
}

// Range calls f for each set bit in ascending order; returning false stops.
func (b *Bitmap) Range(f func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !f(wi*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendBinary serializes the bitmap.
func (b *Bitmap) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(b.n))
	for _, w := range b.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Decode reads a bitmap written by AppendBinary. Bits past the length must
// be clear, so Count and Range never report a bit at or past Len. It
// returns nil once r has failed.
func Decode(r *codec.Reader) *Bitmap {
	n := r.Uvarint()
	words := r.U64s(n/64 + min(n%64, 1))
	if r.Err() == nil && n%64 != 0 && words[len(words)-1]>>(n%64) != 0 {
		r.Fail("bitmap bits set past its length %d", n)
	}
	if r.Err() != nil {
		return nil
	}
	return &Bitmap{n: int(n), words: words}
}
