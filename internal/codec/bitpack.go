package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BitPack is a frame-of-reference bit-packed integer column: values are
// stored as (v - min) in a fixed number of bits per value. Seeking to row i
// is two word loads and a shift.
type BitPack struct {
	n     int
	min   int64
	width int // bits per value, 0..64
	words []uint64
}

// NewBitPack encodes vals with frame-of-reference bit packing.
func NewBitPack(vals []int64) *BitPack {
	b := &BitPack{n: len(vals)}
	if len(vals) == 0 {
		return b
	}
	minV, maxV := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	b.min = minV
	b.width = bitsFor(uint64(maxV) - uint64(minV))
	if b.width == 0 {
		return b
	}
	b.words = make([]uint64, (len(vals)*b.width+63)/64)
	for i, v := range vals {
		b.put(i, uint64(v-minV))
	}
	return b
}

func (b *BitPack) put(i int, v uint64) {
	bit := i * b.width
	word, off := bit/64, uint(bit%64)
	b.words[word] |= v << off
	if off+uint(b.width) > 64 {
		b.words[word+1] |= v >> (64 - off)
	}
}

// Len returns the number of rows.
func (b *BitPack) Len() int { return b.n }

// Width returns the number of bits per packed value.
func (b *BitPack) Width() int { return b.width }

// At returns the value at row offset i.
func (b *BitPack) At(i int) int64 {
	if b.width == 0 {
		return b.min
	}
	bit := i * b.width
	word, off := bit/64, uint(bit%64)
	v := b.words[word] >> off
	if off+uint(b.width) > 64 {
		v |= b.words[word+1] << (64 - off)
	}
	if b.width < 64 {
		v &= (1 << uint(b.width)) - 1
	}
	return b.min + int64(v)
}

// DecodeAll appends all values to dst.
func (b *BitPack) DecodeAll(dst []int64) []int64 {
	for i := 0; i < b.n; i++ {
		dst = append(dst, b.At(i))
	}
	return dst
}

// Kind reports KindBitPack.
func (b *BitPack) Kind() Kind { return KindBitPack }

// AppendBinary serializes the column.
func (b *BitPack) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(KindBitPack))
	buf = appendUvarint(buf, uint64(b.n))
	buf = appendVarint(buf, b.min)
	buf = append(buf, byte(b.width))
	buf = appendUvarint(buf, uint64(len(b.words)))
	for _, w := range b.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func decodeBitPack(buf []byte) (*BitPack, int, error) {
	// Dict and the plain/LZ string encodings nest a bit-packed column, so
	// this is also reached with no kind byte of its own verified.
	if len(buf) == 0 || Kind(buf[0]) != KindBitPack {
		return nil, 0, fmt.Errorf("codec: missing bitpack column")
	}
	p := 1
	n, k, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	minV, k, err := readVarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	if p >= len(buf) {
		return nil, 0, fmt.Errorf("codec: truncated bitpack header")
	}
	width := int(buf[p])
	p++
	nw, k, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	if n > math.MaxUint32 || width > 64 || nw != (n*uint64(width)+63)/64 {
		return nil, 0, fmt.Errorf("codec: inconsistent bitpack header")
	}
	if nw > uint64(len(buf)-p)/8 {
		return nil, 0, fmt.Errorf("codec: truncated bitpack payload")
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[p:])
		p += 8
	}
	return &BitPack{n: int(n), min: minV, width: width, words: words}, p, nil
}

// PlainInt stores values verbatim; it is the fallback when packing buys
// nothing and the reference decoder for tests.
type PlainInt struct {
	vals []int64
}

// NewPlainInt wraps vals (not copied) as a plain column.
func NewPlainInt(vals []int64) *PlainInt { return &PlainInt{vals: vals} }

// Len returns the number of rows.
func (p *PlainInt) Len() int { return len(p.vals) }

// At returns the value at row offset i.
func (p *PlainInt) At(i int) int64 { return p.vals[i] }

// DecodeAll appends all values to dst.
func (p *PlainInt) DecodeAll(dst []int64) []int64 { return append(dst, p.vals...) }

// Kind reports KindPlainInt.
func (p *PlainInt) Kind() Kind { return KindPlainInt }

// AppendBinary serializes the column.
func (p *PlainInt) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(KindPlainInt))
	buf = appendUvarint(buf, uint64(len(p.vals)))
	for _, v := range p.vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func decodePlainInt(buf []byte) (*PlainInt, int, error) {
	p := 1
	n, k, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	if n > uint64(len(buf)-p)/8 {
		return nil, 0, fmt.Errorf("codec: truncated plain-int payload")
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
	}
	return &PlainInt{vals: vals}, p, nil
}
