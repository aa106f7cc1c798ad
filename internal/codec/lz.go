package codec

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// The LZ codec below is a from-scratch LZ77 byte compressor in the spirit
// of LZ4 (the compressor the paper's columnstore uses): greedy matching via
// a hash table of 4-byte prefixes, emitting (literal run, match) sequences.
// It favors decompression speed over ratio.

const (
	lzBlockSize = 16 << 10 // raw bytes per independently-compressed block
	lzMinMatch  = 4
	lzHashBits  = 13
)

func lzHash(u uint32) uint32 { return (u * 2654435761) >> (32 - lzHashBits) }

// lzCompressBlock compresses src into dst. The format is a sequence of
// tokens: a literal length (uvarint), that many literal bytes, then a match
// length (uvarint, 0 meaning "no match, end or next literals") and a match
// offset (uvarint) when length > 0.
func lzCompressBlock(dst, src []byte) []byte {
	var table [1 << lzHashBits]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	i := 0
	emit := func(litEnd, matchLen, offset int) {
		dst = appendUvarint(dst, uint64(litEnd-litStart))
		dst = append(dst, src[litStart:litEnd]...)
		dst = appendUvarint(dst, uint64(matchLen))
		if matchLen > 0 {
			dst = appendUvarint(dst, uint64(offset))
		}
	}
	for i+lzMinMatch <= len(src) {
		h := lzHash(binary.LittleEndian.Uint32(src[i:]))
		cand := table[h]
		table[h] = int32(i)
		if cand >= 0 && binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[i:]) {
			// Extend the match.
			m := lzMinMatch
			for i+m < len(src) && src[int(cand)+m] == src[i+m] {
				m++
			}
			emit(i, m, i-int(cand))
			i += m
			litStart = i
			continue
		}
		i++
	}
	emit(len(src), 0, 0)
	return dst
}

// lzDecompressBlock decompresses a block produced by lzCompressBlock.
func lzDecompressBlock(dst, src []byte) ([]byte, error) {
	p := 0
	for p < len(src) {
		litLen, n, err := readUvarint(src[p:])
		if err != nil {
			return nil, err
		}
		p += n
		if p+int(litLen) > len(src) {
			return nil, fmt.Errorf("codec: truncated lz literals")
		}
		dst = append(dst, src[p:p+int(litLen)]...)
		p += int(litLen)
		matchLen, n, err := readUvarint(src[p:])
		if err != nil {
			return nil, err
		}
		p += n
		if matchLen == 0 {
			continue
		}
		offset, n, err := readUvarint(src[p:])
		if err != nil {
			return nil, err
		}
		p += n
		start := len(dst) - int(offset)
		if start < 0 {
			return nil, fmt.Errorf("codec: lz match offset out of range")
		}
		// Overlapping copies are legal (offset < matchLen) and must copy
		// byte-by-byte front to back.
		for k := 0; k < int(matchLen); k++ {
			dst = append(dst, dst[start+k])
		}
	}
	return dst, nil
}

// lzBlocks is a block-compressed byte payload supporting random slicing:
// slice(lo, hi) decompresses only the blocks overlapping [lo, hi).
type lzBlocks struct {
	rawLen int
	comp   [][]byte // compressed blocks, each covering lzBlockSize raw bytes

	mu        sync.Mutex
	cacheIdx  int
	cacheData []byte
}

func newLZBlocks(data []byte) *lzBlocks {
	b := &lzBlocks{rawLen: len(data), cacheIdx: -1}
	for off := 0; off < len(data); off += lzBlockSize {
		end := off + lzBlockSize
		if end > len(data) {
			end = len(data)
		}
		b.comp = append(b.comp, lzCompressBlock(nil, data[off:end]))
	}
	return b
}

func (b *lzBlocks) block(idx int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cacheIdx == idx {
		return b.cacheData
	}
	data, err := lzDecompressBlock(make([]byte, 0, lzBlockSize), b.comp[idx])
	if err != nil {
		// Blocks are produced by our own compressor; corruption here means
		// an in-memory bug, which must not be silently ignored.
		panic(fmt.Sprintf("codec: corrupt lz block %d: %v", idx, err))
	}
	b.cacheIdx, b.cacheData = idx, data
	return data
}

func (b *lzBlocks) slice(lo, hi int) []byte {
	if lo == hi {
		return nil
	}
	first, last := lo/lzBlockSize, (hi-1)/lzBlockSize
	if first == last {
		blk := b.block(first)
		return blk[lo-first*lzBlockSize : hi-first*lzBlockSize]
	}
	out := make([]byte, 0, hi-lo)
	for i := first; i <= last; i++ {
		blk := b.block(i)
		s, e := 0, len(blk)
		if i == first {
			s = lo - i*lzBlockSize
		}
		if i == last {
			e = hi - i*lzBlockSize
		}
		out = append(out, blk[s:e]...)
	}
	return out
}

func (b *lzBlocks) all() []byte {
	out := make([]byte, 0, b.rawLen)
	for i := range b.comp {
		out, _ = lzDecompressBlock(out, b.comp[i])
	}
	return out
}

func (b *lzBlocks) appendBinary(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(b.rawLen))
	buf = appendUvarint(buf, uint64(len(b.comp)))
	for _, c := range b.comp {
		buf = appendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	return buf
}

func decodeLZBlocks(buf []byte) (*lzBlocks, int, error) {
	p := 0
	rawLen, n, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += n
	nb, n, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += n
	// Every block takes at least its length byte, and holds lzBlockSize raw
	// bytes at most.
	if nb > uint64(len(buf)-p) || rawLen > nb*lzBlockSize {
		return nil, 0, fmt.Errorf("codec: lz header claims %d raw bytes in %d blocks, %d bytes left", rawLen, nb, len(buf)-p)
	}
	b := &lzBlocks{rawLen: int(rawLen), cacheIdx: -1, comp: make([][]byte, nb)}
	for i := range b.comp {
		l, n, err := readUvarint(buf[p:])
		if err != nil {
			return nil, 0, err
		}
		p += n
		if l > uint64(len(buf)-p) {
			return nil, 0, fmt.Errorf("codec: truncated lz block")
		}
		c := make([]byte, l)
		copy(c, buf[p:p+int(l)])
		b.comp[i] = c
		p += int(l)
	}
	return b, p, nil
}
