package codec

import (
	"bytes"
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
		dst = AppendBytes(dst, src[litStart:litEnd])
		dst = binary.AppendUvarint(dst, uint64(matchLen))
		if matchLen > 0 {
			dst = binary.AppendUvarint(dst, uint64(offset))
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

// lzWalk walks a block produced by lzCompressBlock and fails unless every
// literal run fits in the block, every match offset is in 1..produced (a
// match copies only bytes this block already produced) and the block
// produces exactly want bytes. With decompress set it appends the output
// to dst, never more than want bytes; otherwise it copies nothing.
func lzWalk(dst, src []byte, want int, decompress bool) ([]byte, error) {
	r := NewReader(src)
	produced := 0
	for r.Len() > 0 && r.Err() == nil {
		lit := r.Field()
		matchLen, offset := r.Uvarint(), uint64(0)
		if matchLen > 0 {
			offset = r.Uvarint()
		}
		if r.Err() == nil && (len(lit) > want-produced || matchLen > uint64(want-produced-len(lit)) ||
			matchLen > 0 && (offset == 0 || offset > uint64(produced+len(lit)))) {
			r.Fail("token of %d literals and a %d-byte match at offset %d after %d of %d bytes", len(lit), matchLen, offset, produced, want)
		}
		if r.Err() != nil {
			break
		}
		if decompress {
			dst = append(dst, lit...)
			// A match may overlap the bytes it produces (offset <
			// matchLen): copy it in runs of at most offset bytes, each
			// run already written.
			for rem := int(matchLen); rem > 0; {
				start, n := len(dst)-int(offset), min(rem, int(offset))
				dst = append(dst, dst[start:start+n]...)
				rem -= n
			}
		}
		produced += len(lit) + int(matchLen)
	}
	if r.Err() == nil && produced != want {
		r.Fail("block produces %d of %d bytes", produced, want)
	}
	return dst, r.Err()
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

// blockLen is the raw length of block idx: lzBlockSize, or the remainder
// for the last block.
func (b *lzBlocks) blockLen(idx int) int { return min(lzBlockSize, b.rawLen-idx*lzBlockSize) }

// decompress appends block idx's raw bytes to dst.
func (b *lzBlocks) decompress(dst []byte, idx int) []byte {
	dst, err := lzWalk(dst, b.comp[idx], b.blockLen(idx), true)
	if err != nil {
		// readLZBlocks walked every block when the column was read, and
		// newLZBlocks' blocks come from the compressor: a block that fails
		// now was corrupted in memory, a bug that must not pass silently.
		panic(fmt.Sprintf("codec: corrupt lz block %d: %v", idx, err))
	}
	return dst
}

func (b *lzBlocks) block(idx int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cacheIdx == idx {
		return b.cacheData
	}
	data := b.decompress(make([]byte, 0, b.blockLen(idx)), idx)
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
		out = b.decompress(out, i)
	}
	return out
}

func (b *lzBlocks) appendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(b.rawLen))
	buf = binary.AppendUvarint(buf, uint64(len(b.comp)))
	for _, c := range b.comp {
		buf = AppendBytes(buf, c)
	}
	return buf
}

// readLZBlocks reads a block payload. The block count must be the one
// rawLen needs, and each block passes lzWalk's check, so that slice and
// all serve every byte below rawLen.
func readLZBlocks(r *Reader) *lzBlocks {
	rawLen := r.Uvarint()
	// Every block takes at least its length byte.
	nb := r.Count(1)
	if r.Err() == nil && (rawLen > uint64(nb)*lzBlockSize || nb > 0 && rawLen <= uint64(nb-1)*lzBlockSize) {
		r.Fail("lz header claims %d raw bytes in %d blocks", rawLen, nb)
	}
	b := &lzBlocks{rawLen: int(rawLen), cacheIdx: -1, comp: make([][]byte, nb)}
	for i := range b.comp {
		c := r.Field()
		if r.Err() != nil {
			break
		}
		if _, err := lzWalk(nil, c, b.blockLen(i), false); err != nil {
			r.Fail("lz block %d: %v", i, err)
		}
		b.comp[i] = bytes.Clone(c)
	}
	return b
}
