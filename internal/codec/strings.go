package codec

import (
	"bytes"
	"encoding/binary"
	"sort"
)

// Dict is a dictionary-encoded string column: a sorted dictionary of the
// distinct values plus a bit-packed code per row. Encoded execution (§5.2)
// evaluates a filter once per dictionary entry and then consults only the
// codes, never materializing row strings.
type Dict struct {
	dict  []string
	codes *BitPack
}

// NewDict dictionary-encodes vals.
func NewDict(vals []string) *Dict {
	set := make(map[string]int, 64)
	for _, v := range vals {
		set[v] = 0
	}
	dict := make([]string, 0, len(set))
	for v := range set {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	for i, v := range dict {
		set[v] = i
	}
	codes := make([]int64, len(vals))
	for i, v := range vals {
		codes[i] = int64(set[v])
	}
	return &Dict{dict: dict, codes: NewBitPack(codes)}
}

// Len returns the number of rows.
func (d *Dict) Len() int { return d.codes.Len() }

// DictSize returns the number of distinct values.
func (d *Dict) DictSize() int { return len(d.dict) }

// DictValue returns dictionary entry c.
func (d *Dict) DictValue(c int) string { return d.dict[c] }

// Code returns the dictionary code of row i.
func (d *Dict) Code(i int) int { return int(d.codes.At(i)) }

// CodeOf returns the code for value v, or -1 when v is not in the
// dictionary (so no row matches it).
func (d *Dict) CodeOf(v string) int {
	i := sort.SearchStrings(d.dict, v)
	if i < len(d.dict) && d.dict[i] == v {
		return i
	}
	return -1
}

// At returns the value at row offset i.
func (d *Dict) At(i int) string { return d.dict[d.codes.At(i)] }

// DecodeAll appends all values to dst.
func (d *Dict) DecodeAll(dst []string) []string {
	for i := 0; i < d.Len(); i++ {
		dst = append(dst, d.At(i))
	}
	return dst
}

// Kind reports KindDict.
func (d *Dict) Kind() Kind { return KindDict }

// AppendBinary serializes the column.
func (d *Dict) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(KindDict))
	buf = binary.AppendUvarint(buf, uint64(len(d.dict)))
	for _, s := range d.dict {
		buf = AppendBytes(buf, s)
	}
	return d.codes.AppendBinary(buf)
}

// readDict reads a dictionary column after its kind byte. Entries must
// rise strictly, as NewDict sorts them and CodeOf binary-searches them,
// and every code must index an entry.
func readDict(r *Reader) *Dict {
	// Every entry takes at least its length byte.
	dict := make([]string, r.Count(1))
	for i := range dict {
		dict[i] = string(r.Field())
		if i > 0 && r.Err() == nil && dict[i] <= dict[i-1] {
			r.Fail("dict entries not strictly increasing")
		}
	}
	codes := readNestedBitPack(r)
	if r.Err() == nil && !codesBelow(codes, len(dict)) {
		r.Fail("dict code past its %d entries", len(dict))
	}
	return &Dict{dict: dict, codes: codes}
}

// codesBelow reports whether every code is in [0, n). The bit-pack header
// proves it when its frame of reference and width cannot reach n, and
// decides it at width 0, where every code is the minimum; only otherwise,
// with at least one code word per 64 codes, are the codes scanned.
func codesBelow(codes *BitPack, n int) bool {
	if codes.n == 0 || codes.min >= 0 && codes.width < 63 && uint64(codes.min)+(1<<codes.width)-1 < uint64(n) {
		return true
	}
	if codes.width == 0 {
		return false
	}
	for i := 0; i < codes.n; i++ {
		if c := codes.At(i); c < 0 || c >= int64(n) {
			return false
		}
	}
	return true
}

// offsetsValid reports whether offs is an offset array over size bytes:
// at least one entry, starting at 0, never decreasing and ending at size,
// so that row i is the slice offs[i]..offs[i+1] for every i < Len().
func offsetsValid(offs *BitPack, size uint64) bool {
	if offs.n == 0 || offs.At(0) != 0 {
		return false
	}
	if offs.width == 0 { // every offset is 0, and no word bounds n: do not scan
		return size == 0
	}
	prev := int64(0)
	for i := 1; i < offs.n; i++ {
		o := offs.At(i)
		if o < prev {
			return false
		}
		prev = o
	}
	return uint64(prev) == size
}

// PlainString stores the concatenated bytes plus a bit-packed offset array.
type PlainString struct {
	offsets *BitPack // len n+1; offsets[i]..offsets[i+1] is row i
	data    []byte
}

// NewPlainString encodes vals without compression.
func NewPlainString(vals []string) *PlainString {
	offs := make([]int64, len(vals)+1)
	total := 0
	for i, v := range vals {
		offs[i] = int64(total)
		total += len(v)
	}
	offs[len(vals)] = int64(total)
	data := make([]byte, 0, total)
	for _, v := range vals {
		data = append(data, v...)
	}
	return &PlainString{offsets: NewBitPack(offs), data: data}
}

// Len returns the number of rows.
func (s *PlainString) Len() int { return s.offsets.Len() - 1 }

// At returns the value at row offset i.
func (s *PlainString) At(i int) string {
	return string(s.data[s.offsets.At(i):s.offsets.At(i+1)])
}

// DecodeAll appends all values to dst.
func (s *PlainString) DecodeAll(dst []string) []string {
	for i := 0; i < s.Len(); i++ {
		dst = append(dst, s.At(i))
	}
	return dst
}

// Kind reports KindPlainString.
func (s *PlainString) Kind() Kind { return KindPlainString }

// AppendBinary serializes the column.
func (s *PlainString) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(KindPlainString))
	buf = s.offsets.AppendBinary(buf)
	return AppendBytes(buf, s.data)
}

func readPlainString(r *Reader) *PlainString {
	offsets := readNestedBitPack(r)
	data := bytes.Clone(r.Field())
	if r.Err() == nil && !offsetsValid(offsets, uint64(len(data))) {
		r.Fail("offsets do not cover %d data bytes", len(data))
	}
	return &PlainString{offsets: offsets, data: data}
}

// LZString stores the concatenated string bytes LZ-compressed in fixed-size
// blocks, plus offsets. Seeking decompresses only the blocks covering the
// requested row (cached for sequential access), which preserves
// seekability — the property cloud warehouses' whole-object compression
// lacks (§7, Procella comparison).
type LZString struct {
	offsets *BitPack
	blocks  *lzBlocks
}

// NewLZString encodes vals with block LZ compression.
func NewLZString(vals []string) *LZString {
	offs := make([]int64, len(vals)+1)
	total := 0
	for i, v := range vals {
		offs[i] = int64(total)
		total += len(v)
	}
	offs[len(vals)] = int64(total)
	data := make([]byte, 0, total)
	for _, v := range vals {
		data = append(data, v...)
	}
	return &LZString{offsets: NewBitPack(offs), blocks: newLZBlocks(data)}
}

// Len returns the number of rows.
func (s *LZString) Len() int { return s.offsets.Len() - 1 }

// At returns the value at row offset i, decompressing only the blocks that
// cover it.
func (s *LZString) At(i int) string {
	lo, hi := int(s.offsets.At(i)), int(s.offsets.At(i+1))
	return string(s.blocks.slice(lo, hi))
}

// DecodeAll appends all values to dst.
func (s *LZString) DecodeAll(dst []string) []string {
	data := s.blocks.all()
	for i := 0; i < s.Len(); i++ {
		dst = append(dst, string(data[s.offsets.At(i):s.offsets.At(i+1)]))
	}
	return dst
}

// Kind reports KindLZString.
func (s *LZString) Kind() Kind { return KindLZString }

// AppendBinary serializes the column.
func (s *LZString) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(KindLZString))
	buf = s.offsets.AppendBinary(buf)
	return s.blocks.appendBinary(buf)
}

func readLZString(r *Reader) *LZString {
	offsets := readNestedBitPack(r)
	blocks := readLZBlocks(r)
	if r.Err() == nil && !offsetsValid(offsets, uint64(blocks.rawLen)) {
		r.Fail("offsets do not cover %d raw bytes", blocks.rawLen)
	}
	return &LZString{offsets: offsets, blocks: blocks}
}

// CompressedSize reports the compressed byte size of the payload, used by
// compression-ratio stats.
func (s *LZString) CompressedSize() int {
	total := 0
	for _, b := range s.blocks.comp {
		total += len(b)
	}
	return total
}
