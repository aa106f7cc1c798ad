package codec

import (
	"encoding/binary"
	"fmt"
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
	buf = appendUvarint(buf, uint64(len(d.dict)))
	for _, s := range d.dict {
		buf = appendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return d.codes.AppendBinary(buf)
}

func decodeDict(buf []byte) (*Dict, int, error) {
	p := 1
	nd, k, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	// Every entry takes at least its length byte.
	if nd > uint64(len(buf)-p) {
		return nil, 0, fmt.Errorf("codec: dict header claims %d entries, %d bytes left", nd, len(buf)-p)
	}
	dict := make([]string, nd)
	for i := range dict {
		l, k, err := readUvarint(buf[p:])
		if err != nil {
			return nil, 0, err
		}
		p += k
		if l > uint64(len(buf)-p) {
			return nil, 0, fmt.Errorf("codec: truncated dict entry")
		}
		dict[i] = string(buf[p : p+int(l)])
		p += int(l)
	}
	codes, n, err := decodeBitPack(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += n
	return &Dict{dict: dict, codes: codes}, p, nil
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
	buf = appendUvarint(buf, uint64(len(s.data)))
	return append(buf, s.data...)
}

func decodePlainString(buf []byte) (*PlainString, int, error) {
	p := 1
	offsets, n, err := decodeBitPack(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += n
	l, k, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	if l > uint64(len(buf)-p) {
		return nil, 0, fmt.Errorf("codec: truncated plain-string payload")
	}
	data := make([]byte, l)
	copy(data, buf[p:p+int(l)])
	p += int(l)
	return &PlainString{offsets: offsets, data: data}, p, nil
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

func decodeLZString(buf []byte) (*LZString, int, error) {
	p := 1
	offsets, n, err := decodeBitPack(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += n
	blocks, n, err := decodeLZBlocks(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += n
	return &LZString{offsets: offsets, blocks: blocks}, p, nil
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

var _ = binary.LittleEndian // keep import stable across edits
