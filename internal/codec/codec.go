// Package codec implements the seekable column encodings used by the
// columnstore segments (§2.1.2 of the paper): bit packing, run-length
// encoding, dictionary encoding and LZ block compression. Every encoding
// supports random access at a row offset (At) without decoding the whole
// column, which is what makes point reads on columnstore data cheap enough
// for OLTP (§2.1.2, "the column encodings are each implemented to be
// seekable").
package codec

import "fmt"

// Kind identifies an encoding on the wire and in segment metadata.
type Kind uint8

const (
	// KindPlainInt stores int64 values verbatim.
	KindPlainInt Kind = iota
	// KindBitPack stores frame-of-reference bit-packed integers.
	KindBitPack
	// KindRLE stores run-length encoded integers.
	KindRLE
	// KindDict stores dictionary-encoded strings with bit-packed codes.
	KindDict
	// KindPlainString stores raw strings with an offset array.
	KindPlainString
	// KindLZString stores strings as LZ-compressed blocks with an offset array.
	KindLZString
)

// String names the encoding for stats and debugging output.
func (k Kind) String() string {
	switch k {
	case KindPlainInt:
		return "plain-int"
	case KindBitPack:
		return "bitpack"
	case KindRLE:
		return "rle"
	case KindDict:
		return "dict"
	case KindPlainString:
		return "plain-string"
	case KindLZString:
		return "lz-string"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IntColumn is a seekable encoded column of int64 values.
type IntColumn interface {
	Len() int
	// At returns the value at row offset i without decoding other rows.
	At(i int) int64
	// DecodeAll appends all values to dst and returns it.
	DecodeAll(dst []int64) []int64
	// Kind reports the encoding used.
	Kind() Kind
	// AppendBinary serializes the column (including its kind tag).
	AppendBinary(buf []byte) []byte
}

// StringColumn is a seekable encoded column of string values.
type StringColumn interface {
	Len() int
	At(i int) string
	DecodeAll(dst []string) []string
	Kind() Kind
	AppendBinary(buf []byte) []byte
}

// EncodeInts picks the cheapest integer encoding for the given values:
// RLE when runs are long, bit packing otherwise. Each segment makes this
// choice independently ("the same column can use a different encoding in
// each segment", §2.1.2).
func EncodeInts(vals []int64) IntColumn {
	if len(vals) == 0 {
		return NewBitPack(vals)
	}
	runs := 1
	minV, maxV := vals[0], vals[0]
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
		if vals[i] < minV {
			minV = vals[i]
		}
		if vals[i] > maxV {
			maxV = vals[i]
		}
	}
	width := bitsFor(uint64(maxV) - uint64(minV))
	bitpackBits := len(vals) * width
	// An RLE run costs roughly 12 bytes (value + count + seek entry).
	rleBits := runs * 12 * 8
	if rleBits < bitpackBits {
		return NewRLE(vals)
	}
	return NewBitPack(vals)
}

// EncodeStrings picks a string encoding: dictionary when the column has few
// distinct values (which also enables encoded execution, §5.2), raw or LZ
// compressed otherwise.
func EncodeStrings(vals []string) StringColumn {
	distinct := make(map[string]struct{}, 64)
	total := 0
	for _, v := range vals {
		total += len(v)
		if len(distinct) <= len(vals)/2 {
			distinct[v] = struct{}{}
		}
	}
	if len(vals) > 0 && len(distinct) <= len(vals)/2 {
		return NewDict(vals)
	}
	// LZ pays off on larger payloads; tiny columns stay plain.
	if total >= 4096 {
		return NewLZString(vals)
	}
	return NewPlainString(vals)
}

// DecodeIntColumn reads an integer column written by AppendBinary,
// validated so that At and DecodeAll serve every row it reports. It
// returns nil once r has failed. (The unexported readers it calls return
// values that mean something only while r.Err() is nil.)
func DecodeIntColumn(r *Reader) IntColumn {
	var c IntColumn
	switch k := Kind(r.Byte()); k {
	case KindPlainInt:
		c = readPlainInt(r)
	case KindBitPack:
		c = readBitPack(r)
	case KindRLE:
		c = readRLE(r)
	default:
		r.Fail("kind %v is not an int column", k)
	}
	if r.Err() != nil {
		return nil
	}
	return c
}

// DecodeStringColumn reads a string column written by AppendBinary,
// validated like DecodeIntColumn's.
func DecodeStringColumn(r *Reader) StringColumn {
	var c StringColumn
	switch k := Kind(r.Byte()); k {
	case KindDict:
		c = readDict(r)
	case KindPlainString:
		c = readPlainString(r)
	case KindLZString:
		c = readLZString(r)
	default:
		r.Fail("kind %v is not a string column", k)
	}
	if r.Err() != nil {
		return nil
	}
	return c
}

// bitsFor returns the number of bits needed to represent v (at least 1 when
// v > 0, 0 for v == 0).
func bitsFor(v uint64) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}
