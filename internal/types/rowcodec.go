package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeRow appends a compact binary encoding of the row to buf, for log
// records and snapshots. The schema is implied by context.
func EncodeRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		if v.IsNull {
			buf = append(buf, 0)
			buf = append(buf, byte(v.Type))
			continue
		}
		buf = append(buf, 1)
		buf = append(buf, byte(v.Type))
		switch v.Type {
		case Int64:
			buf = binary.AppendVarint(buf, v.I)
		case Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case String:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		}
	}
	return buf
}

// DecodeRow decodes a row written by EncodeRow, returning the bytes
// consumed. Hostile input is an error, never a panic: the arity and string
// lengths are checked against the bytes left before anything is allocated.
func DecodeRow(buf []byte) (Row, int, error) {
	n, k := binary.Uvarint(buf)
	// Every value takes at least its two header bytes.
	if k <= 0 || n > uint64(len(buf)-k)/2 {
		return nil, 0, fmt.Errorf("types: bad row arity")
	}
	p := k
	r := make(Row, n)
	for i := range r {
		if p+2 > len(buf) {
			return nil, 0, fmt.Errorf("types: truncated row value header")
		}
		present := buf[p] == 1
		t := ColType(buf[p+1])
		p += 2
		if !present {
			r[i] = Null(t)
			continue
		}
		switch t {
		case Int64:
			v, k := binary.Varint(buf[p:])
			if k <= 0 {
				return nil, 0, fmt.Errorf("types: bad int in row")
			}
			r[i] = NewInt(v)
			p += k
		case Float64:
			if p+8 > len(buf) {
				return nil, 0, fmt.Errorf("types: truncated float in row")
			}
			r[i] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[p:])))
			p += 8
		case String:
			l, k := binary.Uvarint(buf[p:])
			if k <= 0 || l > uint64(len(buf)-p-k) {
				return nil, 0, fmt.Errorf("types: bad string in row")
			}
			r[i] = NewString(string(buf[p+k : p+k+int(l)]))
			p += k + int(l)
		default:
			return nil, 0, fmt.Errorf("types: unknown column type %d in row", t)
		}
	}
	return r, p, nil
}
