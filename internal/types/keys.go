package types

import (
	"encoding/binary"
	"math"
)

// EncodeKey appends an order-preserving encoding of vals to buf:
// bytes.Compare over encodings agrees with CompareRows over the values.
// It is canonical — equal values encode alike, so -0.0 encodes as 0.0 —
// which makes byte equality key equality for the rowstore's skiplist keys,
// GROUP BY and join hash tables, the indexes and KeyHash.
func EncodeKey(buf []byte, vals ...Value) []byte {
	for _, v := range vals {
		if v.IsNull {
			buf = append(buf, 0x00) // nulls sort first
			continue
		}
		buf = append(buf, 0x01)
		switch v.Type {
		case Int64:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.I)^(1<<63))
		case Float64:
			bits := math.Float64bits(v.F + 0) // -0.0 + 0 is 0.0
			if bits&(1<<63) != 0 {
				bits = ^bits // negative: flip everything
			} else {
				bits |= 1 << 63 // positive: flip sign bit
			}
			buf = binary.BigEndian.AppendUint64(buf, bits)
		case String:
			// Escape 0x00 so embedded zero bytes keep ordering, then
			// terminate with 0x00 0x01 (which sorts below any escaped byte).
			for i := 0; i < len(v.S); i++ {
				b := v.S[i]
				buf = append(buf, b)
				if b == 0x00 {
					buf = append(buf, 0xff)
				}
			}
			buf = append(buf, 0x00, 0x01)
		}
	}
	return buf
}

// KeyOf is a convenience wrapper returning a fresh key for the given row
// projected onto key column ordinals.
func KeyOf(r Row, key []int) []byte {
	vals := make([]Value, len(key))
	for i, k := range key {
		vals[i] = r[k]
	}
	return EncodeKey(nil, vals...)
}
