package types

import (
	"encoding/binary"
	"math"

	"s2db/internal/codec"
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
			buf = codec.AppendBytes(buf, v.S)
		}
	}
	return buf
}

// DecodeRow reads a row written by EncodeRow. The arity is checked against
// the bytes left before the row is allocated. It returns nil once r has
// failed.
func DecodeRow(r *codec.Reader) Row {
	// Every value takes at least its two header bytes.
	row := make(Row, r.Count(2))
	for i := range row {
		present, t := r.Bool(), ColType(r.Byte())
		switch {
		case t != Int64 && t != Float64 && t != String:
			r.Fail("unknown column type %d in row", t)
		case !present:
			row[i] = Null(t)
		case t == Int64:
			row[i] = NewInt(r.Varint())
		case t == Float64:
			row[i] = NewFloat(math.Float64frombits(r.U64()))
		default:
			row[i] = NewString(string(r.Field()))
		}
	}
	if r.Err() != nil {
		return nil
	}
	return row
}
