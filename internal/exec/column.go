package exec

import (
	"math"
	"sync"

	"s2db/internal/bitmap"
	"s2db/internal/colstore"
	"s2db/internal/types"
)

// The typed column reader. Every §5.2 filter strategy and every fused
// aggregation loop is written once, as a generic loop over a column's Go
// type, and reaches the segment's values through colReader. Float64 columns
// are stored as IEEE bits in an int encoding; the conversion to float64
// happens in this file (decodeVec, seekAt, fromRaw), and no kernel loop
// sees the bits. The helpers that pick a column type's code switch on a
// pointer to T, which allocates nothing; each runs once per vector, run or
// sought row, never per decoded row.

// colValue is the Go type a column's non-null values read as: int64 for
// Int64, float64 for Float64, string for String. The three are distinct GC
// shapes, so each generic loop compiles to three specialized loops with T's
// operators inlined. Keep method calls through this constraint (there are
// none) out of inner loops: those go through the instantiation dictionary.
type colValue interface{ int64 | float64 | string }

// colReader is one segment column read as T: the decoded vector (dense
// selections; shared through the vector cache) or a per-row seek of the
// encoded column (sparse ones), plus the null bitmap.
type colReader[T colValue] struct {
	vals  []T              // decoded column; nil when seeking
	col   *colstore.Column // sought per row when vals is nil
	nulls *bitmap.Bitmap
}

func (r *colReader[T]) null(i int32) bool { return r.nulls != nil && r.nulls.Get(int(i)) }

// at returns row i's value; the caller has checked null.
func (r *colReader[T]) at(i int32) T {
	if r.vals != nil {
		return r.vals[i]
	}
	return seekAt[T](r.col, int(i))
}

// readCol binds column col of the context's segment as T: decoded once
// when dense, sought per row otherwise.
func readCol[T colValue](ctx *SegContext, col int, dense bool) colReader[T] {
	c := &ctx.Meta.Seg.Cols[col]
	r := colReader[T]{col: c, nulls: c.Nulls}
	if dense {
		r.vals = segVec[T](ctx, col)
	}
	return r
}

// seekAt reads row i of the encoded column as T.
func seekAt[T colValue](c *colstore.Column, i int) (v T) {
	switch p := any(&v).(type) {
	case *int64:
		*p = c.Ints.At(i)
	case *float64:
		*p = math.Float64frombits(uint64(c.Ints.At(i)))
	case *string:
		*p = c.Strs.At(i)
	}
	return v
}

// fromRaw converts one raw int-encoded value (an RLE run's) to T: the
// identity for Int64 columns, IEEE bits to float64 for Float64 ones.
func fromRaw[T colValue](b int64) (v T) {
	switch p := any(&v).(type) {
	case *int64:
		*p = b
	case *float64:
		*p = math.Float64frombits(uint64(b))
	}
	return v
}

// decodeVec fully decodes a column as T, counting the decode in st.
func decodeVec[T colValue](meta *colstore.Meta, col int, st *ScanStats) (v []T) {
	if st != nil {
		st.VecDecodes++
	}
	c, n := &meta.Seg.Cols[col], meta.Seg.NumRows
	switch p := any(&v).(type) {
	case *[]int64:
		*p = c.Ints.DecodeAll(make([]int64, 0, n))
	case *[]float64:
		scratch := bitsPool.Get().(*[]int64)
		bits := c.Ints.DecodeAll((*scratch)[:0])
		*p = make([]float64, len(bits))
		for i, b := range bits {
			(*p)[i] = math.Float64frombits(uint64(b))
		}
		*scratch = bits
		bitsPool.Put(scratch)
	case *[]string:
		*p = c.Strs.DecodeAll(make([]string, 0, n))
	}
	return v
}

// bitsPool recycles the raw-bits scratch a Float64 decode goes through, so
// only the float vector it returns is allocated.
var bitsPool = sync.Pool{New: func() any { return new([]int64) }}

// vecBytes estimates the resident size of a decoded vector: 8 bytes a value
// for numbers; slice headers plus payloads for strings.
func vecBytes[T colValue](v []T) int64 {
	s, ok := any(v).([]string)
	if !ok {
		return 8 * int64(cap(v))
	}
	n := 16 * int64(cap(s))
	for _, x := range s {
		n += int64(len(x))
	}
	return n
}

// segVec returns the fully decoded column as T. The vector is memoized per
// segment context and, when a shared cache is wired in, served from (and
// published to) the cross-query decoded-vector cache.
func segVec[T colValue](c *SegContext, col int) []T {
	var memo *[][]T
	switch p := any(&memo).(type) {
	case **[][]int64:
		*p = &c.ints
	case **[][]float64:
		*p = &c.floats
	case **[][]string:
		*p = &c.strs
	}
	if *memo == nil {
		*memo = make([][]T, len(c.Meta.Seg.Cols))
	}
	v := &(*memo)[col]
	if *v == nil {
		switch {
		case c.Cache != nil:
			*v = cachedVec[T](c.Cache, c.Meta, col, c.Stats)
		case c.image != nil:
			*v = imageVec[T](c.image, c.Meta, col, c.Stats)
		default:
			*v = decodeVec[T](c.Meta, col, c.Stats)
		}
	}
	return *v
}

// imageVec returns a column of the write buffer's columnar image, decoded
// once per image into the image's own store: every scan until the next
// rebuild reads the image, so decoding it per scan would dominate.
func imageVec[T colValue](vecs *sync.Map, meta *colstore.Meta, col int, st *ScanStats) []T {
	if v, ok := vecs.Load(col); ok {
		return v.([]T)
	}
	v, _ := vecs.LoadOrStore(col, decodeVec[T](meta, col, st))
	return v.([]T)
}

// valueAs reads a constant as T, by the field the column's type uses — as
// vector.CmpValue reads the constant a row value is compared with.
func valueAs[T colValue](c types.Value) (v T) {
	switch p := any(&v).(type) {
	case *int64:
		*p = c.I
	case *float64:
		*p = c.F
	case *string:
		*p = c.S
	}
	return v
}
