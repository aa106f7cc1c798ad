package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"s2db/internal/bitmap"
	"s2db/internal/colstore"
	"s2db/internal/types"
)

// SegmentIndex is the per-segment inverted index for one column (§4.1): it
// maps each distinct value in the segment to the postings list of row
// offsets holding that value. Segments are immutable, so the index is
// built once at segment creation and never changes.
//
// It holds no pointers per value: the distinct order-preserving key
// encodings sit sorted in one byte arena, and the postings lists in one
// compressed-sparse-row array. The actual column values live here, not in
// the global index, which keeps global-index registration cheap for wide
// columns (§4.1).
type SegmentIndex struct {
	// keys[koff[i]:koff[i+1]] is the EncodeKey form of distinct value i;
	// values ascend in key order.
	keys []byte
	koff []int32
	// rows[start[i]:start[i+1]] are the ascending row offsets holding
	// value i.
	start []int32
	rows  []int32
}

// BuildSegmentIndex decodes one column of a segment and builds its
// inverted index in one pass plus one sort. Null values are not indexed (a
// NULL never equals anything).
func BuildSegmentIndex(seg *colstore.Segment, col int) *SegmentIndex {
	cc := seg.Cols[col]
	switch typ := seg.Schema().Columns[col].Type; typ {
	case types.String:
		// Go string order is EncodeKey order for strings.
		strs := cc.Strs.DecodeAll(make([]string, 0, seg.NumRows))
		return buildSorted(strs, cc.Nulls, func(dst []byte, row int32) []byte {
			return types.EncodeKey(dst, types.NewString(strs[row]))
		})
	default:
		vals := cc.Ints.DecodeAll(make([]int64, 0, seg.NumRows))
		valueAt := func(row int) types.Value {
			if typ == types.Float64 {
				return types.NewFloat(math.Float64frombits(uint64(vals[row])))
			}
			return types.NewInt(vals[row])
		}
		// EncodeKey writes a number as one tag byte and eight
		// order-preserving big-endian bytes, so those bytes read as an
		// integer sort (and compare equal) exactly as the keys do.
		ords := make([]uint64, len(vals))
		var buf [16]byte
		for i := range vals {
			ords[i] = binary.BigEndian.Uint64(types.EncodeKey(buf[:0], valueAt(i))[1:])
		}
		return buildSorted(ords, cc.Nulls, func(dst []byte, row int32) []byte {
			return types.EncodeKey(dst, valueAt(int(row)))
		})
	}
}

type sortEntry[K cmp.Ordered] struct {
	k   K
	row int32
}

// buildSorted builds the index from one sort key per row, ordered as the
// rows' key encodings are; appendKey appends a row's key encoding.
func buildSorted[K cmp.Ordered](ks []K, nulls *bitmap.Bitmap, appendKey func(dst []byte, row int32) []byte) *SegmentIndex {
	es := make([]sortEntry[K], 0, len(ks))
	for i, k := range ks {
		if nulls == nil || !nulls.Get(i) {
			es = append(es, sortEntry[K]{k, int32(i)})
		}
	}
	slices.SortFunc(es, func(a, b sortEntry[K]) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	distinct := 0
	for i := range es {
		if i == 0 || es[i].k != es[i-1].k {
			distinct++
		}
	}
	si := &SegmentIndex{
		koff:  make([]int32, 1, distinct+1),
		start: make([]int32, 0, distinct+1),
		rows:  make([]int32, len(es)),
	}
	for i, e := range es {
		if i == 0 || e.k != es[i-1].k {
			si.keys = appendKey(si.keys, e.row)
			si.koff = append(si.koff, int32(len(si.keys)))
			si.start = append(si.start, int32(i))
		}
		si.rows[i] = e.row
	}
	si.start = append(si.start, int32(len(es)))
	si.keys = slices.Clone(si.keys) // drop append's spare capacity
	return si
}

// key returns the key encoding of distinct value i.
func (si *SegmentIndex) key(i int) []byte { return si.keys[si.koff[i]:si.koff[i+1]] }

// Lookup returns the postings list for val (nil when absent). The list is
// shared and capacity-capped; callers must not mutate it.
func (si *SegmentIndex) Lookup(val types.Value) Postings {
	if val.IsNull {
		return nil
	}
	var buf [64]byte
	k := types.EncodeKey(buf[:0], val)
	lo, hi := 0, si.DistinctValues()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(si.key(mid), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == si.DistinctValues() || !bytes.Equal(si.key(lo), k) {
		return nil
	}
	from, to := si.start[lo], si.start[lo+1]
	return Postings(si.rows[from:to:to])
}

// DistinctValues returns the number of distinct indexed values, used by the
// global index write-cost accounting ("the global index only stores
// information about the unique values in each segment", §4.1).
func (si *SegmentIndex) DistinctValues() int { return len(si.start) - 1 }

// ValueHashes returns the hash of every distinct value in the index, for
// registration in the global index. Hashes of colliding values repeat.
func (si *SegmentIndex) ValueHashes() []uint64 {
	out := make([]uint64, si.DistinctValues())
	for i := range out {
		out[i] = types.KeyHash(si.key(i))
	}
	return out
}

// valueOrdinals returns, for each of a segment's n rows, the ordinal of
// its distinct value, or -1 for a NULL.
func (si *SegmentIndex) valueOrdinals(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for v := 0; v < si.DistinctValues(); v++ {
		for _, r := range si.rows[si.start[v]:si.start[v+1]] {
			out[r] = int32(v)
		}
	}
	return out
}
