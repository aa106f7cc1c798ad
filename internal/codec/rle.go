package codec

import (
	"fmt"
	"math"
	"sort"
)

// RLE is a run-length encoded integer column. Each run stores a value and
// the exclusive end offset of the run; seeking to row i is a binary search
// over run ends, and full scans iterate runs, which is what encoded
// execution exploits to evaluate a filter once per run rather than once per
// row (§5.2).
type RLE struct {
	n    int
	vals []int64
	ends []uint32 // ends[j] = first row offset after run j
}

// NewRLE run-length encodes vals.
func NewRLE(vals []int64) *RLE {
	r := &RLE{n: len(vals)}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		r.vals = append(r.vals, vals[i])
		r.ends = append(r.ends, uint32(j))
		i = j
	}
	return r
}

// Len returns the number of rows.
func (r *RLE) Len() int { return r.n }

// Runs returns the number of runs.
func (r *RLE) Runs() int { return len(r.vals) }

// Run returns run j as (value, start, end).
func (r *RLE) Run(j int) (val int64, start, end int) {
	if j == 0 {
		return r.vals[0], 0, int(r.ends[0])
	}
	return r.vals[j], int(r.ends[j-1]), int(r.ends[j])
}

// At returns the value at row offset i.
func (r *RLE) At(i int) int64 { return r.vals[r.FindRun(i)] }

// FindRun returns the index of the run containing row offset i — the entry
// point for span-based encoded execution, which binary-searches once per
// selection span and then walks runs sequentially.
func (r *RLE) FindRun(i int) int {
	return sort.Search(len(r.ends), func(k int) bool { return r.ends[k] > uint32(i) })
}

// DecodeAll appends all values to dst.
func (r *RLE) DecodeAll(dst []int64) []int64 {
	start := 0
	for j, v := range r.vals {
		end := int(r.ends[j])
		for i := start; i < end; i++ {
			dst = append(dst, v)
		}
		start = end
	}
	return dst
}

// Kind reports KindRLE.
func (r *RLE) Kind() Kind { return KindRLE }

// AppendBinary serializes the column.
func (r *RLE) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(KindRLE))
	buf = appendUvarint(buf, uint64(r.n))
	buf = appendUvarint(buf, uint64(len(r.vals)))
	for j, v := range r.vals {
		buf = appendVarint(buf, v)
		buf = appendUvarint(buf, uint64(r.ends[j]))
	}
	return buf
}

func decodeRLE(buf []byte) (*RLE, int, error) {
	p := 1
	n, k, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	runs, k, err := readUvarint(buf[p:])
	if err != nil {
		return nil, 0, err
	}
	p += k
	// Run ends are uint32 offsets, and every run takes at least two bytes
	// (a value and an end varint): a header claiming more is hostile, not
	// an allocation request.
	if n > math.MaxUint32 || runs > uint64(len(buf)-p)/2 {
		return nil, 0, fmt.Errorf("codec: rle header claims %d rows in %d runs, %d bytes left", n, runs, len(buf)-p)
	}
	r := &RLE{n: int(n), vals: make([]int64, runs), ends: make([]uint32, runs)}
	prev := uint64(0)
	for j := 0; j < int(runs); j++ {
		v, k, err := readVarint(buf[p:])
		if err != nil {
			return nil, 0, err
		}
		p += k
		e, k, err := readUvarint(buf[p:])
		if err != nil {
			return nil, 0, err
		}
		p += k
		if e <= prev || e > n {
			return nil, 0, fmt.Errorf("codec: rle run ends not increasing")
		}
		prev = e
		r.vals[j] = v
		r.ends[j] = uint32(e)
	}
	if runs > 0 && prev != n {
		return nil, 0, fmt.Errorf("codec: rle runs do not cover column")
	}
	return r, p, nil
}
