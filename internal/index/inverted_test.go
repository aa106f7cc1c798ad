package index

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"s2db/internal/colstore"
	"s2db/internal/types"
)

// mapSegmentIndex is the straightforward build the sorted-arena index
// replaced, kept as the oracle: one map entry per distinct key encoding,
// filled row by row through ValueAt.
func mapSegmentIndex(seg *colstore.Segment, col int) map[string]Postings {
	m := make(map[string]Postings)
	for i := 0; i < seg.NumRows; i++ {
		v := seg.ValueAt(i, col)
		if v.IsNull {
			continue
		}
		k := string(types.EncodeKey(nil, v))
		m[k] = append(m[k], int32(i))
	}
	return m
}

// fuzzRows decodes data into rows of (int, float, string), three or more
// bytes a row: a zero selector byte makes that cell NULL, and string cells
// take up to four following bytes verbatim, 0x00 included.
func fuzzRows(data []byte) []types.Row {
	var rows []types.Row
	for len(data) >= 3 && len(rows) < 2048 {
		bi, bf, bs := data[0], data[1], data[2]
		data = data[3:]
		r := types.Row{types.Null(types.Int64), types.Null(types.Float64), types.Null(types.String)}
		if bi != 0 {
			r[0] = types.NewInt(int64(int8(bi)) << (bi % 7 * 9))
		}
		if bf != 0 {
			switch bf % 8 {
			case 1:
				r[1] = types.NewFloat(math.Copysign(0, -1))
			case 2:
				r[1] = types.NewFloat(math.NaN())
			case 3:
				r[1] = types.NewFloat(math.Inf(-1))
			default:
				r[1] = types.NewFloat(float64(int8(bf)) / 4)
			}
		}
		if bs != 0 {
			n := min(int(bs%5), len(data))
			r[2] = types.NewString(string(data[:n]))
			data = data[n:]
		}
		rows = append(rows, r)
	}
	return rows
}

// FuzzSegmentIndex checks the sorted-arena segment index against the map
// oracle and a row walk, on int, float and string columns with NULLs,
// −0.0, NaN and strings holding 0x00: every lookup returns exactly the
// ascending rows whose key bytes match, the distinct values and their
// hashes agree, and a segment's tuple hashes are HashMany of its rows.
func FuzzSegmentIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 0, 2, 2, 2, 2, 0, 0, 0, 1, 1, 1, 0})
	f.Add([]byte{5, 9, 4, 'a', 0, 'b', 0, 5, 9, 4, 'a', 0, 'b', 0, 0, 0, 3, 'a', 0, 0})
	f.Add(bytes.Repeat([]byte{7, 3, 2, 'x', 'y'}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzRows(data)
		schema := types.NewSchema(
			types.Column{Name: "i", Type: types.Int64},
			types.Column{Name: "f", Type: types.Float64},
			types.Column{Name: "s", Type: types.String},
		)
		seg := buildSeg(schema, 1, rows)
		for col := range schema.Columns {
			si := BuildSegmentIndex(seg, col)
			oracle := mapSegmentIndex(seg, col)
			if si.DistinctValues() != len(oracle) {
				t.Fatalf("col %d: DistinctValues = %d, oracle has %d", col, si.DistinctValues(), len(oracle))
			}
			wantHashes := map[uint64]bool{}
			for k := range oracle {
				wantHashes[types.KeyHash([]byte(k))] = true
			}
			gotHashes := map[uint64]bool{}
			for _, h := range si.ValueHashes() {
				gotHashes[h] = true
			}
			if !reflect.DeepEqual(gotHashes, wantHashes) {
				t.Fatalf("col %d: ValueHashes disagree with the oracle", col)
			}
			probes := []types.Value{types.NewInt(12345), types.NewFloat(0), types.NewString("\x00"), types.Null(schema.Columns[col].Type)}
			for _, r := range rows {
				probes = append(probes, r[col])
			}
			for _, v := range probes {
				if v.Type != schema.Columns[col].Type {
					continue
				}
				got := si.Lookup(v)
				var walk Postings
				if !v.IsNull {
					k := types.EncodeKey(nil, v)
					for i, r := range rows {
						if !r[col].IsNull && bytes.Equal(types.EncodeKey(nil, r[col]), k) {
							walk = append(walk, int32(i))
						}
					}
					if want := oracle[string(k)]; !reflect.DeepEqual(walk, want) {
						t.Fatalf("col %d: oracle %v and row walk %v disagree on %v", col, want, walk, v)
					}
				}
				if !reflect.DeepEqual(got, walk) {
					t.Fatalf("col %d: Lookup(%v) = %v, want %v", col, v, got, walk)
				}
				if cap(got) != len(got) {
					t.Fatalf("col %d: Lookup(%v) leaves room to append into the shared postings", col, v)
				}
			}
		}
		segIdx := map[int]*SegmentIndex{}
		for col := range schema.Columns {
			segIdx[col] = BuildSegmentIndex(seg, col)
		}
		cols := []int{2, 0, 1}
		got := tupleHashesOf(len(rows), cols, segIdx)
		var want []uint64
		for _, r := range rows {
			vals := []types.Value{r[2], r[0], r[1]}
			if !vals[0].IsNull && !vals[1].IsNull && !vals[2].IsNull {
				want = append(want, types.HashMany(vals))
			}
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("tuple hashes = %v, want %v", got, want)
		}
	})
}
