package core

import (
	"errors"
	"math"
	"testing"

	"s2db/internal/types"
)

var negZero = math.Copysign(0, -1)

// TestFloatEqualityIsIEEE: the row walks behind LookupEqual, UpdateWhere and
// DeleteWhere compare floats as the kernels do. f = NaN matches no row and
// f = 0 matches the rows holding -0.0, whether the rows sit in the write
// buffer or in a segment, and whether f is indexed or not.
func TestFloatEqualityIsIEEE(t *testing.T) {
	nan, zero := types.NewFloat(math.NaN()), types.NewFloat(0)
	for _, indexed := range []bool{false, true} {
		for _, flushed := range []bool{false, true} {
			s := types.NewSchema(
				types.Column{Name: "id", Type: types.Int64},
				types.Column{Name: "f", Type: types.Float64},
			)
			s.UniqueKey = []int{0}
			if indexed {
				s.SecondaryKeys = [][]int{{1}}
			}
			tbl, _ := newTestTable(t, s, Config{MaxSegmentRows: 64})
			for i := 0; i < 10; i++ {
				f := float64(i)
				if i%2 == 0 {
					f = negZero
				}
				if err := tbl.Insert(types.Row{types.NewInt(int64(i)), types.NewFloat(f)}); err != nil {
					t.Fatal(err)
				}
			}
			if flushed {
				if _, err := tbl.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			check := func(what string, got, want int, err error) {
				t.Helper()
				if err != nil || got != want {
					t.Errorf("indexed=%v flushed=%v: %s = %d (%v), want %d", indexed, flushed, what, got, err, want)
				}
			}
			check("LookupEqual(f, NaN)", len(tbl.LookupEqual(1, nan)), 0, nil)
			check("LookupEqual(f, 0)", len(tbl.LookupEqual(1, zero)), 5, nil)
			n, err := tbl.UpdateWhere(Eq(1, nan), func(r types.Row) types.Row { return r })
			check("UpdateWhere(f = NaN)", n, 0, err)
			n, err = tbl.DeleteWhere(Eq(1, nan))
			check("DeleteWhere(f = NaN)", n, 0, err)
			n, err = tbl.DeleteWhere(Eq(1, zero))
			check("DeleteWhere(f = 0)", n, 5, err)
			check("rows left", mustCount(t, tbl), 5, nil)
		}
	}
}

// TestFloatUniqueKey: -0.0 and 0.0 are one unique-key value, whether the
// first of them is still buffered or already flushed, and a point read of
// either finds it.
func TestFloatUniqueKey(t *testing.T) {
	for _, flushed := range []bool{false, true} {
		s := types.NewSchema(
			types.Column{Name: "f", Type: types.Float64},
			types.Column{Name: "v", Type: types.Int64},
		)
		s.UniqueKey = []int{0}
		tbl, _ := newTestTable(t, s, Config{MaxSegmentRows: 64})
		if err := tbl.Insert(types.Row{types.NewFloat(0), types.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
		if flushed {
			if _, err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewFloat(negZero)}); !ok {
			t.Errorf("flushed=%v: GetByUnique(-0.0) missed the 0.0 row", flushed)
		}
		err := tbl.Insert(types.Row{types.NewFloat(negZero), types.NewInt(2)})
		if !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("flushed=%v: inserting -0.0 after 0.0 = %v, want ErrDuplicateKey", flushed, err)
		}
	}
}
