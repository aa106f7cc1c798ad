package vector

import (
	"math"
	"testing"

	"s2db/internal/types"
)

func TestCmpOps(t *testing.T) {
	cases := []struct {
		a    int64
		op   CmpOp
		b    int64
		want bool
	}{
		{1, Eq, 1, true}, {1, Eq, 2, false},
		{1, Ne, 2, true}, {1, Ne, 1, false},
		{1, Lt, 2, true}, {2, Lt, 2, false},
		{2, Le, 2, true}, {3, Le, 2, false},
		{3, Gt, 2, true}, {2, Gt, 2, false},
		{2, Ge, 2, true}, {1, Ge, 2, false},
	}
	for _, c := range cases {
		if got := Cmp(c.a, c.op, c.b); got != c.want {
			t.Errorf("Cmp(%d %v %d) = %v", c.a, c.op, c.b, got)
		}
		if got := Cmp(float64(c.a), c.op, float64(c.b)); got != c.want {
			t.Errorf("Cmp(%d. %v %d.) = %v", c.a, c.op, c.b, got)
		}
	}
	if !Cmp("a", Lt, "b") || Cmp("b", Eq, "a") {
		t.Error("Cmp on strings: basic cases wrong")
	}
}

// TestCmpValueIsIEEE: CmpValue applies the segment kernels' rule to boxed
// floats — -0 equals 0, and a NaN constant equals nothing and differs from
// everything — so a buffer row and a segment row holding the same value
// always agree.
func TestCmpValueIsIEEE(t *testing.T) {
	negZero, zero, nan := types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0), types.NewFloat(math.NaN())
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		for _, pair := range [][2]types.Value{{negZero, zero}, {zero, nan}, {nan, nan}} {
			a, b := pair[0], pair[1]
			if got, want := CmpValue(a, op, b), Cmp(a.F, op, b.F); got != want {
				t.Errorf("CmpValue(%v %v %v) = %v, Cmp says %v", a, op, b, got, want)
			}
		}
	}
}

func TestCmpValueNulls(t *testing.T) {
	n := types.Null(types.Int64)
	v := types.NewInt(5)
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		if CmpValue(n, op, v) || CmpValue(v, op, n) || CmpValue(n, op, n) {
			t.Errorf("comparison with NULL under %v must be false", op)
		}
	}
}

func TestCmpOpString(t *testing.T) {
	names := map[CmpOp]string{Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
	for op, want := range names {
		if op.String() != want {
			t.Fatalf("%v.String() = %q", op, op.String())
		}
	}
	if CmpOp(99).String() == "" {
		t.Fatal("unknown op should still render")
	}
}

func TestCmpValueTyped(t *testing.T) {
	if !CmpValue(types.NewFloat(1), Lt, types.NewFloat(2)) {
		t.Fatal("float CmpValue broken")
	}
	if !CmpValue(types.NewString("a"), Ne, types.NewString("b")) {
		t.Fatal("string CmpValue broken")
	}
	if !CmpValue(types.NewInt(3), Ge, types.NewInt(3)) {
		t.Fatal("int CmpValue broken")
	}
	if CmpValue(types.NewInt(3), Gt, types.NewInt(3)) {
		t.Fatal("Gt should be strict")
	}
	if !CmpValue(types.NewInt(2), Le, types.NewInt(3)) {
		t.Fatal("Le broken")
	}
}
