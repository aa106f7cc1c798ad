// Package vector defines the comparison operators filter clauses are built
// from and their typed scalar evaluation. The vectorized kernels that apply
// them to encoded segment data (§2.1.2: "columnstore tables support
// vectorized execution" with late materialization) live in
// internal/exec/kernel.go.
package vector

import (
	"fmt"

	"s2db/internal/types"
)

// CmpOp is a comparison operator for filter kernels.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String names the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(op))
}

// Cmp reports whether "a op b" holds under Go's operators — for floats the
// IEEE order, which is also what types.Compare orders every storable value
// by (NaN is rejected at write; see types.Schema.CheckRow). It is the one
// comparison every segment kernel and CmpValue share.
func Cmp[T int64 | float64 | string](a T, op CmpOp, b T) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	default:
		return a >= b
	}
}

// CmpValue reports whether "a op b" holds for dynamically-typed values, by
// the same rule as Cmp on the values' Go types.
func CmpValue(a types.Value, op CmpOp, b types.Value) bool {
	if a.IsNull || b.IsNull {
		return false // SQL three-valued logic: comparisons with NULL are not true
	}
	switch a.Type {
	case types.Int64:
		return Cmp(a.I, op, b.I)
	case types.Float64:
		return Cmp(a.F, op, b.F)
	default:
		return Cmp(a.S, op, b.S)
	}
}
