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

// CmpInt reports whether "a op b" holds.
func CmpInt(a int64, op CmpOp, b int64) bool {
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

// CmpFloat reports whether "a op b" holds.
func CmpFloat(a float64, op CmpOp, b float64) bool {
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

// CmpString reports whether "a op b" holds.
func CmpString(a string, op CmpOp, b string) bool {
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

// CmpValue reports whether "a op b" holds for dynamically-typed values.
func CmpValue(a types.Value, op CmpOp, b types.Value) bool {
	if a.IsNull || b.IsNull {
		return false // SQL three-valued logic: comparisons with NULL are not true
	}
	c := types.Compare(a, b)
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	default:
		return c >= 0
	}
}
