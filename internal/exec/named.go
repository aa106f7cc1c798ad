package exec

import (
	"fmt"
	"strings"

	"s2db/internal/types"
	"s2db/internal/vector"
)

// NamedLeaf is a comparison clause whose column is referenced by name
// rather than ordinal. It is resolved against the table schema at
// execution time (ResolveNames); evaluating an unresolved NamedLeaf is a
// programming error and panics.
type NamedLeaf struct {
	Name string
	Op   vector.CmpOp
	Val  types.Value
	// In, when non-empty, makes the clause an IN-list (Op ignored).
	In []types.Value

	st nodeStats
}

// NewNamedLeaf returns a comparison clause on a named column.
func NewNamedLeaf(name string, op vector.CmpOp, val types.Value) *NamedLeaf {
	return &NamedLeaf{Name: name, Op: op, Val: val}
}

// NewNamedIn returns an IN-list clause on a named column.
func NewNamedIn(name string, vals []types.Value) *NamedLeaf {
	return &NamedLeaf{Name: name, In: vals}
}

func (l *NamedLeaf) stats() *nodeStats { return &l.st }

// EvalSpans implements Node; NamedLeaf must be resolved before execution.
func (l *NamedLeaf) EvalSpans(*SegContext, []Span, []Span) []Span {
	panic(fmt.Sprintf("exec: unresolved column reference %q (ResolveNames must run before execution)", l.Name))
}

// EvalRow implements Node; NamedLeaf must be resolved before execution.
func (l *NamedLeaf) EvalRow(types.Row) bool {
	panic(fmt.Sprintf("exec: unresolved column reference %q (ResolveNames must run before execution)", l.Name))
}

// UnknownColumnError reports a name that does not resolve against a schema,
// listing the columns that exist.
func UnknownColumnError(name string, schema *types.Schema) error {
	cols := make([]string, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = c.Name
	}
	return fmt.Errorf("exec: unknown column %q (columns: %s)", name, strings.Join(cols, ", "))
}

// ResolveNames rewrites every NamedLeaf in the filter tree to an ordinal
// Leaf using the schema, and validates the ordinals of plain leaves. The
// input tree is not mutated: subtrees containing named references are
// rebuilt, untouched subtrees are shared.
func ResolveNames(n Node, schema *types.Schema) (Node, error) {
	if n == nil {
		return nil, nil
	}
	switch f := n.(type) {
	case *NamedLeaf:
		col := schema.ColIndex(f.Name)
		if col < 0 {
			return nil, UnknownColumnError(f.Name, schema)
		}
		if len(f.In) > 0 {
			return NewIn(col, f.In), nil
		}
		return NewLeaf(col, f.Op, f.Val), nil
	case *Leaf:
		if f.Col < 0 || f.Col >= len(schema.Columns) {
			return nil, fmt.Errorf("exec: filter column ordinal %d out of range [0,%d)", f.Col, len(schema.Columns))
		}
		return f, nil
	case *And:
		children, changed, err := resolveChildren(f.Children, schema)
		if err != nil {
			return nil, err
		}
		if !changed {
			return f, nil
		}
		return &And{Children: children, DisableReorder: f.DisableReorder, DisableGroup: f.DisableGroup}, nil
	case *Or:
		children, changed, err := resolveChildren(f.Children, schema)
		if err != nil {
			return nil, err
		}
		if !changed {
			return f, nil
		}
		return &Or{Children: children}, nil
	case *Throttle:
		inner, err := ResolveNames(f.Inner, schema)
		if err != nil {
			return nil, err
		}
		if inner == f.Inner {
			return f, nil
		}
		return &Throttle{Inner: inner, PerSegment: f.PerSegment}, nil
	default:
		return n, nil
	}
}

func resolveChildren(children []Node, schema *types.Schema) ([]Node, bool, error) {
	out := make([]Node, len(children))
	changed := false
	for i, c := range children {
		r, err := ResolveNames(c, schema)
		if err != nil {
			return nil, false, err
		}
		if r != c {
			changed = true
		}
		out[i] = r
	}
	return out, changed, nil
}

// ResolveAggSpecs resolves name-based aggregate specs to ordinals and
// validates ordinal-based ones, returning a copy when anything changed.
func ResolveAggSpecs(aggs []AggSpec, schema *types.Schema) ([]AggSpec, error) {
	out := aggs
	copied := false
	for i, a := range aggs {
		if a.ColName != "" {
			col := schema.ColIndex(a.ColName)
			if col < 0 {
				return nil, UnknownColumnError(a.ColName, schema)
			}
			if !copied {
				out = append([]AggSpec(nil), aggs...)
				copied = true
			}
			out[i].Col = col
			out[i].ColName = ""
			continue
		}
		if a.Expr == nil && !(a.Func == Count && a.Col < 0) {
			if a.Col < 0 || a.Col >= len(schema.Columns) {
				return nil, fmt.Errorf("exec: aggregate column ordinal %d out of range [0,%d)", a.Col, len(schema.Columns))
			}
		}
	}
	return out, nil
}

// CloneNode deep-copies a filter tree with fresh adaptive statistics. The
// parallel scheduler hands each partition scan its own clone so concurrent
// EvalSpans calls never share mutable nodeStats.
func CloneNode(n Node) Node {
	if n == nil {
		return nil
	}
	switch f := n.(type) {
	case *Leaf:
		return &Leaf{Col: f.Col, Op: f.Op, Val: f.Val, In: f.In, forceStrategy: f.forceStrategy}
	case *NamedLeaf:
		return &NamedLeaf{Name: f.Name, Op: f.Op, Val: f.Val, In: f.In}
	case *And:
		children := make([]Node, len(f.Children))
		for i, c := range f.Children {
			children[i] = CloneNode(c)
		}
		return &And{Children: children, DisableReorder: f.DisableReorder, DisableGroup: f.DisableGroup}
	case *Or:
		children := make([]Node, len(f.Children))
		for i, c := range f.Children {
			children[i] = CloneNode(c)
		}
		return &Or{Children: children}
	case *Throttle:
		return &Throttle{Inner: CloneNode(f.Inner), PerSegment: f.PerSegment}
	default:
		return n
	}
}

// FormatNode renders a filter tree for plan output, using schema column
// names when available.
func FormatNode(n Node, schema *types.Schema) string {
	if n == nil {
		return ""
	}
	switch f := n.(type) {
	case *Leaf:
		return formatClause(colName(schema, f.Col), f.Op, f.Val, f.In)
	case *NamedLeaf:
		return formatClause(f.Name, f.Op, f.Val, f.In)
	case *And:
		return formatJunction(f.Children, " AND ", schema)
	case *Or:
		return formatJunction(f.Children, " OR ", schema)
	case *Throttle:
		if f.Inner == nil {
			return fmt.Sprintf("throttle(%s)", f.PerSegment)
		}
		return fmt.Sprintf("throttle(%s, %s)", f.PerSegment, FormatNode(f.Inner, schema))
	default:
		return fmt.Sprintf("%T", n)
	}
}

func formatJunction(children []Node, sep string, schema *types.Schema) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = FormatNode(c, schema)
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func formatClause(col string, op vector.CmpOp, val types.Value, in []types.Value) string {
	if len(in) > 0 {
		vs := make([]string, len(in))
		for i, v := range in {
			vs[i] = v.String()
		}
		return fmt.Sprintf("%s IN (%s)", col, strings.Join(vs, ", "))
	}
	return fmt.Sprintf("%s %s %s", col, op, val)
}

// FormatAgg renders one aggregate output for plan display.
func FormatAgg(a AggSpec, schema *types.Schema) string {
	switch {
	case a.Expr != nil:
		return fmt.Sprintf("%s(expr)", a.Func)
	case a.Func == Count && a.Col < 0 && a.ColName == "":
		return "count(*)"
	case a.ColName != "":
		return fmt.Sprintf("%s(%s)", a.Func, a.ColName)
	default:
		return fmt.Sprintf("%s(%s)", a.Func, colName(schema, a.Col))
	}
}

func colName(schema *types.Schema, col int) string {
	if schema != nil && col >= 0 && col < len(schema.Columns) {
		return schema.Columns[col].Name
	}
	return fmt.Sprintf("col%d", col)
}
