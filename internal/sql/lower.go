package sql

import (
	"fmt"

	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
)

// StmtKind classifies a lowered statement.
type StmtKind uint8

const (
	// StmtSelect is a query returning rows.
	StmtSelect StmtKind = iota
	// StmtInsert, StmtUpdate, StmtDelete are DML returning a row count.
	StmtInsert
	StmtUpdate
	StmtDelete
)

// String names the statement kind.
func (k StmtKind) String() string {
	switch k {
	case StmtSelect:
		return "select"
	case StmtInsert:
		return "insert"
	case StmtUpdate:
		return "update"
	case StmtDelete:
		return "delete"
	}
	return fmt.Sprintf("StmtKind(%d)", uint8(k))
}

// Statement is a lowered, parameterized plan: everything lex/parse/lower
// produce that does not depend on concrete bind values. Statements are
// immutable after lowering and shared across goroutines by the plan cache;
// per-execution state (values, filter trees with adaptive counters) is
// created by the Bind* methods.
type Statement struct {
	// Kind selects which plan below is set.
	Kind StmtKind
	// Table is the target table name.
	Table string
	// Template is the normalized text that keys the plan cache.
	Template string
	// Slots is the total number of bind slots the template carries
	// (extracted literals + caller placeholders).
	Slots int

	sel *selectPlan
	ins *insertPlan
	upd *updatePlan
	del *deletePlan
}

// aggOut is one aggregate output in builder order.
type aggOut struct {
	fn  exec.AggFunc
	col IdentRef // zero Name for count(*)
}

// selectPlan is the lowered SELECT shape.
type selectPlan struct {
	filter  Expr
	groupBy []IdentRef
	aggs    []aggOut
	order   []exec.SortKey // name-based; resolved by the executor
	// limitSlot is the bind slot of the LIMIT count, -1 for none.
	limitSlot int
	star      bool
	// aggOutMap maps each select item to its position in the executor's
	// output row (group values first, then aggregates); nil for plain
	// (non-aggregate) queries.
	aggOutMap []int
	// projCols names the plain query's output columns (resolved to schema
	// ordinals at bind); nil for SELECT *.
	projCols []IdentRef
}

type insertPlan struct {
	columns []IdentRef // nil = schema order
	rows    [][]int
	rowPos  []Pos
}

type updatePlan struct {
	set    []SetClause
	filter Expr
}

type deletePlan struct {
	filter Expr
}

var aggFuncByName = map[string]exec.AggFunc{
	"count": exec.Count, "sum": exec.Sum, "min": exec.Min,
	"max": exec.Max, "avg": exec.Avg,
}

// Lower validates a parsed statement and produces its parameterized plan.
// Everything checkable without a schema or bind values is checked here, so
// the work is paid once per template rather than once per execution.
func Lower(st Stmt, n *Normalized) (*Statement, error) {
	out := &Statement{Template: n.Template, Slots: len(n.Slots)}
	switch s := st.(type) {
	case *SelectStmt:
		out.Kind = StmtSelect
		out.Table = s.Table.Name
		plan, err := lowerSelect(s)
		if err != nil {
			return nil, err
		}
		out.sel = plan
	case *InsertStmt:
		out.Kind = StmtInsert
		out.Table = s.Table.Name
		out.ins = &insertPlan{columns: s.Columns, rows: s.Rows, rowPos: s.RowPos}
	case *UpdateStmt:
		out.Kind = StmtUpdate
		out.Table = s.Table.Name
		out.upd = &updatePlan{set: s.Set, filter: s.Where}
	case *DeleteStmt:
		out.Kind = StmtDelete
		out.Table = s.Table.Name
		out.del = &deletePlan{filter: s.Where}
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
	return out, nil
}

func lowerSelect(s *SelectStmt) (*selectPlan, error) {
	plan := &selectPlan{
		filter:    s.Where,
		groupBy:   s.GroupBy,
		limitSlot: s.LimitSlot,
		star:      s.Star,
	}
	hasAgg := false
	for _, it := range s.Items {
		if it.Agg != "" {
			hasAgg = true
			break
		}
	}
	if len(s.GroupBy) > 0 && !hasAgg {
		ref := s.GroupBy[0]
		return nil, &ParseError{Pos: ref.Pos, Token: ref.Name,
			Msg: "GROUP BY requires at least one aggregate in the select list"}
	}
	if s.Star && hasAgg {
		return nil, &ParseError{Pos: s.Table.Pos, Token: s.Table.Name,
			Msg: "SELECT * cannot be combined with aggregates"}
	}
	switch {
	case hasAgg:
		// Aggregate query: the executor outputs group values then one value
		// per aggregate; plain select items must be group-by columns.
		for _, it := range s.Items {
			if it.Agg == "" {
				pos := groupIndex(s.GroupBy, it.Col.Name)
				if pos < 0 {
					return nil, &ParseError{Pos: it.Col.Pos, Token: it.Col.Name,
						Msg: fmt.Sprintf("column %q must appear in GROUP BY to be selected alongside aggregates", it.Col.Name)}
				}
				plan.aggOutMap = append(plan.aggOutMap, pos)
				continue
			}
			plan.aggOutMap = append(plan.aggOutMap, len(s.GroupBy)+len(plan.aggs))
			plan.aggs = append(plan.aggs, aggOut{fn: aggFuncByName[it.Agg], col: it.Col})
		}
		// ORDER BY on an aggregate query sorts the executor's group+agg rows,
		// so the key must be a grouping column.
		for _, o := range s.OrderBy {
			if groupIndex(s.GroupBy, o.Col.Name) < 0 {
				return nil, &ParseError{Pos: o.Col.Pos, Token: o.Col.Name,
					Msg: fmt.Sprintf("ORDER BY column %q is not a group-by column of the aggregate query", o.Col.Name)}
			}
		}
	case !s.Star:
		plan.projCols = make([]IdentRef, len(s.Items))
		for i, it := range s.Items {
			plan.projCols[i] = it.Col
		}
	}
	for _, o := range s.OrderBy {
		plan.order = append(plan.order, exec.SortKey{Name: o.Col.Name, Desc: o.Desc})
	}
	return plan, nil
}

func groupIndex(groups []IdentRef, name string) int {
	for i, g := range groups {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// BindValues assembles the full slot-value vector for one call: extracted
// literals fill their slots, caller arguments fill the `?` slots in order.
func BindValues(slots []Slot, userBinds int, args []types.Value) ([]types.Value, error) {
	if len(args) != userBinds {
		return nil, fmt.Errorf("sql: statement requires %d bind argument(s), got %d", userBinds, len(args))
	}
	vals := make([]types.Value, len(slots))
	for i, s := range slots {
		if s.IsLit {
			vals[i] = s.Lit
		} else {
			vals[i] = args[s.Arg]
		}
	}
	return vals, nil
}

// BoundSelect is an execution-ready SELECT: concrete values substituted,
// ready to hand to the fluent builder. References stay name-based — the
// executor resolves them against the same schema snapshot it scans.
type BoundSelect struct {
	Table   string
	Filter  exec.Node
	GroupBy []string
	Aggs    []exec.AggSpec
	Order   []exec.SortKey
	// Limit is the row cap, -1 for none.
	Limit int
	// Project maps executor output rows to the select list: for each output
	// column, the position in the executor's result row. Nil means the
	// executor rows are returned as-is (SELECT *).
	Project []int
}

// BindSelect instantiates the parameterized plan with concrete slot values
// against a schema. text is the original query (re-lexed only on error
// paths to attach positions to column errors).
func (s *Statement) BindSelect(text string, vals []types.Value, schema *types.Schema) (*BoundSelect, error) {
	if s.Kind != StmtSelect {
		return nil, fmt.Errorf("sql: %s statement is not a query (use Exec)", s.Kind)
	}
	p := s.sel
	b := &BoundSelect{Table: s.Table, Order: p.order, Limit: -1}
	var err error
	if b.Filter, err = buildFilter(p.filter, text, vals, schema); err != nil {
		return nil, err
	}
	for _, g := range p.groupBy {
		if schema.ColIndex(g.Name) < 0 {
			return nil, columnError(text, g.Name, exec.UnknownColumnError(g.Name, schema))
		}
		b.GroupBy = append(b.GroupBy, g.Name)
	}
	for _, a := range p.aggs {
		if a.col.Name == "" { // count(*)
			b.Aggs = append(b.Aggs, exec.AggSpec{Func: exec.Count, Col: -1})
			continue
		}
		ci := schema.ColIndex(a.col.Name)
		if ci < 0 {
			return nil, columnError(text, a.col.Name, exec.UnknownColumnError(a.col.Name, schema))
		}
		if (a.fn == exec.Sum || a.fn == exec.Avg) && schema.Columns[ci].Type == types.String {
			return nil, columnError(text, a.col.Name,
				fmt.Errorf("%s() requires a numeric column, %q is %s", a.fn, a.col.Name, schema.Columns[ci].Type))
		}
		b.Aggs = append(b.Aggs, exec.AggSpec{Func: a.fn, ColName: a.col.Name})
	}
	for _, k := range p.order {
		if schema.ColIndex(k.Name) < 0 {
			return nil, columnError(text, k.Name, exec.UnknownColumnError(k.Name, schema))
		}
	}
	switch {
	case p.aggOutMap != nil:
		b.Project = p.aggOutMap
	case p.projCols != nil:
		b.Project = make([]int, len(p.projCols))
		for i, c := range p.projCols {
			ci := schema.ColIndex(c.Name)
			if ci < 0 {
				return nil, columnError(text, c.Name, exec.UnknownColumnError(c.Name, schema))
			}
			b.Project[i] = ci
		}
	}
	if p.limitSlot >= 0 {
		v := vals[p.limitSlot]
		if v.Type != types.Int64 || v.IsNull || v.I < 0 {
			return nil, fmt.Errorf("sql: LIMIT requires a non-negative integer, got %s", v)
		}
		b.Limit = int(v.I)
	}
	return b, nil
}

// buildFilter instantiates the predicate template into a fresh name-based
// exec tree (fresh nodes per execution: adaptive per-node statistics must
// not be shared between runs), coercing bind values to the referenced
// column's type.
func buildFilter(e Expr, text string, vals []types.Value, schema *types.Schema) (exec.Node, error) {
	if e == nil {
		return nil, nil
	}
	switch x := e.(type) {
	case *CmpExpr:
		v, err := coerce(x.Col, text, vals[x.Slot], schema)
		if err != nil {
			return nil, err
		}
		return exec.NewNamedLeaf(x.Col.Name, x.Op, v), nil
	case *InExpr:
		vs := make([]types.Value, len(x.Slots))
		for i, s := range x.Slots {
			v, err := coerce(x.Col, text, vals[s], schema)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		return exec.NewNamedIn(x.Col.Name, vs), nil
	case *LogicalExpr:
		kids := make([]exec.Node, len(x.Args))
		for i, a := range x.Args {
			k, err := buildFilter(a, text, vals, schema)
			if err != nil {
				return nil, err
			}
			kids[i] = k
		}
		if x.Op == "and" {
			return exec.NewAnd(kids...), nil
		}
		return exec.NewOr(kids...), nil
	}
	return nil, fmt.Errorf("sql: unsupported predicate %T", e)
}

// coerce validates that v is usable against col's schema type, widening
// integer binds to float for DOUBLE columns (SQL numeric literals lex as
// integers when they have no decimal point).
func coerce(col IdentRef, text string, v types.Value, schema *types.Schema) (types.Value, error) {
	ci := schema.ColIndex(col.Name)
	if ci < 0 {
		return types.Value{}, columnError(text, col.Name, exec.UnknownColumnError(col.Name, schema))
	}
	want := schema.Columns[ci].Type
	if v.IsNull {
		return types.Null(want), nil
	}
	if v.Type == want {
		return v, nil
	}
	if want == types.Float64 && v.Type == types.Int64 {
		return types.NewFloat(float64(v.I)), nil
	}
	return types.Value{}, columnError(text, col.Name,
		fmt.Errorf("type mismatch: column %q is %s, got %s", col.Name, want, v.Type))
}

// BindInsert instantiates an INSERT's rows in schema column order.
func (s *Statement) BindInsert(text string, vals []types.Value, schema *types.Schema) ([]types.Row, error) {
	if s.Kind != StmtInsert {
		return nil, fmt.Errorf("sql: not an insert statement")
	}
	p := s.ins
	// perm[i] is the slot-tuple index feeding schema column i.
	perm := make([]int, len(schema.Columns))
	if p.columns == nil {
		if len(p.rows) > 0 && len(p.rows[0]) != len(schema.Columns) {
			return nil, fmt.Errorf("sql: INSERT row has %d values, table %q has %d columns",
				len(p.rows[0]), s.Table, len(schema.Columns))
		}
		for i := range perm {
			perm[i] = i
		}
	} else {
		for i := range perm {
			perm[i] = -1
		}
		for ti, c := range p.columns {
			ci := schema.ColIndex(c.Name)
			if ci < 0 {
				return nil, columnError(text, c.Name, exec.UnknownColumnError(c.Name, schema))
			}
			if perm[ci] != -1 {
				return nil, columnError(text, c.Name, fmt.Errorf("duplicate column %q in INSERT column list", c.Name))
			}
			perm[ci] = ti
		}
		for ci, ti := range perm {
			if ti < 0 {
				return nil, fmt.Errorf("sql: INSERT column list is missing column %q (every column must be supplied)",
					schema.Columns[ci].Name)
			}
		}
	}
	rows := make([]types.Row, len(p.rows))
	for ri, tuple := range p.rows {
		row := make(types.Row, len(schema.Columns))
		for ci := range schema.Columns {
			v := vals[tuple[perm[ci]]]
			cv, err := coerceType(v, schema.Columns[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("sql: INSERT row %d, column %q: %w", ri+1, schema.Columns[ci].Name, err)
			}
			row[ci] = cv
		}
		rows[ri] = row
	}
	return rows, nil
}

// coerceType widens v to the target column type without a column reference
// (INSERT/SET value positions).
func coerceType(v types.Value, want types.ColType) (types.Value, error) {
	if v.IsNull {
		return types.Null(want), nil
	}
	if v.Type == want {
		return v, nil
	}
	if want == types.Float64 && v.Type == types.Int64 {
		return types.NewFloat(float64(v.I)), nil
	}
	return types.Value{}, fmt.Errorf("type mismatch: column is %s, got %s", want, v.Type)
}

// BoundMutation is an execution-ready UPDATE or DELETE: the targeting
// Where (with an index hint when the predicate pins an equality) and, for
// UPDATE, the row transform.
type BoundMutation struct {
	Table string
	Where core.Where
	// Set rewrites a row for UPDATE; nil for DELETE.
	Set func(types.Row) types.Row
}

// BindUpdate instantiates an UPDATE against the schema.
func (s *Statement) BindUpdate(text string, vals []types.Value, schema *types.Schema) (*BoundMutation, error) {
	if s.Kind != StmtUpdate {
		return nil, fmt.Errorf("sql: not an update statement")
	}
	p := s.upd
	type assign struct {
		col int
		val types.Value
	}
	assigns := make([]assign, len(p.set))
	for i, sc := range p.set {
		ci := schema.ColIndex(sc.Col.Name)
		if ci < 0 {
			return nil, columnError(text, sc.Col.Name, exec.UnknownColumnError(sc.Col.Name, schema))
		}
		v, err := coerceType(vals[sc.Slot], schema.Columns[ci].Type)
		if err != nil {
			return nil, columnError(text, sc.Col.Name, err)
		}
		assigns[i] = assign{col: ci, val: v}
	}
	w, err := bindWhere(p.filter, text, vals, schema)
	if err != nil {
		return nil, err
	}
	set := func(r types.Row) types.Row {
		out := r.Clone()
		for _, a := range assigns {
			out[a.col] = a.val
		}
		return out
	}
	return &BoundMutation{Table: s.Table, Where: w, Set: set}, nil
}

// BindDelete instantiates a DELETE against the schema.
func (s *Statement) BindDelete(text string, vals []types.Value, schema *types.Schema) (*BoundMutation, error) {
	if s.Kind != StmtDelete {
		return nil, fmt.Errorf("sql: not a delete statement")
	}
	w, err := bindWhere(s.del.filter, text, vals, schema)
	if err != nil {
		return nil, err
	}
	return &BoundMutation{Table: s.Table, Where: w}, nil
}

// bindWhere lowers a predicate template onto core.Where: the full tree is
// resolved to ordinals and evaluated per candidate row, and every non-NULL
// pin of the tree (exec.Pins, the derivation reads use too) becomes one of
// its pins, which core places the write by: a point write when they fix
// the whole unique key, else a seek or a walk.
func bindWhere(e Expr, text string, vals []types.Value, schema *types.Schema) (core.Where, error) {
	if e == nil {
		return core.All(), nil
	}
	tree, err := buildFilter(e, text, vals, schema)
	if err != nil {
		return core.Where{}, err
	}
	resolved, err := exec.ResolveNames(tree, schema)
	if err != nil {
		return core.Where{}, err
	}
	w := core.Where{Pred: resolved.EvalRow}
	for _, p := range exec.Pins(resolved) {
		if !p.Val.IsNull {
			w.Pins = append(w.Pins, p)
		}
	}
	return w, nil
}
