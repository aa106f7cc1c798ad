package s2db

import (
	"context"
	"fmt"
	"sync"

	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// Filter is a predicate tree over table columns, evaluated adaptively per
// segment (§5.2).
type Filter = exec.Node

// colRef constrains the two ways a filter can reference a column: by
// schema ordinal, or by name resolved against the schema when the query
// executes. The name-based forms (EqName, InName, ...) are the preferred
// surface — they are what SQL text lowers onto — and the ordinal variants
// route through the same helpers for compatibility.
type colRef interface{ ~int | ~string }

// cmpFilter builds a comparison clause from either column reference form.
func cmpFilter[C colRef](col C, op vector.CmpOp, v Value) Filter {
	switch c := any(col).(type) {
	case int:
		return exec.NewLeaf(c, op, v)
	default:
		return exec.NewNamedLeaf(any(col).(string), op, v)
	}
}

// inFilter builds an IN-list clause from either column reference form.
func inFilter[C colRef](col C, vals []Value) Filter {
	switch c := any(col).(type) {
	case int:
		return exec.NewIn(c, vals)
	default:
		return exec.NewNamedIn(any(col).(string), vals)
	}
}

// Comparison filter constructors. Column ordinals follow the table schema;
// the *Name variants reference columns by name and resolve against the
// schema when the query executes.

// Eq matches col == v.
func Eq(col int, v Value) Filter { return cmpFilter(col, vector.Eq, v) }

// Ne matches col != v.
func Ne(col int, v Value) Filter { return cmpFilter(col, vector.Ne, v) }

// Lt matches col < v.
func Lt(col int, v Value) Filter { return cmpFilter(col, vector.Lt, v) }

// Le matches col <= v.
func Le(col int, v Value) Filter { return cmpFilter(col, vector.Le, v) }

// Gt matches col > v.
func Gt(col int, v Value) Filter { return cmpFilter(col, vector.Gt, v) }

// Ge matches col >= v.
func Ge(col int, v Value) Filter { return cmpFilter(col, vector.Ge, v) }

// In matches col ∈ vals.
func In(col int, vals ...Value) Filter { return inFilter(col, vals) }

// EqName matches the named column == v.
func EqName(col string, v Value) Filter { return cmpFilter(col, vector.Eq, v) }

// NeName matches the named column != v.
func NeName(col string, v Value) Filter { return cmpFilter(col, vector.Ne, v) }

// LtName matches the named column < v.
func LtName(col string, v Value) Filter { return cmpFilter(col, vector.Lt, v) }

// LeName matches the named column <= v.
func LeName(col string, v Value) Filter { return cmpFilter(col, vector.Le, v) }

// GtName matches the named column > v.
func GtName(col string, v Value) Filter { return cmpFilter(col, vector.Gt, v) }

// GeName matches the named column >= v.
func GeName(col string, v Value) Filter { return cmpFilter(col, vector.Ge, v) }

// InName matches the named column ∈ vals.
func InName(col string, vals ...Value) Filter { return inFilter(col, vals) }

// And conjoins filters; clause order is re-optimized at run time (§5.2).
func And(fs ...Filter) Filter { return exec.NewAnd(fs...) }

// Or disjoins filters.
func Or(fs ...Filter) Filter { return exec.NewOr(fs...) }

// Agg describes one aggregate output column.
type Agg = exec.AggSpec

// CountAll counts matching rows.
func CountAll() Agg { return Agg{Func: exec.Count, Col: -1} }

// SumCol sums a column.
func SumCol(col int) Agg { return Agg{Func: exec.Sum, Col: col} }

// MinCol takes a column minimum.
func MinCol(col int) Agg { return Agg{Func: exec.Min, Col: col} }

// MaxCol takes a column maximum.
func MaxCol(col int) Agg { return Agg{Func: exec.Max, Col: col} }

// AvgCol averages a column.
func AvgCol(col int) Agg { return Agg{Func: exec.Avg, Col: col} }

// SumName sums the named column.
func SumName(col string) Agg { return Agg{Func: exec.Sum, ColName: col} }

// MinName takes the named column's minimum.
func MinName(col string) Agg { return Agg{Func: exec.Min, ColName: col} }

// MaxName takes the named column's maximum.
func MaxName(col string) Agg { return Agg{Func: exec.Max, ColName: col} }

// AvgName averages the named column.
func AvgName(col string) Agg { return Agg{Func: exec.Avg, ColName: col} }

// SumExpr sums a computed expression per row.
func SumExpr(f func(Row) Value) Agg { return Agg{Func: exec.Sum, Expr: f} }

// OrderBy describes result ordering.
type OrderBy = exec.SortKey

// Asc orders ascending by the named column.
func Asc(col string) OrderBy { return OrderBy{Name: col} }

// Desc orders descending by the named column.
func Desc(col string) OrderBy { return OrderBy{Name: col, Desc: true} }

// groupKey is one GROUP BY column, by ordinal or (when name is non-empty)
// by name resolved at execution.
type groupKey struct {
	ord  int
	name string
}

// Query is a fluent analytic query over one table, started with DB.Table.
// (SQL text given to DB.Query lowers onto the same structure.) Execution
// fans one scan task per leaf partition onto a bounded worker pool and
// merges partial results in deterministic partition order — the way the
// aggregator nodes of §2 coordinate queries. Rows/Count run under
// context.Background(); RowsCtx/CountCtx accept a context whose
// cancellation aborts in-flight partition scans.
type Query struct {
	db          *DB
	table       string
	filter      Filter
	groups      []groupKey
	aggs        []Agg
	order       []OrderBy
	limit       int
	workspace   *cluster.Workspace
	parallelism int
	tenant      string

	mu    sync.Mutex
	stats exec.ScanStats
}

// Table starts a fluent builder query against a table. (DB.Query is the
// SQL-text entry point; both lower onto the same execution plans.)
func (db *DB) Table(table string) *Query {
	return &Query{db: db, table: table, limit: -1}
}

// OnWorkspace routes the query to a read-only workspace's compute (§3.2).
func (q *Query) OnWorkspace(w *Workspace) *Query {
	q.workspace = w.ws
	return q
}

// Where sets the filter tree.
func (q *Query) Where(f Filter) *Query { q.filter = f; return q }

// GroupBy appends grouping columns by ordinal.
func (q *Query) GroupBy(cols ...int) *Query {
	for _, c := range cols {
		q.groups = append(q.groups, groupKey{ord: c})
	}
	return q
}

// GroupByNames appends grouping columns by name (resolved at execution).
func (q *Query) GroupByNames(cols ...string) *Query {
	for _, c := range cols {
		q.groups = append(q.groups, groupKey{ord: -1, name: c})
	}
	return q
}

// Agg sets the aggregate outputs.
func (q *Query) Agg(aggs ...Agg) *Query { q.aggs = aggs; return q }

// OrderBy sets result ordering (applied after aggregation).
func (q *Query) OrderBy(keys ...OrderBy) *Query { q.order = keys; return q }

// Limit caps the result size.
func (q *Query) Limit(n int) *Query { q.limit = n; return q }

// Parallelism overrides the fan-out width for this query: n concurrent
// partition scans (1 = sequential, 0 = GOMAXPROCS).
func (q *Query) Parallelism(n int) *Query { q.parallelism = n; return q }

// AsTenant tags the query with the tenant its resource use is accounted
// to (admission against that tenant's TenantShares budgets). Untagged
// queries run as the workspace they target, or as PrimaryTenant.
// WithTenant is the context-carried equivalent for the SQL front door.
func (q *Query) AsTenant(tenant string) *Query { q.tenant = tenant; return q }

// effectiveTenant resolves the tenant a run is accounted to: the
// explicit AsTenant tag, else the context's WithTenant tag, else the
// targeted workspace's name, else the primary cluster's own workload.
func (q *Query) effectiveTenant(ctx context.Context) string {
	if q.tenant != "" {
		return q.tenant
	}
	if t, ok := TenantFromContext(ctx); ok {
		return t
	}
	if q.workspace != nil {
		return q.workspace.Name
	}
	return PrimaryTenant
}

// admission bundles the governor and resolved tenant for the exec
// fan-out.
func (q *Query) admission(ctx context.Context) exec.Admission {
	return exec.Admission{Gov: q.db.gov, Tenant: q.effectiveTenant(ctx)}
}

// views snapshots the leaf partitions the query fans out to: every
// partition of the primary cluster, or of the workspace when routed there
// — only the owning partition when the filter pins every shard column.
func (q *Query) views(pins []types.Pin) ([]*core.View, error) {
	if q.workspace != nil {
		return q.workspace.PinnedViews(q.table, pins)
	}
	return q.db.cluster.PinnedViews(q.table, pins)
}

// resolvedQuery is the execution-ready form: names resolved to ordinals,
// partitions snapshotted, parallelism decided.
type resolvedQuery struct {
	views       []*core.View
	schema      *types.Schema
	filter      exec.Node
	groupCols   []int
	aggs        []exec.AggSpec
	order       []exec.SortKey
	parallelism int
	earlyLimit  int
}

// resolve resolves every name-based reference (filters, aggregates, group
// and order columns) against the table schema, returning a clear error for
// unknown columns, and snapshots the partition views the filter can match.
// The caller releases the views when the statement ends; a statement
// queued in admission keeps them registered, so a long queue delays
// compaction instead of corrupting the read.
func (q *Query) resolve() (*resolvedQuery, error) {
	schema, err := q.db.cluster.Schema(q.table)
	if err != nil {
		return nil, err
	}
	r := &resolvedQuery{
		schema:      schema,
		parallelism: exec.DefaultParallelism(q.parallelism),
		earlyLimit:  -1,
	}
	if r.filter, err = exec.ResolveNames(q.filter, schema); err != nil {
		return nil, err
	}
	r.groupCols = make([]int, len(q.groups))
	for i, g := range q.groups {
		if g.name != "" {
			col := schema.ColIndex(g.name)
			if col < 0 {
				return nil, exec.UnknownColumnError(g.name, schema)
			}
			r.groupCols[i] = col
			continue
		}
		if g.ord < 0 || g.ord >= len(schema.Columns) {
			return nil, fmt.Errorf("s2db: group-by ordinal %d out of range [0,%d)", g.ord, len(schema.Columns))
		}
		r.groupCols[i] = g.ord
	}
	if r.aggs, err = exec.ResolveAggSpecs(q.aggs, schema); err != nil {
		return nil, err
	}
	if r.order, err = q.resolveOrder(schema, r.groupCols); err != nil {
		return nil, err
	}
	// Early termination applies only when no ordering or grouping can pull
	// rows from later partitions into the first Limit results.
	if q.limit >= 0 && len(r.order) == 0 && len(r.aggs) == 0 && len(r.groupCols) == 0 {
		r.earlyLimit = q.limit
	}
	// Snapshot last, once nothing can fail: the caller releases the views.
	if r.views, err = q.views(exec.Pins(r.filter)); err != nil {
		return nil, err
	}
	return r, nil
}

// resolveOrder maps name-based sort keys to result-row ordinals: schema
// ordinals for plain row queries, group-by output positions for aggregate
// queries.
func (q *Query) resolveOrder(schema *types.Schema, groupCols []int) ([]exec.SortKey, error) {
	out := make([]exec.SortKey, len(q.order))
	for i, k := range q.order {
		if k.Name == "" {
			out[i] = k
			continue
		}
		col := schema.ColIndex(k.Name)
		if col < 0 {
			return nil, exec.UnknownColumnError(k.Name, schema)
		}
		if len(q.aggs) == 0 {
			out[i] = exec.SortKey{Col: col, Desc: k.Desc}
			continue
		}
		pos := -1
		for gi, gc := range groupCols {
			if gc == col {
				pos = gi
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("s2db: ORDER BY column %q is not a group-by column of the aggregate query", k.Name)
		}
		out[i] = exec.SortKey{Col: pos, Desc: k.Desc}
	}
	return out, nil
}

// RowsCtx executes the query under ctx. Without aggregates it returns
// matching rows; with aggregates it returns one row per group (group
// values first, then aggregate values). Partition scans run concurrently;
// cancelling ctx aborts them and returns the context's error.
func (q *Query) RowsCtx(ctx context.Context) ([]Row, error) {
	r, err := q.resolve()
	if err != nil {
		return nil, err
	}
	defer core.ReleaseAll(r.views)
	var stats exec.ScanStats
	var out []Row
	adm := q.admission(ctx)
	if len(r.aggs) == 0 {
		out, err = exec.CollectRowsAdmitted(ctx, r.views, r.filter, r.earlyLimit, r.parallelism, &stats, adm)
	} else {
		out, err = exec.AggregateViewsAdmitted(ctx, r.views, r.filter, r.groupCols, r.aggs, r.parallelism, &stats, adm)
	}
	if err != nil {
		return nil, err
	}
	if len(r.order) > 0 {
		exec.SortRows(out, r.order)
	}
	if q.limit >= 0 {
		out = exec.Limit(out, q.limit)
	}
	q.setStats(stats)
	return out, nil
}

// Rows executes the query under context.Background().
func (q *Query) Rows() ([]Row, error) { return q.RowsCtx(context.Background()) }

// CountCtx executes the query as a row count under ctx, fanning the count
// out across partitions.
func (q *Query) CountCtx(ctx context.Context) (int64, error) {
	r, err := q.resolve()
	if err != nil {
		return 0, err
	}
	defer core.ReleaseAll(r.views)
	var stats exec.ScanStats
	n, err := exec.CountViewsAdmitted(ctx, r.views, r.filter, r.parallelism, &stats, q.admission(ctx))
	if err != nil {
		return 0, err
	}
	q.setStats(stats)
	return n, nil
}

// Count executes the query as a row count under context.Background().
func (q *Query) Count() (int64, error) { return q.CountCtx(context.Background()) }

// setStats replaces the last-run counters: stats are per-run (not
// accumulated across repeated executions) and written only after the
// worker pool has joined, so reads never race with a run.
func (q *Query) setStats(s exec.ScanStats) {
	q.mu.Lock()
	q.stats = s
	q.mu.Unlock()
}

// Stats returns the adaptive-execution counters of the last completed run.
func (q *Query) Stats() exec.ScanStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}
