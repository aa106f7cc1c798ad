package s2db

import (
	"context"
	"fmt"
	"strings"
	"time"

	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// Plan is a structured summary of how a query will execute: the leaf
// views it fans out to, the worker-pool width, and the resolved predicate
// and output shape. Strategies carries the per-segment filter-strategy
// counters of the last completed run (zero until the query has executed),
// replacing ad-hoc inspection of Stats().
type Plan struct {
	// Table is the queried table.
	Table string
	// Statement classifies the statement for SQL-text plans ("select",
	// "insert", ...); empty for builder-API plans.
	Statement string
	// SQL is the normalized query template — literals stripped to binds,
	// case and whitespace canonicalized — that keys the plan cache. Empty
	// for builder-API plans.
	SQL string
	// PlanCacheHit reports whether this statement's preparation reused a
	// cached plan (skipping lex/parse/lower). Always false when the plan
	// cache is disabled (Config.PlanCacheEntries == 0).
	PlanCacheHit bool
	// PlanCache snapshots the shared plan cache's cumulative counters at
	// explain time; all zero when the cache is disabled.
	PlanCache PlanCacheStats
	// Workspace names the read-only workspace serving the query; empty
	// means the primary cluster.
	Workspace string
	// CachePartition names the decoded-vector cache partition the scan
	// resolves against ("primary", a workspace name, or empty when the
	// cache is disabled).
	CachePartition string
	// Partitions is the number of leaf views the query fans out to: 1 when
	// the filter pins every shard column, since no other partition can
	// hold a match.
	Partitions int
	// Parallelism is the worker-pool bound for concurrent partition scans.
	Parallelism int
	// Filter is the resolved predicate tree rendered with column names;
	// empty means a full scan.
	Filter string
	// KeySeek renders the key each partition's write buffer seeks instead
	// of walking it: the unique-key prefix the filter pins ("id = 42"), or
	// a whole secondary key it pins ("customer = 7"). Empty when the
	// buffer is walked.
	KeySeek string
	// SeekIndex names what KeySeek seeks: "unique-key range" or
	// "secondary index". Empty when the buffer is walked.
	SeekIndex string
	// GroupBy lists the grouping columns by name.
	GroupBy []string
	// Aggregates lists the aggregate outputs (e.g. "sum(amount)").
	Aggregates []string
	// OrderBy lists the sort keys (e.g. "region desc").
	OrderBy []string
	// Limit is the result cap, or -1 for none.
	Limit int
	// EarlyLimit reports whether partition scans terminate early once the
	// limit is satisfied (possible only without grouping or ordering).
	EarlyLimit bool
	// Strategies snapshots the adaptive per-segment execution counters of
	// the last completed run: which segments were skipped via index/zone
	// maps and which filter strategy (index, encoded, regular, group) each
	// surviving segment chose (§5.1, §5.2).
	Strategies exec.ScanStats
	// Tenant is the QoS tenant the query's resource use bills to: the
	// AsTenant tag, the context tenant, the workspace name, or the
	// primary tenant, in that order.
	Tenant string
	// QoS snapshots the billed tenant's governor accounting at explain
	// time (budgets, tokens spent, waits, sheds per resource class). Nil
	// when QoS is disabled.
	QoS *QoSTenantStats
}

// Explain resolves the query — snapshotting targets and binding every
// name-based reference — and returns its execution plan without running
// it. Resolution errors (unknown columns, out-of-range ordinals) surface
// here exactly as they would at execution.
func (q *Query) Explain() (Plan, error) {
	r, err := q.resolve()
	if err != nil {
		return Plan{}, err
	}
	defer core.ReleaseAll(r.views)
	p := Plan{
		Table:       q.table,
		Partitions:  len(r.views),
		Parallelism: r.parallelism,
		Filter:      exec.FormatNode(r.filter, r.schema),
		Limit:       q.limit,
		EarlyLimit:  r.earlyLimit >= 0,
		Strategies:  q.Stats(),
	}
	p.KeySeek, p.SeekIndex = keySeek(r.schema, r.filter)
	if q.workspace != nil {
		p.Workspace = q.workspace.Name
	}
	p.Tenant = q.effectiveTenant(context.Background())
	if ts, ok := q.db.gov.TenantStatsFor(p.Tenant); ok {
		p.QoS = &ts
	}
	// Report the cache partition the leaf views actually carry, rather than
	// inferring it from routing: a disabled cache has no partition.
	if len(r.views) > 0 {
		if c, ok := r.views[0].DecodedCache().(*exec.VecCache); ok {
			p.CachePartition = c.PartitionName()
		}
	}
	for _, c := range r.groupCols {
		p.GroupBy = append(p.GroupBy, r.schema.Columns[c].Name)
	}
	for _, a := range r.aggs {
		p.Aggregates = append(p.Aggregates, exec.FormatAgg(a, r.schema))
	}
	for _, k := range r.order {
		name := fmt.Sprintf("col%d", k.Col)
		if len(r.aggs) == 0 {
			name = r.schema.Columns[k.Col].Name
		} else if k.Col < len(r.groupCols) {
			name = r.schema.Columns[r.groupCols[k.Col]].Name
		}
		if k.Desc {
			name += " desc"
		}
		p.OrderBy = append(p.OrderBy, name)
	}
	return p, nil
}

// keySeek renders the key the write buffer seeks for filter and names the
// index it seeks, or returns "" twice when the buffer is walked.
func keySeek(schema *types.Schema, filter exec.Node) (seek, index string) {
	p := schema.Place(exec.Pins(filter))
	cols, vals, index := schema.UniqueKey, p.Key, "unique-key range"
	if len(p.Secondary) > 0 {
		cols, vals, index = schema.SecondaryKeys[p.Index], p.Secondary, "secondary index"
	}
	if len(vals) == 0 {
		return "", ""
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = exec.FormatNode(exec.NewLeaf(cols[i], vector.Eq, v), schema)
	}
	return strings.Join(parts, " AND "), index
}

// String renders the plan for humans, one clause per line.
func (p Plan) String() string {
	var b strings.Builder
	if p.SQL != "" {
		outcome := "miss"
		if p.PlanCacheHit {
			outcome = "hit"
		}
		if p.PlanCache == (PlanCacheStats{}) {
			outcome = "off"
		}
		fmt.Fprintf(&b, "sql: %s\n", p.SQL)
		fmt.Fprintf(&b, "  plan cache: %s (%d hits / %d misses cumulative, %d templates cached)\n",
			outcome, p.PlanCache.Hits, p.PlanCache.Misses, p.PlanCache.Entries)
		if p.Statement != "" && p.Statement != "select" {
			fmt.Fprintf(&b, "  %s %s\n", p.Statement, p.Table)
			return b.String()
		}
	}
	fmt.Fprintf(&b, "scan %s", p.Table)
	if p.Workspace != "" {
		fmt.Fprintf(&b, " on workspace %s", p.Workspace)
	}
	fmt.Fprintf(&b, " across %d partition(s), parallelism %d\n", p.Partitions, p.Parallelism)
	if p.QoS != nil {
		w, m := p.QoS.Workers, p.QoS.ScanMem
		fmt.Fprintf(&b, "  qos [%s]: workers %d/%d in use (%d waits, %d sheds); scan mem %d/%d bytes (%d waits, %d sheds)\n",
			p.Tenant, w.InUse, w.Budget, w.Waits, w.Sheds, m.InUse, m.Budget, m.Waits, m.Sheds)
	} else if p.Tenant != "" {
		fmt.Fprintf(&b, "  qos: off (tenant %s ungoverned)\n", p.Tenant)
	}
	if p.Filter != "" {
		fmt.Fprintf(&b, "  where   %s\n", p.Filter)
	}
	if p.KeySeek != "" {
		fmt.Fprintf(&b, "  seek    %s (%s of the write buffer)\n", p.KeySeek, p.SeekIndex)
	}
	if len(p.GroupBy) > 0 {
		fmt.Fprintf(&b, "  group   %s\n", strings.Join(p.GroupBy, ", "))
	}
	if len(p.Aggregates) > 0 {
		fmt.Fprintf(&b, "  agg     %s\n", strings.Join(p.Aggregates, ", "))
	}
	if len(p.OrderBy) > 0 {
		fmt.Fprintf(&b, "  order   %s\n", strings.Join(p.OrderBy, ", "))
	}
	if p.Limit >= 0 {
		fmt.Fprintf(&b, "  limit   %d", p.Limit)
		if p.EarlyLimit {
			b.WriteString(" (early termination)")
		}
		b.WriteString("\n")
	}
	s := p.Strategies
	if s.SegmentsScanned+s.SegmentsSkipped > 0 {
		fmt.Fprintf(&b, "  last run: %d/%d segments scanned (%d skipped); filters: %d index, %d encoded, %d regular, %d group; %d/%d rows\n",
			s.SegmentsScanned, s.SegmentsScanned+s.SegmentsSkipped, s.SegmentsSkipped,
			s.IndexFilters, s.EncodedFilters, s.RegularFilters, s.GroupFilters,
			s.RowsOutput, s.RowsScanned)
	}
	if s.BufferImageRows+s.BufferImageBuilds > 0 {
		fmt.Fprintf(&b, "  buffer (last run): %d rows from the columnar image (%d built), %d rows visited row by row\n",
			s.BufferImageRows, s.BufferImageBuilds, s.BufferRowsScanned)
	} else if s.BufferRowsScanned > 0 {
		fmt.Fprintf(&b, "  buffer (last run): %d rows visited\n", s.BufferRowsScanned)
	}
	if s.EncodedFilterSegs+s.FusedAggSegs+s.RowsMaterialized > 0 {
		fmt.Fprintf(&b, "  fused: %d span-filtered segs, %d fused-agg segs; %d rows materialized\n",
			s.EncodedFilterSegs, s.FusedAggSegs, s.RowsMaterialized)
	}
	if s.VecCacheHits+s.VecCacheMisses+s.VecCacheWaits+s.VecDecodes > 0 {
		part := p.CachePartition
		if part == "" {
			part = "(none)"
		}
		fmt.Fprintf(&b, "  vector cache [%s]: %d hits, %d misses, %d waits, %d evictions; %d column decodes\n",
			part, s.VecCacheHits, s.VecCacheMisses, s.VecCacheWaits, s.VecCacheEvictions, s.VecDecodes)
	}
	if s.PlanCacheHits+s.PlanCacheMisses > 0 {
		fmt.Fprintf(&b, "  plan cache (last run): %d hit, %d miss\n", s.PlanCacheHits, s.PlanCacheMisses)
	}
	if s.HydrationWaits+s.HydratedSegs > 0 {
		fmt.Fprintf(&b, "  hydration: %d cold-segment waits, %d segments hydrated on demand\n",
			s.HydrationWaits, s.HydratedSegs)
	}
	if s.QoSWaits > 0 {
		fmt.Fprintf(&b, "  qos (last run): %d admission waits, %v queued\n",
			s.QoSWaits, time.Duration(s.QoSWaitNanos))
	}
	return b.String()
}
