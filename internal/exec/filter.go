// Package exec implements adaptive query execution over unified table
// storage (§5): segment skipping through the global secondary indexes and
// zone maps (§5.1), four filter-evaluation strategies chosen by per-segment
// micro-costing (§5.2), dynamic clause reordering by (1-P)/cost, and the
// join index filter with hash-join fallback (§5.1).
//
// A segment selection has one representation, []Span (kernel.go), and the
// §5.2 ladder exists once: every Node filters candidate spans to surviving
// spans through EvalSpans. This file holds the filter tree, its adaptive
// statistics and the composite nodes (And with the group filter, Or);
// kernel.go holds the per-clause strategies and the aggregation kernels.
package exec

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"s2db/internal/colstore"
	"s2db/internal/index"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// Node is a filter-condition tree node (§5.2: "S2DB represents the filter
// condition as a tree and reorders each intermediate AND/OR node ...
// separately").
type Node interface {
	// EvalSpans filters the candidate spans of a segment. in is read-only
	// and not retained; survivors are appended to out as sorted, disjoint,
	// coalesced spans; out never aliases in; a node that needs scratch
	// takes it from spanPool.
	EvalSpans(ctx *SegContext, in, out []Span) []Span
	// EvalRow evaluates the condition on a materialized row (buffer rows).
	EvalRow(r types.Row) bool
	// stats returns the node's adaptive statistics record.
	stats() *nodeStats
}

// nodeStats accumulates observed selectivity and per-row cost across blocks
// ("the ordering decision is made per-block using the selectivities from
// previous blocks", §5.2).
type nodeStats struct {
	rowsIn, rowsOut int64
	nanos           int64
}

func (s *nodeStats) record(in, out int, d time.Duration) {
	s.rowsIn += int64(in)
	s.rowsOut += int64(out)
	s.nanos += d.Nanoseconds()
}

// selectivity returns the observed pass rate P(X), defaulting to 0.5.
func (s *nodeStats) selectivity() float64 {
	if s.rowsIn == 0 {
		return 0.5
	}
	return float64(s.rowsOut) / float64(s.rowsIn)
}

// costPerRow returns observed nanoseconds per input row, defaulting to 1.
func (s *nodeStats) costPerRow() float64 {
	if s.rowsIn == 0 {
		return 1
	}
	c := float64(s.nanos) / float64(s.rowsIn)
	if c <= 0 {
		return 0.01
	}
	return c
}

// rank is the §5.2 ordering key (1 - P(X)) / cost(X); higher runs first.
func (s *nodeStats) rank() float64 { return (1 - s.selectivity()) / s.costPerRow() }

// SegContext carries per-segment execution state: the segment, its deleted
// bits, the table's index set, decode scratch caches and strategy counters.
type SegContext struct {
	Meta *colstore.Meta
	Idx  *index.Set
	// Stats is optional; when set, strategy decisions are counted.
	Stats *ScanStats
	// Cache, when non-nil, is the process-wide decoded-vector cache shared
	// across queries and fan-out workers; nil falls back to private
	// per-segment decodes (the pre-cache behaviour).
	Cache *VecCache
	// image is set on the write buffer's columnar image, to the image's
	// own decoded-column store (core.BufferImage.Vectors); the
	// per-segment counters (EncodedFilterSegs, FusedAggSegs) leave the
	// image out.
	image *sync.Map

	// Decoded vectors by column, one table per Go type, each made on the
	// first decode of its type (segVec).
	ints   [][]int64
	floats [][]float64
	strs   [][]string
	// rowBufs tracks pooled row buffers handed out by Materializer so the
	// scan can recycle them once the segment's callback returns.
	rowBufs []*types.Row
}

// NewSegContext prepares execution state for one segment.
func NewSegContext(meta *colstore.Meta, idx *index.Set, stats *ScanStats) *SegContext {
	return &SegContext{Meta: meta, Idx: idx, Stats: stats}
}

// releaseBuffers recycles the pooled row buffers handed out by
// Materializer. Callers must not touch previously emitted rows afterwards
// (the standard iterator contract already requires cloning retained rows).
func (c *SegContext) releaseBuffers() {
	for _, p := range c.rowBufs {
		putRow(p)
	}
	c.rowBufs = nil
}

// Materializer returns a row builder for this segment. When cols is
// non-nil only those ordinals are populated (projection pushdown); dense
// selections decode each needed column once and read from the decoded
// slices (vectorized late materialization, §2.1.2), sparse ones seek.
// The returned row is REUSED across calls: callers that retain it must
// Clone it first (the standard iterator contract; Scan.Run documents it).
func (c *SegContext) Materializer(cols []int, dense bool) func(i int) types.Row {
	ncols := len(c.Meta.Seg.Schema().Columns)
	if cols == nil {
		cols = make([]int, ncols)
		for i := range cols {
			cols[i] = i
		}
	}
	bufp := getRow(ncols)
	c.rowBufs = append(c.rowBufs, bufp)
	buf := *bufp
	stats := c.Stats
	seg := c.Meta.Seg
	if !dense {
		// A few rows: seeking each value costs less than setting up readers.
		return func(i int) types.Row {
			if stats != nil {
				stats.RowsMaterialized++
			}
			for _, col := range cols {
				buf[col] = seg.ValueAt(i, col)
			}
			return buf
		}
	}
	// One decoded column reader per projected column, used through a
	// switch on its type per value: a generic boxing closure per column
	// measured ~4x slower on materialization-heavy scans (an indirect call
	// and a boxed return per value), so this loop is the one that stays
	// typed.
	type acc struct {
		col    int
		t      types.ColType
		ints   colReader[int64]
		floats colReader[float64]
		strs   colReader[string]
	}
	accs := make([]acc, len(cols))
	for j, col := range cols {
		a := acc{col: col, t: seg.Schema().Columns[col].Type}
		switch a.t {
		case types.Int64:
			a.ints = readCol[int64](c, col, true)
		case types.Float64:
			a.floats = readCol[float64](c, col, true)
		default:
			a.strs = readCol[string](c, col, true)
		}
		accs[j] = a
	}
	return func(i int) types.Row {
		if stats != nil {
			stats.RowsMaterialized++
		}
		r := int32(i)
		for k := range accs {
			a := &accs[k]
			switch {
			case a.t == types.Int64 && !a.ints.null(r):
				buf[a.col] = types.Value{Type: types.Int64, I: a.ints.at(r)}
			case a.t == types.Float64 && !a.floats.null(r):
				buf[a.col] = types.Value{Type: types.Float64, F: a.floats.at(r)}
			case a.t == types.String && !a.strs.null(r):
				buf[a.col] = types.Value{Type: types.String, S: a.strs.at(r)}
			default:
				buf[a.col] = types.Null(a.t)
			}
		}
		return buf
	}
}

// ScanStats counts adaptive-execution decisions for the experiments.
type ScanStats struct {
	SegmentsScanned    int64
	SegmentsSkipped    int64
	IndexFilters       int64
	EncodedFilters     int64
	RegularFilters     int64
	GroupFilters       int64
	RowsScanned        int64
	RowsOutput         int64
	GlobalIndexProbes  int64
	JoinIndexFilters   int64
	JoinIndexFallbacks int64
	// BufferRowsScanned counts the write-buffer rows the scan read through
	// the row path: all of them on a walk, only the pinned key range on a
	// seek, only the delta on a read of the buffer's columnar image.
	BufferRowsScanned int64
	// BufferImageRows counts the rows a full scan covered with the buffer's
	// columnar image: its live rows, the mask excluded, whether zone maps
	// eliminated it or not, so that with BufferRowsScanned they add up to
	// the rows a walk would visit. BufferImageBuilds counts the images the
	// scan built.
	BufferImageRows   int64
	BufferImageBuilds int64

	// Decoded-vector cache counters for this scan: hits served without
	// decode work, misses this scan decoded itself, waits that joined
	// another worker's in-flight decode (single-flight), and evictions this
	// scan's inserts triggered. VecDecodes counts the DecodeAll calls the
	// scan actually performed — zero on a fully warm cache.
	VecCacheHits      int64
	VecCacheMisses    int64
	VecCacheWaits     int64
	VecCacheEvictions int64
	VecDecodes        int64
	// PlanCacheHits/PlanCacheMisses record the SQL plan-cache outcome of
	// the run (set only when the query arrived as SQL text): a hit reused
	// a cached lowered plan and skipped lex/parse/lower, a miss compiled
	// the statement from scratch. Zero for builder-API queries.
	PlanCacheHits   int64
	PlanCacheMisses int64

	// Fused-kernel counters. EncodedFilterSegs counts segments whose whole
	// filter tree evaluated in span space (selections carried as coalesced
	// runs, never flattened to per-row vectors); FusedAggSegs counts
	// segments folded by a single-pass fused aggregation kernel instead of
	// the materialize-then-add path; RowsMaterialized counts rows actually
	// built into types.Row — the late-materialization budget a fused query
	// avoids spending.
	EncodedFilterSegs int64
	FusedAggSegs      int64
	RowsMaterialized  int64

	// Lazy-hydration counters. HydrationWaits counts demand waits this
	// scan issued on cold (not-yet-hydrated) segments; HydratedSegs counts
	// the segments those waits brought in. Both zero on warm tables.
	HydrationWaits int64
	HydratedSegs   int64

	// QoS admission counters. QoSWaits counts admission acquires (worker
	// slots, scan memory) this run that had to queue on the tenant's
	// token buckets; QoSWaitNanos is their cumulative queue time. Both
	// zero when the run was never throttled or QoS is disabled.
	QoSWaits     int64
	QoSWaitNanos int64
}

// Leaf is a comparison clause: col op val (with optional IN-list).
type Leaf struct {
	Col int
	Op  vector.CmpOp
	Val types.Value
	// In, when non-empty, makes the clause an IN-list (Op ignored).
	In []types.Value

	st nodeStats
	// forceStrategy pins a strategy for the ablation benchmarks: 0 = auto.
	forceStrategy leafStrategy
}

type leafStrategy uint8

const (
	autoStrategy leafStrategy = iota
	regularStrategy
	encodedStrategy
	indexStrategy
)

// NewLeaf returns a comparison clause.
func NewLeaf(col int, op vector.CmpOp, val types.Value) *Leaf {
	return &Leaf{Col: col, Op: op, Val: val}
}

// NewIn returns an IN-list clause.
func NewIn(col int, vals []types.Value) *Leaf { return &Leaf{Col: col, In: vals} }

// ForceRegular pins the clause to the regular (decode-then-filter)
// strategy; used by the ablation benchmarks.
func (l *Leaf) ForceRegular() *Leaf { l.forceStrategy = regularStrategy; return l }

// ForceEncoded pins the clause to encoded execution when possible.
func (l *Leaf) ForceEncoded() *Leaf { l.forceStrategy = encodedStrategy; return l }

func (l *Leaf) stats() *nodeStats { return &l.st }

// EvalRow implements Node.
func (l *Leaf) EvalRow(r types.Row) bool {
	if len(l.In) > 0 {
		// A NULL is in no list and a NULL member equals nothing: membership
		// is vector.CmpValue's equality, the rule the kernels apply.
		for _, v := range l.In {
			if vector.CmpValue(r[l.Col], vector.Eq, v) {
				return true
			}
		}
		return false
	}
	return vector.CmpValue(r[l.Col], l.Op, l.Val)
}

// And is a conjunction node. It adaptively orders its children by
// (1-P)/cost and may switch to a group filter (decode all filtered columns,
// evaluate the whole conjunction row-wise) when clauses are non-selective
// (§5.2).
type And struct {
	Children []Node
	st       nodeStats
	// DisableReorder pins left-to-right evaluation for the ablation bench.
	DisableReorder bool
	// DisableGroup disables the group-filter strategy.
	DisableGroup bool
}

// NewAnd builds a conjunction.
func NewAnd(children ...Node) *And { return &And{Children: children} }

func (a *And) stats() *nodeStats { return &a.st }

// EvalRow implements Node.
func (a *And) EvalRow(r types.Row) bool {
	for _, c := range a.Children {
		if !c.EvalRow(r) {
			return false
		}
	}
	return true
}

// EvalSpans implements Node: children run in (1-P)/cost rank order and each
// narrows the surviving spans, ping-ponging between two pooled buffers so
// the caller's in is only ever read.
func (a *And) EvalSpans(ctx *SegContext, in, out []Span) []Span {
	start := time.Now()
	n, before := spanRows(in), spanRows(out)

	// Group-filter check: when most rows pass each clause, evaluating the
	// whole conjunction per row beats producing intermediate selections.
	if !a.DisableGroup && a.groupProfitable() {
		if ctx.Stats != nil {
			ctx.Stats.GroupFilters++
		}
		out = a.evalGroup(ctx, in, out)
		a.st.record(n, spanRows(out)-before, time.Since(start))
		return out
	}

	order := make([]Node, len(a.Children))
	copy(order, a.Children)
	if !a.DisableReorder {
		// Sort descending by (1 - P) / cost: cheap, selective clauses run
		// first (§5.2).
		sort.SliceStable(order, func(i, j int) bool {
			return order[i].stats().rank() > order[j].stats().rank()
		})
	}

	cur := in
	res, spare := getSpans(), getSpans()
	defer putSpans(res)
	defer putSpans(spare)
	for _, c := range order {
		if len(cur) == 0 {
			break
		}
		*res = c.EvalSpans(ctx, cur, (*res)[:0])
		cur = *res
		res, spare = spare, res
	}
	out = append(out, cur...)
	a.st.record(n, spanRows(out)-before, time.Since(start))
	return out
}

// groupProfitable estimates whether a group filter beats clause-at-a-time:
// profitable when every clause passes most rows (selection vectors barely
// shrink, so their maintenance is overhead).
func (a *And) groupProfitable() bool {
	if len(a.Children) < 2 {
		return false
	}
	for _, c := range a.Children {
		st := c.stats()
		if st.rowsIn == 0 || st.selectivity() < 0.75 {
			return false
		}
		if _, isLeaf := c.(*Leaf); !isLeaf {
			return false
		}
	}
	return true
}

// evalGroup is the §5.2 group filter: the whole conjunction is evaluated per
// candidate row, with no intermediate selections. Each clause is bound to
// its column once per segment, by the regular filter's rule for reaching
// values: candidates covering at least half the segment decode the column
// once (through the vector cache), fewer seek per row. groupProfitable
// guarantees all children are leaves.
func (a *And) evalGroup(ctx *SegContext, in, out []Span) []Span {
	dense := spanRows(in)*2 >= ctx.Meta.Seg.NumRows
	clauses := make([]rowTest, len(a.Children))
	for k, c := range a.Children {
		clauses[k] = c.(*Leaf).bindRowTest(ctx, dense)
	}
	for _, sp := range in {
	row:
		for i := sp.Start; i < sp.End; i++ {
			for _, c := range clauses {
				if !c.pass(i) {
					continue row
				}
			}
			out = appendSpan(out, i, i+1)
		}
	}
	return out
}

// Or is a disjunction node, reordered by the ratio of rows *not* selected
// per cost (§5.2).
type Or struct {
	Children []Node
	st       nodeStats
}

// NewOr builds a disjunction.
func NewOr(children ...Node) *Or { return &Or{Children: children} }

func (o *Or) stats() *nodeStats { return &o.st }

// EvalRow implements Node.
func (o *Or) EvalRow(r types.Row) bool {
	for _, c := range o.Children {
		if c.EvalRow(r) {
			return true
		}
	}
	return false
}

// EvalSpans implements Node: each child sees only the rows no earlier child
// accepted, so a row is returned once however many branches match it. The
// branches' results are disjoint; sorting them by start and coalescing
// restores the span invariant.
func (o *Or) EvalSpans(ctx *SegContext, in, out []Span) []Span {
	start := time.Now()
	n, before := spanRows(in), spanRows(out)
	order := make([]Node, len(o.Children))
	copy(order, o.Children)
	// For OR, a child that *accepts* many rows cheaply should run first:
	// rank by P/cost (tracking "the ratio of rows not selected ... instead
	// of the selected rows", §5.2).
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := order[i].stats(), order[j].stats()
		return si.selectivity()/si.costPerRow() > sj.selectivity()/sj.costPerRow()
	})
	matched, res := getSpans(), getSpans()
	rest, spare := getSpans(), getSpans()
	defer putSpans(matched)
	defer putSpans(res)
	defer putSpans(rest)
	defer putSpans(spare)
	remaining := in
	for _, c := range order {
		if len(remaining) == 0 {
			break
		}
		*res = c.EvalSpans(ctx, remaining, (*res)[:0])
		*matched = append(*matched, *res...)
		*rest = subtractSpans(remaining, *res, (*rest)[:0])
		remaining = *rest
		rest, spare = spare, rest
	}
	slices.SortFunc(*matched, func(x, y Span) int { return cmp.Compare(x.Start, y.Start) })
	for _, sp := range *matched {
		out = appendSpan(out, sp.Start, sp.End)
	}
	o.st.record(n, spanRows(out)-before, time.Since(start))
	return out
}
