// Package exec implements adaptive query execution over unified table
// storage (§5): segment skipping through the global secondary indexes and
// zone maps (§5.1), four filter-evaluation strategies chosen by per-segment
// micro-costing (§5.2), dynamic clause reordering by (1-P)/cost, and the
// join index filter with hash-join fallback (§5.1).
package exec

import (
	"math"
	"sort"
	"time"

	"s2db/internal/bitmap"
	"s2db/internal/codec"
	"s2db/internal/colstore"
	"s2db/internal/index"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// Node is a filter-condition tree node (§5.2: "S2DB represents the filter
// condition as a tree and reorders each intermediate AND/OR node ...
// separately").
type Node interface {
	// EvalSeg filters candidate row offsets of a segment, appending
	// survivors to out.
	EvalSeg(ctx *SegContext, sel []int32, out []int32) []int32
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

	intCache [][]int64
	strCache [][]string
	// rowBufs tracks pooled row buffers handed out by Materializer so the
	// scan can recycle them once the segment's callback returns.
	rowBufs []*types.Row
}

// NewSegContext prepares execution state for one segment.
func NewSegContext(meta *colstore.Meta, idx *index.Set, stats *ScanStats) *SegContext {
	n := len(meta.Seg.Schema().Columns)
	return &SegContext{Meta: meta, Idx: idx, Stats: stats,
		intCache: make([][]int64, n), strCache: make([][]string, n)}
}

// ints returns the fully decoded int64 (or float bits) column. The slice is
// memoized per segment-context and, when a shared cache is wired in, served
// from (and published to) the cross-query decoded-vector cache.
func (c *SegContext) ints(col int) []int64 {
	if v := c.intCache[col]; v != nil {
		return v
	}
	var v []int64
	if c.Cache != nil {
		v = c.Cache.Ints(c.Meta, col, c.Stats)
	} else {
		v = decodeInts(c.Meta, col, c.Stats)
	}
	c.intCache[col] = v
	return v
}

// strs returns the fully decoded string column; see ints for caching.
func (c *SegContext) strs(col int) []string {
	if v := c.strCache[col]; v != nil {
		return v
	}
	var v []string
	if c.Cache != nil {
		v = c.Cache.Strs(c.Meta, col, c.Stats)
	} else {
		v = decodeStrs(c.Meta, col, c.Stats)
	}
	c.strCache[col] = v
	return v
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
	seg := c.Meta.Seg
	ncols := len(seg.Schema().Columns)
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
	if !dense {
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
	// Resolve decoded slices and null bitmaps once per segment.
	type acc struct {
		col   int
		t     types.ColType
		ints  []int64
		strs  []string
		nulls *bitmap.Bitmap
	}
	accs := make([]acc, len(cols))
	for j, col := range cols {
		a := acc{col: col, t: seg.Schema().Columns[col].Type, nulls: seg.Cols[col].Nulls}
		switch a.t {
		case types.Int64, types.Float64:
			a.ints = c.ints(col)
		default:
			a.strs = c.strs(col)
		}
		accs[j] = a
	}
	return func(i int) types.Row {
		if stats != nil {
			stats.RowsMaterialized++
		}
		for _, a := range accs {
			if a.nulls != nil && a.nulls.Get(i) {
				buf[a.col] = types.Null(a.t)
				continue
			}
			switch a.t {
			case types.Int64:
				buf[a.col] = types.Value{Type: types.Int64, I: a.ints[i]}
			case types.Float64:
				buf[a.col] = types.Value{Type: types.Float64, F: math.Float64frombits(uint64(a.ints[i]))}
			default:
				buf[a.col] = types.Value{Type: types.String, S: a.strs[i]}
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
	// VecCacheSharedHits counts hits served by promoting a vector out of
	// the cache group's shared backing tier (a subset of VecCacheHits);
	// zero on a standalone (non-partitioned) cache.
	VecCacheSharedHits int64
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
		for _, v := range l.In {
			if types.Equal(r[l.Col], v) {
				return true
			}
		}
		return false
	}
	return vector.CmpValue(r[l.Col], l.Op, l.Val)
}

// EvalSeg implements Node: it picks among the §5.2 strategies — secondary
// index filter, encoded filter, regular filter — using postings sizes and
// observed costs.
func (l *Leaf) EvalSeg(ctx *SegContext, sel []int32, out []int32) []int32 {
	start := time.Now()
	in := len(sel)
	out = l.evalStrategies(ctx, sel, out)
	l.st.record(in, len(out), time.Since(start))
	return out
}

func (l *Leaf) evalStrategies(ctx *SegContext, sel []int32, out []int32) []int32 {
	seg := ctx.Meta.Seg
	// Secondary index filter: only for equality with an index, and only
	// when the postings list is smaller than the candidate set ("it can
	// still be worse if the other clauses already filtered the result down
	// to a few rows", §5.2). Costing uses the postings size directly.
	if l.forceStrategy != regularStrategy && len(l.In) == 0 && l.Op == vector.Eq && ctx.Idx != nil && ctx.Idx.HasColumn(l.Col) {
		if postings, ok := ctx.Idx.SegmentPostings(seg.ID, l.Col, l.Val); ok {
			if l.forceStrategy == indexStrategy || len(postings)*4 < len(sel) {
				if ctx.Stats != nil {
					ctx.Stats.IndexFilters++
				}
				return appendIntersect(out, sel, postings)
			}
		}
	}
	// Encoded filter on dictionary or RLE columns.
	if l.forceStrategy != regularStrategy {
		if res, ok := l.tryEncoded(ctx, sel, out); ok {
			return res
		}
	}
	if ctx.Stats != nil {
		ctx.Stats.RegularFilters++
	}
	return l.evalRegular(ctx, sel, out)
}

// tryEncoded evaluates directly on compressed data when profitable: once
// per dictionary entry or RLE run instead of once per row (§5.2 "encoded
// filter").
func (l *Leaf) tryEncoded(ctx *SegContext, sel []int32, out []int32) ([]int32, bool) {
	seg := ctx.Meta.Seg
	col := seg.Cols[l.Col]
	if col.Strs != nil {
		dict, ok := col.Strs.(*codec.Dict)
		if !ok {
			return nil, false
		}
		// "it can be worse if the dictionary size is greater than the
		// number of rows that passed the previous filters" — cost check.
		if l.forceStrategy != encodedStrategy && dict.DictSize() > len(sel) {
			return nil, false
		}
		if ctx.Stats != nil {
			ctx.Stats.EncodedFilters++
		}
		pass := make([]bool, dict.DictSize())
		for c := range pass {
			pass[c] = l.matchString(dict.DictValue(c))
		}
		nulls := col.Nulls
		for _, i := range sel {
			if nulls != nil && nulls.Get(int(i)) {
				continue
			}
			if pass[dict.Code(int(i))] {
				out = append(out, i)
			}
		}
		return out, true
	}
	if rle, ok := col.Ints.(*codec.RLE); ok {
		if l.forceStrategy != encodedStrategy && rle.Runs() > len(sel) {
			return nil, false
		}
		if ctx.Stats != nil {
			ctx.Stats.EncodedFilters++
		}
		t := seg.Schema().Columns[l.Col].Type
		// Evaluate once per run, then emit selected offsets inside
		// qualifying runs via a merge over runs and sel.
		nulls := col.Nulls
		si := 0
		for run := 0; run < rle.Runs() && si < len(sel); run++ {
			v, start, end := rle.Run(run)
			if !l.matchIntBits(v, t) {
				for si < len(sel) && int(sel[si]) < end {
					si++
				}
				continue
			}
			for si < len(sel) && int(sel[si]) < end {
				if int(sel[si]) >= start {
					if nulls == nil || !nulls.Get(int(sel[si])) {
						out = append(out, sel[si])
					}
				}
				si++
			}
		}
		return out, true
	}
	return nil, false
}

func (l *Leaf) matchString(s string) bool {
	if len(l.In) > 0 {
		for _, v := range l.In {
			if v.S == s {
				return true
			}
		}
		return false
	}
	return vector.CmpString(s, l.Op, l.Val.S)
}

// matchIntBits evaluates the clause on a raw int64 column value (which is
// IEEE bits for float columns).
func (l *Leaf) matchIntBits(v int64, t types.ColType) bool {
	if t == types.Float64 {
		f := math.Float64frombits(uint64(v))
		if len(l.In) > 0 {
			for _, iv := range l.In {
				if iv.F == f {
					return true
				}
			}
			return false
		}
		return vector.CmpFloat(f, l.Op, l.Val.F)
	}
	if len(l.In) > 0 {
		for _, iv := range l.In {
			if iv.I == v {
				return true
			}
		}
		return false
	}
	return vector.CmpInt(v, l.Op, l.Val.I)
}

// evalRegular selectively decodes the column for surviving rows and filters
// on the decoded values ("regular filter", §5.2, with late
// materialization).
func (l *Leaf) evalRegular(ctx *SegContext, sel []int32, out []int32) []int32 {
	seg := ctx.Meta.Seg
	col := seg.Cols[l.Col]
	t := seg.Schema().Columns[l.Col].Type
	nulls := col.Nulls
	dense := len(sel)*2 >= seg.NumRows
	switch t {
	case types.Int64:
		if dense && len(l.In) == 0 {
			vals := ctx.ints(l.Col)
			if nulls == nil {
				return vector.FilterIntConst(vals, l.Op, l.Val.I, sel, out)
			}
			for _, i := range sel {
				if !nulls.Get(int(i)) && vector.CmpInt(vals[i], l.Op, l.Val.I) {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			if nulls != nil && nulls.Get(int(i)) {
				continue
			}
			if l.matchIntBits(col.Ints.At(int(i)), t) {
				out = append(out, i)
			}
		}
		return out
	case types.Float64:
		if dense && len(l.In) == 0 {
			raw := ctx.ints(l.Col)
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if vector.CmpFloat(math.Float64frombits(uint64(raw[i])), l.Op, l.Val.F) {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			if nulls != nil && nulls.Get(int(i)) {
				continue
			}
			if l.matchIntBits(col.Ints.At(int(i)), t) {
				out = append(out, i)
			}
		}
		return out
	default:
		if dense {
			vals := ctx.strs(l.Col)
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if l.matchString(vals[i]) {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			if nulls != nil && nulls.Get(int(i)) {
				continue
			}
			if l.matchString(col.Strs.At(int(i))) {
				out = append(out, i)
			}
		}
		return out
	}
}

// appendIntersect appends the intersection of sorted sel and postings to
// out.
func appendIntersect(out []int32, sel []int32, postings index.Postings) []int32 {
	i, j := 0, 0
	for i < len(sel) && j < len(postings) {
		switch {
		case sel[i] < postings[j]:
			i++
		case sel[i] > postings[j]:
			j++
		default:
			out = append(out, sel[i])
			i++
			j++
		}
	}
	return out
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

// EvalSeg implements Node.
func (a *And) EvalSeg(ctx *SegContext, sel []int32, out []int32) []int32 {
	start := time.Now()
	in := len(sel)

	order := make([]Node, len(a.Children))
	copy(order, a.Children)
	if !a.DisableReorder {
		// Sort descending by (1 - P) / cost: cheap, selective clauses run
		// first (§5.2).
		sort.SliceStable(order, func(i, j int) bool {
			return order[i].stats().rank() > order[j].stats().rank()
		})
	}

	// Group-filter check: when most rows pass each clause, evaluating the
	// whole conjunction per row beats producing intermediate selections.
	if !a.DisableGroup && a.groupProfitable() {
		if ctx.Stats != nil {
			ctx.Stats.GroupFilters++
		}
		res := a.evalGroup(ctx, sel, out)
		a.st.record(in, len(res), time.Since(start))
		return res
	}

	cur := sel
	var scratch []int32
	for _, c := range order {
		if len(cur) == 0 {
			break
		}
		scratch = c.EvalSeg(ctx, cur, scratch[:0])
		cur, scratch = scratch, cur
	}
	out = append(out, cur...)
	a.st.record(in, len(out), time.Since(start))
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

func (a *And) evalGroup(ctx *SegContext, sel []int32, out []int32) []int32 {
	seg := ctx.Meta.Seg
	for _, i := range sel {
		pass := true
		for _, c := range a.Children {
			l := c.(*Leaf)
			v := seg.ValueAt(int(i), l.Col)
			if !l.EvalRow(rowWithValue(seg, int(i), l.Col, v)) {
				pass = false
				break
			}
		}
		if pass {
			out = append(out, i)
		}
	}
	return out
}

// rowWithValue builds a sparse row holding just the clause's column; leaves
// only inspect their own ordinal.
func rowWithValue(seg *colstore.Segment, _ int, col int, v types.Value) types.Row {
	r := make(types.Row, len(seg.Schema().Columns))
	r[col] = v
	return r
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

// EvalSeg implements Node.
func (o *Or) EvalSeg(ctx *SegContext, sel []int32, out []int32) []int32 {
	start := time.Now()
	in := len(sel)
	order := make([]Node, len(o.Children))
	copy(order, o.Children)
	// For OR, a child that *accepts* many rows cheaply should run first:
	// rank by P/cost (tracking "the ratio of rows not selected ... instead
	// of the selected rows", §5.2).
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := order[i].stats(), order[j].stats()
		return si.selectivity()/si.costPerRow() > sj.selectivity()/sj.costPerRow()
	})
	remaining := sel
	var matchedAll []int32
	var scratch []int32
	for _, c := range order {
		if len(remaining) == 0 {
			break
		}
		scratch = c.EvalSeg(ctx, remaining, scratch[:0])
		matchedAll = append(matchedAll, scratch...)
		// remaining = remaining \ scratch
		remaining = subtractSorted(remaining, scratch)
	}
	sort.Slice(matchedAll, func(i, j int) bool { return matchedAll[i] < matchedAll[j] })
	out = append(out, matchedAll...)
	o.st.record(in, len(out), time.Since(start))
	return out
}

// subtractSorted returns a \ b for sorted slices.
func subtractSorted(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)-len(b))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}
