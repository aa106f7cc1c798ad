// Encoded-execution kernels (§5.2 "operate on encoded data"): selections are
// carried as coalesced [start,end) runs — the one selection representation —
// so the filter phase evaluates predicates in span space and the aggregation
// phase folds surviving spans straight into aggregate state without building
// intermediate rows. An RLE run that passes a predicate contributes
// runLen×value to SUM/COUNT without expanding; dictionary predicates and
// GROUP BY keys evaluate once per dictionary code; and only columns an
// aggregate actually reads are ever materialized (late materialization).
// Every segment strategy must agree with row-at-a-time Node.EvalRow over the
// same rows; ref_test.go holds that oracle and the suite checks it.
package exec

import (
	"sync"
	"time"

	"s2db/internal/bitmap"
	"s2db/internal/codec"
	"s2db/internal/colstore"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// Span is a half-open run [Start, End) of row offsets within a segment.
// Selection spans are sorted, disjoint and coalesced (adjacent spans are
// merged), so the fused kernels can exploit clustering without consulting
// per-row state.
type Span struct {
	Start, End int32
}

// spanRows sums the row counts of a span list.
func spanRows(spans []Span) int {
	n := 0
	for _, sp := range spans {
		n += int(sp.End - sp.Start)
	}
	return n
}

// appendSpan appends [start,end) to out, coalescing with the previous span
// when adjacent.
func appendSpan(out []Span, start, end int32) []Span {
	if n := len(out); n > 0 && out[n-1].End == start {
		out[n-1].End = end
		return out
	}
	return append(out, Span{Start: start, End: end})
}

// spanPool recycles span buffers across segments and scans; it is where a
// Node takes EvalSpans scratch from.
var spanPool = sync.Pool{New: func() any { return new([]Span) }}

func getSpans() *[]Span {
	return spanPool.Get().(*[]Span)
}

func putSpans(p *[]Span) {
	*p = (*p)[:0]
	spanPool.Put(p)
}

// liveSpans appends the segment's non-deleted rows to out as coalesced
// spans. The common no-deletes case is a single span — the whole point of
// span-space selection: no per-row work before the first predicate runs.
// Otherwise each span's ends are found a bitmap word at a time.
func liveSpans(meta *colstore.Meta, out []Span) []Span {
	n, del := meta.Seg.NumRows, meta.Deleted
	for i := del.NextClear(0); i < n; i = del.NextClear(i) {
		end := min(del.NextSet(i), n)
		out = append(out, Span{Start: int32(i), End: int32(end)})
		i = end
	}
	return out
}

// subtractSpans appends a \ b to out: the parts of a's spans that no span
// of b covers. Both inputs are sorted and disjoint; one linear pass.
func subtractSpans(a, b, out []Span) []Span {
	j := 0
	for _, sp := range a {
		lo := sp.Start
		for j < len(b) && b[j].End <= lo {
			j++
		}
		for j < len(b) && b[j].Start < sp.End {
			if b[j].Start > lo {
				out = appendSpan(out, lo, b[j].Start)
			}
			lo = b[j].End
			if lo >= sp.End {
				break // b[j] may reach into a's next span
			}
			j++
		}
		if lo < sp.End {
			out = appendSpan(out, lo, sp.End)
		}
	}
	return out
}

// --- span-space filter evaluation -------------------------------------------

// EvalSpans implements Node: it picks among the §5.2 strategies — secondary
// index filter, encoded filter (dictionary/RLE), per-row regular filter —
// using postings sizes, encoding sizes and the candidate row count.
func (l *Leaf) EvalSpans(ctx *SegContext, in, out []Span) []Span {
	start := time.Now()
	n, before := spanRows(in), spanRows(out)
	// A comparison against a NULL constant is never true; the strategies
	// compare raw column values and must not see it.
	if len(l.In) > 0 || !l.Val.IsNull {
		out = l.evalSpanStrategies(ctx, n, in, out)
	}
	l.st.record(n, spanRows(out)-before, time.Since(start))
	return out
}

func (l *Leaf) evalSpanStrategies(ctx *SegContext, rows int, in, out []Span) []Span {
	seg := ctx.Meta.Seg
	// Secondary index filter: only for equality with an index, and only
	// when the postings list is smaller than the candidate set ("it can
	// still be worse if the other clauses already filtered the result down
	// to a few rows", §5.2). Costing uses the postings size directly.
	if l.forceStrategy != regularStrategy && len(l.In) == 0 && l.Op == vector.Eq && ctx.Idx != nil &&
		ctx.Idx.HasColumn(l.Col) {
		if postings, ok := ctx.Idx.SegmentPostings(seg.ID, l.Col, l.Val); ok {
			if l.forceStrategy == indexStrategy || len(postings)*4 < rows {
				if ctx.Stats != nil {
					ctx.Stats.IndexFilters++
				}
				pi := 0
				for _, sp := range in {
					for pi < len(postings) && postings[pi] < sp.Start {
						pi++
					}
					for ; pi < len(postings) && postings[pi] < sp.End; pi++ {
						out = appendSpan(out, postings[pi], postings[pi]+1)
					}
				}
				return out
			}
		}
	}
	switch seg.Schema().Columns[l.Col].Type {
	case types.Int64:
		return leafSpans[int64](l, ctx, rows, in, out)
	case types.Float64:
		return leafSpans[float64](l, ctx, rows, in, out)
	default:
		return leafSpans[string](l, ctx, rows, in, out)
	}
}

// leafSpans runs the encoded strategy when the encoding allows it and it
// pays, else the regular one, with the clause bound to T.
func leafSpans[T colValue](l *Leaf, ctx *SegContext, rows int, in, out []Span) []Span {
	c := bindLeaf[T](l)
	if l.forceStrategy != regularStrategy {
		if res, ok := c.encodedSpans(ctx, rows, in, out); ok {
			return res
		}
	}
	if ctx.Stats != nil {
		ctx.Stats.RegularFilters++
	}
	c.read(ctx, rows*2 >= ctx.Meta.Seg.NumRows)
	return c.regularSpans(in, out)
}

// rowTest is a clause bound to one segment's column, tested row by row by
// the group filter.
type rowTest interface{ pass(i int32) bool }

// bindRowTest binds the clause for the group filter: decoded when dense,
// sought per row otherwise.
func (l *Leaf) bindRowTest(ctx *SegContext, dense bool) rowTest {
	switch ctx.Meta.Seg.Schema().Columns[l.Col].Type {
	case types.Int64:
		return rowTestOf[int64](l, ctx, dense)
	case types.Float64:
		return rowTestOf[float64](l, ctx, dense)
	default:
		return rowTestOf[string](l, ctx, dense)
	}
}

func rowTestOf[T colValue](l *Leaf, ctx *SegContext, dense bool) *leafOf[T] {
	c := bindLeaf[T](l)
	c.read(ctx, dense)
	return &c
}

// leafOf is a Leaf bound to T.
type leafOf[T colValue] struct {
	l    *Leaf
	op   vector.CmpOp
	val  T
	isIn bool
	in   []T // IN-list members, NULLs dropped (they equal nothing)
	r    colReader[T]
}

// bindLeaf converts the clause's constant (or IN list) to T.
func bindLeaf[T colValue](l *Leaf) leafOf[T] {
	c := leafOf[T]{l: l, op: l.Op, val: valueAs[T](l.Val), isIn: len(l.In) > 0}
	for _, v := range l.In {
		if !v.IsNull {
			c.in = append(c.in, valueAs[T](v))
		}
	}
	return c
}

// match evaluates the clause on a non-null value by vector.Cmp — the rule
// EvalRow applies to buffer rows through vector.CmpValue.
func (c *leafOf[T]) match(v T) bool {
	if c.isIn {
		for _, x := range c.in {
			if x == v {
				return true
			}
		}
		return false
	}
	return vector.Cmp(v, c.op, c.val)
}

func (c *leafOf[T]) read(ctx *SegContext, dense bool) { c.r = readCol[T](ctx, c.l.Col, dense) }

// pass reports whether row i satisfies the clause; NULL rows never do.
func (c *leafOf[T]) pass(i int32) bool { return !c.r.null(i) && c.match(c.r.at(i)) }

// regularSpans filters values per row within the candidate spans ("regular
// filter", §5.2), reading through the bound column reader. Its test is
// pass, spelled out: the compiled shape of pass is too large to inline.
func (c *leafOf[T]) regularSpans(in, out []Span) []Span {
	r := &c.r
	for _, sp := range in {
		for i := sp.Start; i < sp.End; i++ {
			if !r.null(i) && c.match(r.at(i)) {
				out = appendSpan(out, i, i+1)
			}
		}
	}
	return out
}

// encodedSpans evaluates directly on compressed data when profitable: once
// per dictionary entry or RLE run instead of once per row (§5.2 "encoded
// filter").
func (c *leafOf[T]) encodedSpans(ctx *SegContext, rows int, in, out []Span) ([]Span, bool) {
	l := c.l
	col := &ctx.Meta.Seg.Cols[l.Col]
	nulls := col.Nulls
	if dict, ok := col.Strs.(*codec.Dict); ok {
		// "it can be worse if the dictionary size is greater than the
		// number of rows that passed the previous filters" — cost check.
		if l.forceStrategy != encodedStrategy && dict.DictSize() > rows {
			return nil, false
		}
		if ctx.Stats != nil {
			ctx.Stats.EncodedFilters++
		}
		pass := make([]bool, dict.DictSize())
		for k := range pass {
			pass[k] = c.match(any(dict.DictValue(k)).(T))
		}
		for _, sp := range in {
			for i := sp.Start; i < sp.End; i++ {
				if (nulls == nil || !nulls.Get(int(i))) && pass[dict.Code(int(i))] {
					out = appendSpan(out, i, i+1)
				}
			}
		}
		return out, true
	}
	rle, ok := col.Ints.(*codec.RLE)
	if !ok || (l.forceStrategy != encodedStrategy && rle.Runs() > rows) {
		return nil, false
	}
	if ctx.Stats != nil {
		ctx.Stats.EncodedFilters++
	}
	// Run-space intersection: one predicate evaluation per run overlapping
	// the candidate spans. Without nulls a passing run is emitted whole;
	// with them, its rows are, minus the null ones.
	for _, sp := range in {
		for j := rle.FindRun(int(sp.Start)); j < rle.Runs(); j++ {
			v, rs, re := rle.Run(j)
			if rs >= int(sp.End) {
				break
			}
			if !c.match(fromRaw[T](v)) {
				continue
			}
			lo, hi := max(int32(rs), sp.Start), min(int32(re), sp.End)
			if nulls == nil {
				out = appendSpan(out, lo, hi)
				continue
			}
			for i := lo; i < hi; i++ {
				if !nulls.Get(int(i)) {
					out = appendSpan(out, i, i+1)
				}
			}
		}
	}
	return out, true
}

// --- fused aggregation kernels -----------------------------------------------

// aggFuseMode classifies how a segment's aggregation can fuse. Every mode
// folds the same way (foldSeg); they differ in how rows find their group.
type aggFuseMode uint8

const (
	fuseNone aggFuseMode = iota
	// fuseGlobal: no grouping — every row folds into the one global group,
	// RLE columns per run; only expression inputs materialize.
	fuseGlobal
	// fuseDictGroup: single dictionary-encoded group column, plain
	// aggregates — a row's dictionary code is its group slot, and groups
	// are created in code order.
	fuseDictGroup
	// fuseCodeGroup: every group column has a bounded code space — a
	// dictionary, or an Int64 column without nulls whose zone map spans
	// few values — and their combined space is bounded: group resolution
	// is one array load per row instead of EncodeKey+map; groups are
	// created in first-seen order.
	fuseCodeGroup
)

// maxFusedGroupCodes bounds the combined code space for fuseCodeGroup;
// beyond it the per-segment group-pointer array stops paying for itself and
// the general path's hash grouping wins.
const maxFusedGroupCodes = 4096

// groupCode is one group column's code space on one segment: a
// dictionary's codes, or an Int64 column's values coded as v − min.
type groupCode struct {
	col  int
	dict *codec.Dict // nil for an int column
	min  int64
	size int
}

// aggFuser runs fused aggregation kernels against the shared group table of
// one Aggregate call. The touch callback resolves (creating on first sight)
// a group by key, exactly as the general row path does.
type aggFuser struct {
	groupCols  []int
	aggs       []AggSpec
	touch      func(key types.Row) *aggGroup
	resultType []types.ColType

	// exprOK: every expression aggregate declares its input columns
	// (ExprCols), the precondition for late materialization of row-mode
	// kernels.
	exprOK bool
	// codes holds the group columns' code spaces on the segment classify
	// last saw.
	codes []groupCode
	// The segment being folded: each slot's group and surviving rows, and
	// the scratch a group key is built in.
	groups []*aggGroup
	counts []int64
	key    types.Row
}

func newAggFuser(groupCols []int, aggs []AggSpec, touch func(key types.Row) *aggGroup, resultType []types.ColType) *aggFuser {
	u := &aggFuser{groupCols: groupCols, aggs: aggs, touch: touch, resultType: resultType, exprOK: true,
		key: make(types.Row, len(groupCols))}
	for _, a := range aggs {
		if a.Expr != nil && a.ExprCols == nil {
			u.exprOK = false
		}
	}
	return u
}

// classify picks the fused kernel for one segment, or fuseNone when the
// shape requires the general row path: dict group-by first, then the global
// fold, then bounded multi-column code grouping.
func (u *aggFuser) classify(ctx *SegContext) aggFuseMode {
	seg := ctx.Meta.Seg
	if !u.groupCodes(seg) {
		return fuseNone
	}
	if len(u.codes) == 1 && u.codes[0].dict != nil && allPlainAggs(u.aggs) {
		return fuseDictGroup
	}
	if !u.exprOK {
		return fuseNone
	}
	if len(u.groupCols) == 0 {
		return fuseGlobal
	}
	return fuseCodeGroup
}

// groupCodes sets u.codes to the group columns' code spaces on seg and
// reports whether every column has one and their product is at most
// maxFusedGroupCodes (and non-zero). Zone maps come from blob bytes, so
// they bound memory here only: codeSlots checks every value against its
// column's space.
func (u *aggFuser) groupCodes(seg *colstore.Segment) bool {
	u.codes = u.codes[:0]
	product := 1
	for _, c := range u.groupCols {
		gc := groupCode{col: c}
		col := &seg.Cols[c]
		if col.Nulls != nil {
			return false
		}
		if d, ok := col.Strs.(*codec.Dict); ok {
			gc.dict, gc.size = d, d.DictSize()
		} else if lo, size, ok := intCodeSpace(seg, c); ok {
			gc.min, gc.size = lo, size
		} else {
			return false
		}
		if product *= gc.size; product == 0 || product > maxFusedGroupCodes {
			return false
		}
		u.codes = append(u.codes, gc)
	}
	return true
}

// intCodeSpace returns the code space of Int64 column c when its zone map
// spans fewer than maxFusedGroupCodes values: codes v − lo in [0, size).
// The span is computed in uint64, where hi − lo is exact for any hi ≥ lo,
// so a zone map across MinInt64..MaxInt64 does not overflow into a small
// span.
func intCodeSpace(seg *colstore.Segment, c int) (lo int64, size int, ok bool) {
	if seg.Schema().Columns[c].Type != types.Int64 || !seg.HasRange[c] {
		return 0, 0, false
	}
	lo, hi := seg.Min[c].I, seg.Max[c].I
	span := uint64(hi) - uint64(lo)
	if hi < lo || span >= maxFusedGroupCodes {
		return 0, 0, false
	}
	return lo, int(span) + 1, true
}

// run executes the classified kernel over the surviving spans. It reports
// false, having touched no group, when a group value lies outside the code
// space the segment's zone map claimed; the segment then takes the general
// path.
func (u *aggFuser) run(mode aggFuseMode, ctx *SegContext, spans []Span) bool {
	if mode == fuseGlobal {
		u.groups = append(u.groups[:0], u.touch(nil))
		u.counts = append(u.counts[:0], int64(spanRows(spans)))
		u.foldSeg(ctx, spans, nil)
		return true
	}
	slots := getSlots()
	defer putSlots(slots)
	if mode == fuseDictGroup {
		u.dictSlots(spans, slots)
	} else if !u.codeSlots(ctx, spans, slots) {
		return false
	}
	u.foldSeg(ctx, spans, *slots)
	return true
}

// slotPool recycles the int32 vectors of the grouped kernels: per-row group
// slots and fuseCodeGroup's per-code slot table.
var slotPool = sync.Pool{New: func() any { return new([]int32) }}

func getSlots() *[]int32 { return slotPool.Get().(*[]int32) }

func putSlots(p *[]int32) {
	*p = (*p)[:0]
	slotPool.Put(p)
}

// zeroed sets *p to n zeros, growing the pooled buffer when short, and
// returns it.
func zeroed(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	clear(*p)
	return *p
}

// dictSlots is the encoded group-by of §2.1.2 over one dictionary column:
// a surviving row's slot is its dictionary code (readDict checks that
// every code indexes an entry), so a row costs one unpacked code and one
// count. It leaves each row's slot in *slots and, indexed by code, each
// code's surviving rows in u.counts and its group in u.groups: opened
// through touch in code order, and only for codes with rows (nil for the
// others).
func (u *aggFuser) dictSlots(spans []Span, slots *[]int32) {
	d := u.codes[0].dict
	s := zeroed(slots, spanRows(spans))
	counts := append(u.counts[:0], make([]int64, d.DictSize())...)
	scratch := bitsPool.Get().(*[]int64)
	for _, sp := range spans {
		codes := d.AppendCodes((*scratch)[:0], int(sp.Start), int(sp.End))
		out := s[:len(codes)]
		for k, c := range codes {
			out[k] = int32(c)
			counts[c]++
		}
		s = s[len(codes):]
		*scratch = codes
	}
	bitsPool.Put(scratch)
	u.counts, u.groups = counts, u.groups[:0]
	for c, n := range counts {
		var g *aggGroup
		if n > 0 {
			u.key[0] = types.NewString(d.DictValue(c))
			g = u.touch(u.key)
		}
		u.groups = append(u.groups, g)
	}
}

// codeSlots is the encoded group-by over bounded code spaces: each
// surviving row's group is found through the mixed-radix combination of
// its group columns' codes, one array load per row after a code's first
// sight — string values are touched once per group, and an int key is
// rebuilt from its code. The codes are built one column at a time, each in
// one typed loop. The combined space reaches maxFusedGroupCodes, so codes
// are remapped to dense slots in first-seen row order (the general path's
// group order). It leaves each row's slot in *slots and each slot's
// surviving rows and group in u.counts and u.groups. It returns false
// before touching any group when an int value lies outside its column's
// code space.
func (u *aggFuser) codeSlots(ctx *SegContext, spans []Span, slots *[]int32) bool {
	s := zeroed(slots, spanRows(spans))
	codes := 1
	for _, gc := range u.codes {
		codes *= gc.size
		if gc.dict != nil {
			dictCodes(gc.dict, spans, s)
		} else if !intCodes(segVec[int64](ctx, gc.col), gc.min, gc.size, spans, s) {
			return false
		}
	}
	slotOfBuf := getSlots()
	defer putSlots(slotOfBuf)
	slotOf := zeroed(slotOfBuf, codes) // slot+1 of each code's group; 0 = not yet
	u.groups, u.counts = u.groups[:0], u.counts[:0]
	for k, code := range s {
		if slotOf[code] == 0 {
			u.groups = append(u.groups, u.touch(u.codeKey(code)))
			u.counts = append(u.counts, 0)
			slotOf[code] = int32(len(u.groups))
		}
		s[k] = slotOf[code] - 1
		u.counts[s[k]]++
	}
	return true
}

// codeKey rebuilds the group key of a mixed-radix code in u.key.
func (u *aggFuser) codeKey(code int32) types.Row {
	c := int(code)
	for k := len(u.codes) - 1; k >= 0; k-- {
		gc := &u.codes[k]
		if gc.dict != nil {
			u.key[k] = types.NewString(gc.dict.DictValue(c % gc.size))
		} else {
			u.key[k] = types.NewInt(gc.min + int64(c%gc.size))
		}
		c /= gc.size
	}
	return u.key
}

// dictCodes folds a dictionary column's codes into the surviving rows'
// mixed-radix codes s, unpacking each span's codes in one range decode.
func dictCodes(d *codec.Dict, spans []Span, s []int32) {
	scratch := bitsPool.Get().(*[]int64)
	size, k := int32(d.DictSize()), 0
	for _, sp := range spans {
		codes := d.AppendCodes((*scratch)[:0], int(sp.Start), int(sp.End))
		for _, c := range codes {
			s[k] = s[k]*size + int32(c)
			k++
		}
		*scratch = codes
	}
	bitsPool.Put(scratch)
}

// intCodes folds an int column's codes v − lo into the surviving rows'
// mixed-radix codes s. It reports false at the first value outside
// [lo, lo+size): one unsigned comparison, exact because lo+size−1 does not
// overflow.
func intCodes(vals []int64, lo int64, size int, spans []Span, s []int32) bool {
	k := 0
	for _, sp := range spans {
		for _, v := range vals[sp.Start:sp.End] {
			c := uint64(v - lo)
			if c >= uint64(size) {
				return false
			}
			s[k] = s[k]*int32(size) + int32(c)
			k++
		}
	}
	return true
}

// foldSeg folds every aggregate over the surviving rows: the k-th surviving
// row has slot slots[k] (slot 0 when slots is nil), and slot s has group
// u.groups[s] (nil when no row has the slot) and u.counts[s] surviving
// rows. That row count is COUNT(*), and the count of a COUNT or AVG over a
// column without nulls. Plain column aggregates fold spec by spec through
// foldColumn; expression aggregates share one pass over rows that
// materializes only their input columns (classify guarantees ExprCols on
// every expression spec).
func (u *aggFuser) foldSeg(ctx *SegContext, spans []Span, slots []int32) {
	var exprs, proj []int
	for ai, a := range u.aggs {
		switch {
		case a.Expr != nil:
			exprs = append(exprs, ai)
			proj = append(proj, a.ExprCols...)
		case a.Func == Count && a.Col < 0:
			u.addCounts(ai)
		default:
			u.foldColumn(ctx, ai, spans, slots)
		}
	}
	if exprs == nil {
		return
	}
	mat := ctx.Materializer(proj, spanRows(spans)*4 >= ctx.Meta.Seg.NumRows)
	g, k := u.groups[0], 0
	for _, sp := range spans {
		for i := sp.Start; i < sp.End; i, k = i+1, k+1 {
			r := mat(int(i))
			if slots != nil {
				g = u.groups[slots[k]]
			}
			for _, ai := range exprs {
				v := u.aggs[ai].Expr(r)
				u.resultType[ai] = v.Type
				g.states[ai].add(v)
			}
		}
	}
}

// addCounts adds each slot's surviving rows to its group's count ai.
func (u *aggFuser) addCounts(ai int) {
	for s, g := range u.groups {
		if g != nil {
			g.states[ai].count += u.counts[s]
		}
	}
}

// foldColumn folds plain aggregate ai over its column: the one place an
// aggregation kernel meets the column type. Over a column without nulls a
// COUNT is the slot row counts alone, and so is an AVG's count.
func (u *aggFuser) foldColumn(ctx *SegContext, ai int, spans []Span, slots []int32) {
	a := u.aggs[ai]
	if ctx.Meta.Seg.Cols[a.Col].Nulls == nil && (a.Func == Count || a.Func == Avg) {
		u.addCounts(ai)
		if a.Func == Count {
			return
		}
	}
	switch ctx.Meta.Seg.Schema().Columns[a.Col].Type {
	case types.Int64:
		foldColumn[int64](ctx, a.Func, ai, a.Col, spans, slots, u.groups)
	case types.Float64:
		foldColumn[float64](ctx, a.Func, ai, a.Col, spans, slots, u.groups)
	default:
		foldColumn[string](ctx, a.Func, ai, a.Col, spans, slots, u.groups)
	}
}

// foldColumn folds column col into each group's state ai, doing only what
// fn's result reads: SUM and AVG add sums, MIN and MAX track bounds, and a
// COUNT or AVG over a column with nulls counts its non-null rows (without
// nulls the caller adds the slot row counts). The states are unboxed once
// per segment and boxed back once, and each group's sum adds that group's
// rows in row order, as the general path's row-at-a-time aggState.add
// does: float sums come out bit for bit. A global fold over an RLE column
// without nulls folds per run.
func foldColumn[T colValue](ctx *SegContext, fn AggFunc, ai, col int, spans []Span, slots []int32, groups []*aggGroup) {
	folds := make([]fold[T], len(groups))
	for s, g := range groups {
		if g != nil {
			folds[s] = foldOf[T](&g.states[ai])
		}
	}
	c := &ctx.Meta.Seg.Cols[col]
	_, str := any(&folds[0].sum).(*string)
	sums, bounds := (fn == Sum || fn == Avg) && !str, fn == Min || fn == Max
	if c.Nulls != nil && (fn == Count || fn == Avg) {
		countNonNull(folds, c.Nulls, spans, slots)
	}
	rle, _ := c.Ints.(*codec.RLE)
	switch {
	case rle != nil && c.Nulls == nil && slots == nil:
		f := &folds[0]
		eachRun(rle, spans, func(v int64, n int) {
			if bounds {
				f.bound(fromRaw[T](v))
			} else if sums {
				f.sumRun(fromRaw[T](v), n)
			}
		})
	case sums:
		sumVals(folds, segVec[T](ctx, col), c.Nulls, spans, slots)
	case bounds:
		boundVals(folds, segVec[T](ctx, col), c.Nulls, spans, slots)
	}
	for s, g := range groups {
		if g != nil {
			storeFold(&g.states[ai], &folds[s])
		}
	}
}

// sumVals adds each surviving non-null value to its slot's sum, in row
// order. Without nulls the values are read straight from the spans of the
// decoded vector, and a global sum stays in a register.
func sumVals[T colValue](folds []fold[T], vals []T, nulls *bitmap.Bitmap, spans []Span, slots []int32) {
	switch {
	case nulls != nil:
		f, k := &folds[0], 0
		for _, sp := range spans {
			for i := sp.Start; i < sp.End; i, k = i+1, k+1 {
				if nulls.Get(int(i)) {
					continue
				}
				if slots != nil {
					f = &folds[slots[k]]
				}
				f.sum += vals[i]
			}
		}
	case slots == nil:
		sum := folds[0].sum
		for _, sp := range spans {
			for _, v := range vals[sp.Start:sp.End] {
				sum += v
			}
		}
		folds[0].sum = sum
	default:
		for _, sp := range spans {
			vs := vals[sp.Start:sp.End]
			for k, s := range slots[:len(vs)] {
				folds[s].sum += vs[k]
			}
			slots = slots[len(vs):]
		}
	}
}

// boundVals tracks each slot's MIN and MAX over its surviving non-null
// values.
func boundVals[T colValue](folds []fold[T], vals []T, nulls *bitmap.Bitmap, spans []Span, slots []int32) {
	f, k := &folds[0], 0
	for _, sp := range spans {
		for i := sp.Start; i < sp.End; i, k = i+1, k+1 {
			if nulls != nil && nulls.Get(int(i)) {
				continue
			}
			if slots != nil {
				f = &folds[slots[k]]
			}
			f.bound(vals[i])
		}
	}
}

// countNonNull counts each slot's surviving non-null rows.
func countNonNull[T colValue](folds []fold[T], nulls *bitmap.Bitmap, spans []Span, slots []int32) {
	f, k := &folds[0], 0
	for _, sp := range spans {
		for i := sp.Start; i < sp.End; i, k = i+1, k+1 {
			if nulls.Get(int(i)) {
				continue
			}
			if slots != nil {
				f = &folds[slots[k]]
			}
			f.count++
		}
	}
}

// eachRun visits the RLE runs overlapping the spans, clipped to span
// boundaries, in row order.
func eachRun(r *codec.RLE, spans []Span, f func(v int64, n int)) {
	for _, sp := range spans {
		for j := r.FindRun(int(sp.Start)); j < r.Runs(); j++ {
			v, rs, re := r.Run(j)
			if rs >= int(sp.End) {
				break
			}
			if lo, hi := max(rs, int(sp.Start)), min(re, int(sp.End)); hi > lo {
				f(v, hi-lo)
			}
		}
	}
}
