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
	"math"
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
func liveSpans(meta *colstore.Meta, out []Span) []Span {
	n := meta.Seg.NumRows
	if n == 0 {
		return out
	}
	if meta.Deleted.Count() == 0 {
		return append(out, Span{Start: 0, End: int32(n)})
	}
	start := -1
	for i := 0; i < n; i++ {
		if meta.Deleted.Get(i) {
			if start >= 0 {
				out = append(out, Span{Start: int32(start), End: int32(i)})
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, Span{Start: int32(start), End: int32(n)})
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
	if l.forceStrategy != regularStrategy && len(l.In) == 0 && l.Op == vector.Eq && ctx.Idx != nil && ctx.Idx.HasColumn(l.Col) {
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
	if l.forceStrategy != regularStrategy {
		if res, ok := l.tryEncodedSpans(ctx, rows, in, out); ok {
			return res
		}
	}
	if ctx.Stats != nil {
		ctx.Stats.RegularFilters++
	}
	return l.evalRegularSpans(ctx, rows, in, out)
}

// tryEncodedSpans evaluates directly on compressed data when profitable:
// once per dictionary entry or RLE run instead of once per row (§5.2
// "encoded filter").
func (l *Leaf) tryEncodedSpans(ctx *SegContext, rows int, in, out []Span) ([]Span, bool) {
	seg := ctx.Meta.Seg
	col := seg.Cols[l.Col]
	if col.Strs != nil {
		dict, ok := col.Strs.(*codec.Dict)
		if !ok {
			return nil, false
		}
		// "it can be worse if the dictionary size is greater than the
		// number of rows that passed the previous filters" — cost check.
		if l.forceStrategy != encodedStrategy && dict.DictSize() > rows {
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
		for _, sp := range in {
			for i := sp.Start; i < sp.End; i++ {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if pass[dict.Code(int(i))] {
					out = appendSpan(out, i, i+1)
				}
			}
		}
		return out, true
	}
	if rle, ok := col.Ints.(*codec.RLE); ok {
		if l.forceStrategy != encodedStrategy && rle.Runs() > rows {
			return nil, false
		}
		if ctx.Stats != nil {
			ctx.Stats.EncodedFilters++
		}
		t := seg.Schema().Columns[l.Col].Type
		nulls := col.Nulls
		if nulls == nil {
			// Pure run-space intersection: one predicate evaluation per run
			// overlapping the candidate spans, no per-row work at all.
			for _, sp := range in {
				for j := rle.FindRun(int(sp.Start)); j < rle.Runs(); j++ {
					v, rs, re := rle.Run(j)
					if rs >= int(sp.End) {
						break
					}
					if !l.matchIntBits(v, t) {
						continue
					}
					lo, hi := int32(rs), int32(re)
					if lo < sp.Start {
						lo = sp.Start
					}
					if hi > sp.End {
						hi = sp.End
					}
					out = appendSpan(out, lo, hi)
				}
			}
			return out, true
		}
		// Null rows never pass; runs still gate the predicate evaluation.
		for _, sp := range in {
			for j := rle.FindRun(int(sp.Start)); j < rle.Runs(); j++ {
				v, rs, re := rle.Run(j)
				if rs >= int(sp.End) {
					break
				}
				if !l.matchIntBits(v, t) {
					continue
				}
				lo, hi := int32(rs), int32(re)
				if lo < sp.Start {
					lo = sp.Start
				}
				if hi > sp.End {
					hi = sp.End
				}
				for i := lo; i < hi; i++ {
					if nulls.Get(int(i)) {
						continue
					}
					out = appendSpan(out, i, i+1)
				}
			}
		}
		return out, true
	}
	return nil, false
}

// evalRegularSpans filters decoded values per row within the candidate
// spans ("regular filter", §5.2): dense selections decode the column once,
// sparse ones seek per row.
func (l *Leaf) evalRegularSpans(ctx *SegContext, rows int, in, out []Span) []Span {
	seg := ctx.Meta.Seg
	col := seg.Cols[l.Col]
	t := seg.Schema().Columns[l.Col].Type
	nulls := col.Nulls
	dense := rows*2 >= seg.NumRows
	switch t {
	case types.Int64:
		if dense && len(l.In) == 0 {
			vals := ctx.ints(l.Col)
			for _, sp := range in {
				for i := sp.Start; i < sp.End; i++ {
					if nulls != nil && nulls.Get(int(i)) {
						continue
					}
					if vector.CmpInt(vals[i], l.Op, l.Val.I) {
						out = appendSpan(out, i, i+1)
					}
				}
			}
			return out
		}
		for _, sp := range in {
			for i := sp.Start; i < sp.End; i++ {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if l.matchIntBits(col.Ints.At(int(i)), t) {
					out = appendSpan(out, i, i+1)
				}
			}
		}
		return out
	case types.Float64:
		if dense && len(l.In) == 0 {
			raw := ctx.ints(l.Col)
			for _, sp := range in {
				for i := sp.Start; i < sp.End; i++ {
					if nulls != nil && nulls.Get(int(i)) {
						continue
					}
					if vector.CmpFloat(math.Float64frombits(uint64(raw[i])), l.Op, l.Val.F) {
						out = appendSpan(out, i, i+1)
					}
				}
			}
			return out
		}
		for _, sp := range in {
			for i := sp.Start; i < sp.End; i++ {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if l.matchIntBits(col.Ints.At(int(i)), t) {
					out = appendSpan(out, i, i+1)
				}
			}
		}
		return out
	default:
		if dense {
			vals := ctx.strs(l.Col)
			for _, sp := range in {
				for i := sp.Start; i < sp.End; i++ {
					if nulls != nil && nulls.Get(int(i)) {
						continue
					}
					if l.matchString(vals[i]) {
						out = appendSpan(out, i, i+1)
					}
				}
			}
			return out
		}
		for _, sp := range in {
			for i := sp.Start; i < sp.End; i++ {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if l.matchString(col.Strs.At(int(i))) {
					out = appendSpan(out, i, i+1)
				}
			}
		}
		return out
	}
}

// --- fused aggregation kernels -----------------------------------------------

// aggFuseMode classifies how a segment's aggregation can fuse.
type aggFuseMode uint8

const (
	fuseNone aggFuseMode = iota
	// fuseDictGroup: single dictionary-encoded group column, plain
	// aggregates — per-code states folded in code order.
	fuseDictGroup
	// fuseGlobalPlain: no grouping, plain aggregates — spec-outer columnar
	// fold with RLE run bulking; materializes nothing.
	fuseGlobalPlain
	// fuseGlobalRow: no grouping but expression aggregates — row-outer fold
	// over only the expressions' input columns, skipping the per-row group
	// key encode+map of the general path.
	fuseGlobalRow
	// fuseCodeGroup: every group column dictionary-encoded with a bounded
	// combined code space — group resolution is one array load per row
	// instead of EncodeKey+map.
	fuseCodeGroup
)

// maxFusedGroupCodes bounds the combined dictionary-code space for
// fuseCodeGroup; beyond it the per-segment group-pointer array stops paying
// for itself and the general path's hash grouping wins.
const maxFusedGroupCodes = 4096

// aggFuser runs fused aggregation kernels against the shared group table of
// one Aggregate call. The touch callback resolves (creating on first sight,
// in encounter order) a group by key, exactly as the general row path does,
// so group output order does not depend on which kernel ran.
type aggFuser struct {
	groupCols  []int
	aggs       []AggSpec
	touch      func(key types.Row) *aggGroup
	resultType []types.ColType

	// exprOK: every expression aggregate declares its input columns
	// (ExprCols), the precondition for late materialization of row-mode
	// kernels.
	exprOK bool
}

func newAggFuser(groupCols []int, aggs []AggSpec, touch func(key types.Row) *aggGroup, resultType []types.ColType) *aggFuser {
	u := &aggFuser{groupCols: groupCols, aggs: aggs, touch: touch, resultType: resultType, exprOK: true}
	for _, a := range aggs {
		if a.Expr != nil && a.ExprCols == nil {
			u.exprOK = false
		}
	}
	return u
}

// classify picks the fused kernel for one segment, or fuseNone when the
// shape requires the general row path: dict group-by first, then the global
// folds, then bounded multi-column code grouping.
func (u *aggFuser) classify(ctx *SegContext) aggFuseMode {
	seg := ctx.Meta.Seg
	if len(u.groupCols) == 1 && allPlainAggs(u.aggs) {
		if _, ok := seg.Cols[u.groupCols[0]].Strs.(*codec.Dict); ok && seg.Cols[u.groupCols[0]].Nulls == nil {
			return fuseDictGroup
		}
	}
	if len(u.groupCols) == 0 {
		if allPlainAggs(u.aggs) {
			return fuseGlobalPlain
		}
		if u.exprOK {
			return fuseGlobalRow
		}
		return fuseNone
	}
	if !u.exprOK {
		return fuseNone
	}
	codes := 1
	for _, c := range u.groupCols {
		d, ok := seg.Cols[c].Strs.(*codec.Dict)
		if !ok || seg.Cols[c].Nulls != nil {
			return fuseNone
		}
		codes *= d.DictSize()
		if codes > maxFusedGroupCodes {
			return fuseNone
		}
	}
	if codes == 0 {
		return fuseNone
	}
	return fuseCodeGroup
}

// run executes the classified kernel over the surviving spans.
func (u *aggFuser) run(mode aggFuseMode, ctx *SegContext, spans []Span) {
	switch mode {
	case fuseDictGroup:
		u.dictGroupSeg(ctx, spans)
	case fuseGlobalPlain:
		u.globalPlainSeg(ctx, spans)
	case fuseGlobalRow:
		u.globalRowSeg(ctx, spans)
	case fuseCodeGroup:
		u.codeGroupSeg(ctx, spans)
	}
}

// globalPlainSeg folds plain global aggregates spec-outer over the spans.
// RLE agg columns without nulls fold per run: integer SUM/COUNT use exact
// bulk arithmetic (runLen×value), float sums replay the run's additions so
// the accumulation order — and therefore the bits — match the per-row fold
// over a decoded encoding of the same data; MIN/MAX compare once per run.
func (u *aggFuser) globalPlainSeg(ctx *SegContext, spans []Span) {
	seg := ctx.Meta.Seg
	g := u.touch(nil)
	rows := spanRows(spans)
	for ai := range u.aggs {
		a := &u.aggs[ai]
		st := &g.states[ai]
		if a.Func == Count && a.Col < 0 {
			st.count += int64(rows)
			continue
		}
		col := seg.Cols[a.Col]
		t := seg.Schema().Columns[a.Col].Type
		switch t {
		case types.Int64:
			if rle, ok := col.Ints.(*codec.RLE); ok && col.Nulls == nil {
				eachRun(rle, spans, func(v int64, n int) { st.addIntRun(v, int64(n)) })
				continue
			}
			vals := ctx.ints(a.Col)
			nulls := col.Nulls
			for _, sp := range spans {
				for i := sp.Start; i < sp.End; i++ {
					if nulls != nil && nulls.Get(int(i)) {
						continue
					}
					st.addInt(vals[i])
				}
			}
		case types.Float64:
			if rle, ok := col.Ints.(*codec.RLE); ok && col.Nulls == nil {
				eachRun(rle, spans, func(v int64, n int) {
					st.addFloatRun(math.Float64frombits(uint64(v)), n)
				})
				continue
			}
			raw := ctx.ints(a.Col)
			nulls := col.Nulls
			for _, sp := range spans {
				for i := sp.Start; i < sp.End; i++ {
					if nulls != nil && nulls.Get(int(i)) {
						continue
					}
					st.addFloat(math.Float64frombits(uint64(raw[i])))
				}
			}
		default:
			for _, sp := range spans {
				for i := sp.Start; i < sp.End; i++ {
					st.add(seg.ValueAt(int(i), a.Col))
				}
			}
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
			lo, hi := rs, re
			if lo < int(sp.Start) {
				lo = int(sp.Start)
			}
			if hi > int(sp.End) {
				hi = int(sp.End)
			}
			if hi > lo {
				f(v, hi-lo)
			}
		}
	}
}

// specAccessor resolves one AggSpec's segment access once per segment, so
// the per-row fold is an unboxed add off a decoded slice for plain column
// specs, and only expression specs pay for a materialized row.
type specAccessor struct {
	countStar bool
	expr      bool
	isFloat   bool
	isStr     bool
	ints      []int64
	strs      []string
	nulls     *bitmap.Bitmap
}

// buildAccessors resolves the per-spec accessors against one segment.
// hasExpr reports whether any spec needs a materialized expression-input
// row.
func (u *aggFuser) buildAccessors(ctx *SegContext) ([]specAccessor, bool) {
	seg := ctx.Meta.Seg
	accs := make([]specAccessor, len(u.aggs))
	hasExpr := false
	for ai, a := range u.aggs {
		switch {
		case a.Func == Count && a.Expr == nil && a.Col < 0:
			accs[ai].countStar = true
		case a.Expr != nil:
			accs[ai].expr = true
			hasExpr = true
		default:
			accs[ai].nulls = seg.Cols[a.Col].Nulls
			switch seg.Schema().Columns[a.Col].Type {
			case types.Int64:
				accs[ai].ints = ctx.ints(a.Col)
			case types.Float64:
				accs[ai].ints = ctx.ints(a.Col)
				accs[ai].isFloat = true
			default:
				accs[ai].strs = ctx.strs(a.Col)
				accs[ai].isStr = true
			}
		}
	}
	return accs, hasExpr
}

// exprMaterializer builds a row materializer covering only the
// expressions' declared input columns (classify guarantees ExprCols is set
// on every expression spec), or nil when no spec needs a row at all —
// plain-column aggregation materializes nothing.
func (u *aggFuser) exprMaterializer(ctx *SegContext, spans []Span) func(i int) types.Row {
	var proj []int
	for _, a := range u.aggs {
		if a.Expr != nil {
			proj = append(proj, a.ExprCols...)
		}
	}
	if proj == nil {
		return nil
	}
	return ctx.Materializer(proj, spanRows(spans)*4 >= ctx.Meta.Seg.NumRows)
}

// foldState folds row i into one state vector through the accessors; r is
// the materialized expression-input row (nil when no spec reads one). The
// unboxed adds accumulate exactly as the general path's boxed
// aggState.add, and expression specs keep the boxed call, so the states —
// including float bit patterns — are byte-identical to the general path's.
func (u *aggFuser) foldState(states []aggState, accs []specAccessor, i int, r types.Row) {
	for ai := range accs {
		ac := &accs[ai]
		st := &states[ai]
		switch {
		case ac.countStar:
			st.count++
		case ac.expr:
			v := u.aggs[ai].Expr(r)
			u.resultType[ai] = v.Type
			st.add(v)
		case ac.nulls != nil && ac.nulls.Get(i):
		case ac.isStr:
			st.addStr(ac.strs[i])
		case ac.isFloat:
			st.addFloat(math.Float64frombits(uint64(ac.ints[i])))
		default:
			st.addInt(ac.ints[i])
		}
	}
}

// dictGroupSeg is the encoded group-by of §2.1.2: per-dictionary-code
// partial states accumulated with unboxed adds — one bit-packed code load
// per row, string values touched once per distinct value — folded into the
// shared group table in code order. Dict mode only classifies for plain
// aggregates, so no expression row is ever needed.
func (u *aggFuser) dictGroupSeg(ctx *SegContext, spans []Span) {
	seg := ctx.Meta.Seg
	d := seg.Cols[u.groupCols[0]].Strs.(*codec.Dict)
	if ctx.Stats != nil {
		ctx.Stats.EncodedFilters++ // counted with encoded ops
	}
	aggs := u.aggs
	states := make([][]aggState, d.DictSize())
	accs, _ := u.buildAccessors(ctx)
	for _, sp := range spans {
		for i := sp.Start; i < sp.End; i++ {
			code := d.Code(int(i))
			st := states[code]
			if st == nil {
				st = make([]aggState, len(aggs))
				states[code] = st
			}
			u.foldState(st, accs, int(i), nil)
		}
	}
	for code, st := range states {
		if st == nil {
			continue
		}
		g := u.touch(types.Row{types.NewString(d.DictValue(code))})
		for ai := range aggs {
			g.states[ai].merge(&st[ai])
		}
	}
}

// globalRowSeg folds expression aggregates row-outer: plain column specs
// accumulate unboxed straight off the decoded slices, only the
// expressions' input columns materialize, and the single global group
// resolves once instead of per row (no EncodeKey, no map probe).
func (u *aggFuser) globalRowSeg(ctx *SegContext, spans []Span) {
	g := u.touch(nil)
	accs, _ := u.buildAccessors(ctx)
	mat := u.exprMaterializer(ctx, spans)
	var r types.Row
	for _, sp := range spans {
		for i := sp.Start; i < sp.End; i++ {
			if mat != nil {
				r = mat(int(i))
			}
			u.foldState(g.states, accs, int(i), r)
		}
	}
}

// codeGroupSeg groups by the combined dictionary code of all group columns:
// one mixed-radix code per row indexes a per-segment group-pointer array,
// so group resolution costs an array load after the first sight. Groups are
// created via touch in first-seen row order — the general path's order.
// Plain column specs accumulate unboxed; only expression inputs
// materialize.
func (u *aggFuser) codeGroupSeg(ctx *SegContext, spans []Span) {
	seg := ctx.Meta.Seg
	dicts := make([]*codec.Dict, len(u.groupCols))
	codes := 1
	for k, c := range u.groupCols {
		dicts[k] = seg.Cols[c].Strs.(*codec.Dict)
		codes *= dicts[k].DictSize()
	}
	groupPtr := make([]*aggGroup, codes)
	accs, _ := u.buildAccessors(ctx)
	mat := u.exprMaterializer(ctx, spans)
	key := make(types.Row, len(u.groupCols))
	var r types.Row
	for _, sp := range spans {
		for i := sp.Start; i < sp.End; i++ {
			code := 0
			for k := range dicts {
				code = code*dicts[k].DictSize() + dicts[k].Code(int(i))
			}
			g := groupPtr[code]
			if g == nil {
				c := code
				for k := len(dicts) - 1; k >= 0; k-- {
					size := dicts[k].DictSize()
					key[k] = types.NewString(dicts[k].DictValue(c % size))
					c /= size
				}
				g = u.touch(key)
				groupPtr[code] = g
			}
			if mat != nil {
				r = mat(int(i))
			}
			u.foldState(g.states, accs, int(i), r)
		}
	}
}
