package exec

import (
	"context"

	"s2db/internal/colstore"
	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// Scan drives filtered data access over a table view, implementing the
// three steps of §5: (1) find the segments to read — via the global
// secondary indexes and zone maps (§5.1), (2) run filters per segment to a
// selection of surviving spans (§5.2), (3) selectively decode the surviving
// rows. RunSegments is the one segment driver; Run, Count, Aggregate and the
// hash join's probe side all consume its spans. Ctx is the scan's only
// cancellation.
type Scan struct {
	View   *core.View
	Filter Node // nil scans everything
	// Stats accumulates adaptive-execution counters.
	Stats ScanStats
	// DisableIndexSkipping turns off step-1 index use (ablation).
	DisableIndexSkipping bool
	// Project lists the only columns Run must materialize (nil = all) —
	// late materialization's projection pushdown.
	Project []int
	// Ctx cancels the scan: it is polled between segments and every 1 024
	// buffer rows, and it bounds hydration waits on cold (lazily restored)
	// segments, so a cancelled Ctx aborts a scan blocked on a payload fetch
	// without aborting the shared fetch itself. nil never cancels.
	Ctx context.Context
	// Err records a terminal scan failure — a cold segment whose payload
	// fetch or decode failed, or a cancelled hydration wait. The scan stops
	// early; drivers must treat the partial output as invalid.
	Err error

	vec         *VecCache
	vecResolved bool
}

// cache resolves the decoded-vector cache serving this scan's view, once
// per scan. It is nil when the table has no cache configured.
func (s *Scan) cache() *VecCache {
	if s.vecResolved {
		return s.vec
	}
	s.vecResolved = true
	if c, ok := s.View.DecodedCache().(*VecCache); ok && c != nil {
		s.vec = c
	}
	return s.vec
}

// NewScan builds a scan over a view.
func NewScan(view *core.View, filter Node) *Scan {
	return &Scan{View: view, Filter: filter}
}

// eqProbe describes an indexable equality or IN clause usable for segment
// skipping.
type eqProbe struct {
	col  int
	vals []types.Value
}

// conjuncts returns the filter's top-level comparison clauses: the filter
// itself when it is a Leaf, or the Leaf children of an And.
func conjuncts(n Node) []*Leaf {
	switch f := n.(type) {
	case *Leaf:
		return []*Leaf{f}
	case *And:
		var leaves []*Leaf
		for _, c := range f.Children {
			if l, ok := c.(*Leaf); ok {
				leaves = append(leaves, l)
			}
		}
		return leaves
	}
	return nil
}

// Pins returns the top-level equalities (`col = literal`, no IN-list) a
// filter pins — the input types.Schema.Place derives a statement's buffer
// key range and owning partition from.
func Pins(n Node) []types.Pin {
	var pins []types.Pin
	for _, l := range conjuncts(n) {
		if len(l.In) == 0 && l.Op == vector.Eq {
			pins = append(pins, types.Pin{Col: l.Col, Val: l.Val})
		}
	}
	return pins
}

// indexableProbes extracts top-level conjunction clauses that can use the
// global index for segment selection: equalities on indexed columns.
func (s *Scan) indexableProbes() []eqProbe {
	idx := s.View.Index()
	if idx == nil || s.Filter == nil || s.DisableIndexSkipping {
		return nil
	}
	var probes []eqProbe
	for _, l := range conjuncts(s.Filter) {
		if !idx.HasColumn(l.Col) {
			continue
		}
		switch {
		case len(l.In) > 0:
			probes = append(probes, eqProbe{col: l.Col, vals: l.In})
		case l.Op == vector.Eq && !l.Val.IsNull:
			probes = append(probes, eqProbe{col: l.Col, vals: []types.Value{l.Val}})
		}
	}
	return probes
}

// candidateSegments applies §5.1: the secondary-index check runs first
// (O(log N) probes), and its result restricts the zone-map checks. It
// returns the indices into View.Segs to scan.
func (s *Scan) candidateSegments() []int {
	view := s.View
	all := make([]int, 0, len(view.Segs))
	// Segments not yet hydrated are absent from the secondary indexes, so
	// index-based skipping must never eliminate them. Snapshot hydration
	// state *before* probing: a segment hydrating concurrently may not have
	// been indexed when the probe ran.
	var cold []bool
	for i, m := range view.Segs {
		if !m.Seg.Hydrated() {
			if cold == nil {
				cold = make([]bool, len(view.Segs))
			}
			cold[i] = true
		}
	}
	// Step 1a: global-index candidates.
	probes := s.indexableProbes()
	var allowed map[uint64]bool
	if len(probes) > 0 {
		// "S2DB dynamically disables the use of a secondary index if the
		// number of keys to look up is too high relative to the table
		// size" (§5.1): one key per live segment, and at least 8.
		maxKeys := max(len(view.Segs), 8)
		for _, p := range probes {
			if len(p.vals) > maxKeys {
				continue // dynamically disabled: too many probe keys
			}
			cand := map[uint64]bool{}
			for _, v := range p.vals {
				matches, probes := view.Index().LookupColumn(p.col, v)
				s.Stats.GlobalIndexProbes += int64(probes)
				for _, m := range matches {
					cand[m.SegID] = true
				}
			}
			if allowed == nil {
				allowed = cand
			} else {
				for id := range allowed {
					if !cand[id] {
						delete(allowed, id)
					}
				}
			}
		}
	}
	// Step 1b: zone maps on the remaining candidates.
	zoneLeaves := conjuncts(s.Filter)
	for i, m := range view.Segs {
		if allowed != nil && !allowed[m.Seg.ID] && (cold == nil || !cold[i]) {
			s.Stats.SegmentsSkipped++
			continue
		}
		if zoneEliminates(m.Seg, zoneLeaves) {
			s.Stats.SegmentsSkipped++
			continue
		}
		all = append(all, i)
	}
	return all
}

// zoneEliminates reports whether the segment's zone maps rule out every
// row for one of the filter's top-level clauses.
func zoneEliminates(seg *colstore.Segment, leaves []*Leaf) bool {
	for _, l := range leaves {
		if len(l.In) > 0 || l.Val.IsNull {
			continue
		}
		if !seg.MayContain(l.Col, int(l.Op), l.Val) {
			return true
		}
	}
	return false
}

// waitHydrated blocks until the view's si-th segment has its payload
// resident, demand-prioritizing it on the hydrator and queueing the rest
// of the view as readahead. It returns false — with s.Err set — when the
// wait was cancelled or the fetch failed terminally; the scan must stop.
func (s *Scan) waitHydrated(si int) bool {
	s.Stats.HydrationWaits++
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.View.HydrateSegment(ctx, si); err != nil {
		s.Err = err
		return false
	}
	s.Stats.HydratedSegs++
	return true
}

// RunSegments calls f once per candidate segment that has surviving rows,
// with the live (non-deleted) rows that pass the filter as coalesced spans —
// a single span when the segment has no deletes and no filter. The
// SegContext's decode caches are shared with f, so aggregations reuse the
// filter's column decodes. Both spans and any rows materialized through the
// SegContext are backed by pooled buffers valid only until f returns; retain
// copies, not the slices.
func (s *Scan) RunSegments(f func(ctx *SegContext, spans []Span)) {
	vec := s.cache()
	for _, si := range s.candidateSegments() {
		if s.Ctx != nil && s.Ctx.Err() != nil {
			return
		}
		meta := s.View.Segs[si]
		if !meta.Seg.Hydrated() && !s.waitHydrated(si) {
			return
		}
		s.Stats.SegmentsScanned++
		s.Stats.RowsScanned += int64(meta.Seg.NumRows)
		ctx := NewSegContext(meta, s.View.Index(), &s.Stats)
		ctx.Cache = vec
		s.filterSegment(ctx, f)
	}
}

// filterSegment runs the filter over the live rows of ctx's segment and
// calls f with the surviving spans, if any.
func (s *Scan) filterSegment(ctx *SegContext, f func(ctx *SegContext, spans []Span)) {
	liveBuf, outBuf := getSpans(), getSpans()
	defer putSpans(liveBuf)
	defer putSpans(outBuf)
	spans := liveSpans(ctx.Meta, (*liveBuf)[:0])
	*liveBuf = spans[:0]
	if s.Filter != nil {
		spans = s.Filter.EvalSpans(ctx, spans, (*outBuf)[:0])
		*outBuf = spans[:0]
		if ctx.image == nil {
			s.Stats.EncodedFilterSegs++
		}
	}
	if n := spanRows(spans); n > 0 {
		s.Stats.RowsOutput += int64(n)
		f(ctx, spans)
	}
	ctx.releaseBuffers()
}

// RunBuffer reads the in-memory write buffer. When the filter pins a
// unique-key prefix or a whole secondary key it seeks that key range of
// the skiplist, or that key in the buffer's secondary index, instead of
// walking the whole buffer (§2.1.1, §4.1.1: the rowstore is indexed), so
// an equality statement visits O(matches) rows, each evaluated row by row
// and passed to f. A full scan reads the buffer's columnar image instead
// when the view has one (core.View.BufferImage): the image goes through
// the segment kernels like a segment — zone maps, live spans, the filter —
// and seg receives its surviving spans, as from RunSegments; only the
// delta rows take the row path. The image is never index-probed and never
// served from the shared vector cache.
func (s *Scan) RunBuffer(f func(r types.Row) bool, seg func(ctx *SegContext, spans []Span)) {
	visit := func(r types.Row) bool {
		s.Stats.BufferRowsScanned++
		if s.Ctx != nil && s.Stats.BufferRowsScanned&1023 == 0 && s.Ctx.Err() != nil {
			return false
		}
		if s.Filter == nil || s.Filter.EvalRow(r) {
			s.Stats.RowsOutput++
			return f(r)
		}
		return true
	}
	var p types.Placement
	if s.Filter != nil {
		p = s.View.Schema.Place(Pins(s.Filter))
	}
	if !p.Seeks() {
		if img, ok := s.View.BufferImage(); ok {
			if img.Built {
				s.Stats.BufferImageBuilds++
			}
			s.Stats.BufferImageRows += int64(img.Meta.LiveRows())
			if !zoneEliminates(img.Meta.Seg, conjuncts(s.Filter)) {
				ctx := NewSegContext(img.Meta, nil, &s.Stats)
				ctx.image = img.Vectors
				s.filterSegment(ctx, seg)
			}
			for _, r := range img.Delta {
				if !visit(r) {
					return
				}
			}
			return
		}
	}
	s.View.ScanBufferAt(p, visit)
}

// Run materializes every matching row (buffer and segments). The emitted
// row may be reused between calls: callers that retain rows must Clone
// them.
func (s *Scan) Run(emit func(r types.Row) bool) {
	stop := false
	segment := func(ctx *SegContext, spans []Span) {
		if stop {
			return
		}
		// Dense selections amortize one DecodeAll per column; sparse ones
		// seek per row (the adaptive materialization choice of §5).
		mat := ctx.Materializer(s.Project, spanRows(spans)*4 >= ctx.Meta.Seg.NumRows)
		for _, sp := range spans {
			for i := sp.Start; i < sp.End; i++ {
				if !emit(mat(int(i))) {
					stop = true
					return
				}
			}
		}
	}
	s.RunBuffer(func(r types.Row) bool {
		stop = stop || !emit(r)
		return !stop
	}, segment)
	if !stop {
		s.RunSegments(segment)
	}
}

// Count returns the number of matching rows without materializing them.
// With no filter the segment side answers from metadata alone — per-segment
// live-row counts — touching no column vector; only the in-memory write
// buffer is read, for MVCC visibility at the view's timestamp.
func (s *Scan) Count() int64 {
	var n int64
	spans := func(_ *SegContext, spans []Span) { n += int64(spanRows(spans)) }
	s.RunBuffer(func(types.Row) bool { n++; return true }, spans)
	if s.Filter == nil {
		var segRows int64
		for _, m := range s.View.Segs {
			segRows += int64(m.LiveRows())
		}
		s.Stats.RowsOutput += segRows
		return n + segRows
	}
	s.RunSegments(spans)
	return n
}
