package exec

import (
	"time"

	"s2db/internal/types"
)

// Throttle wraps a filter with a simulated per-segment read latency, the
// query-side counterpart of blob.Simulator: in the separated-storage
// deployment of §3 a leaf scan pays object-store latency per data file,
// and the fan-out scheduler exists to overlap those stalls across
// partitions. Benchmarks use Throttle to reproduce that shape on hardware
// where the scans themselves are CPU-bound.
type Throttle struct {
	// Inner is the wrapped filter; nil passes every row.
	Inner Node
	// PerSegment is slept once per segment evaluation.
	PerSegment time.Duration

	st nodeStats
}

// NewThrottle wraps inner with a simulated per-segment latency.
func NewThrottle(inner Node, perSegment time.Duration) *Throttle {
	return &Throttle{Inner: inner, PerSegment: perSegment}
}

func (t *Throttle) stats() *nodeStats { return &t.st }

// EvalSpans implements Node: sleep for the simulated read, then delegate.
func (t *Throttle) EvalSpans(ctx *SegContext, in, out []Span) []Span {
	if t.PerSegment > 0 {
		time.Sleep(t.PerSegment)
	}
	if t.Inner == nil {
		return append(out, in...)
	}
	return t.Inner.EvalSpans(ctx, in, out)
}

// EvalRow implements Node. Buffer rows are in memory in every deployment
// mode, so no latency is simulated here.
func (t *Throttle) EvalRow(r types.Row) bool {
	if t.Inner == nil {
		return true
	}
	return t.Inner.EvalRow(r)
}
