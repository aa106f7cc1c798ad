// Parallel partition fan-out: the aggregator side of §2/§5 runs one scan
// task per leaf partition concurrently on a bounded worker pool and merges
// the partial results (rows, counts, or partial aggregate tables) in
// deterministic view order. Every partitioned read — aggregate, collect,
// count — goes through one driver, fanOut: it leases the worker slots and
// each task's scan memory from the QoS governor, gives each task its own
// filter-tree clone (the adaptive nodes carry mutable statistics), a scan
// cancelled through its context, and its own ScanStats, and folds waits,
// errors and stats only after the pool joins, so the whole path is
// race-free under `go test -race`. The entry points hold only their
// per-view work and their merge. Workers share the process-wide
// decoded-vector cache through their views: N workers hitting the same
// cold segment column decode it once (single-flight) and the per-worker
// VecCache* counters fold into the coordinator's stats like every other
// counter.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"s2db/internal/core"
	"s2db/internal/qos"
	"s2db/internal/types"
)

// Admission carries the QoS governor and the tenant a fan-out runs as.
// The zero value (nil governor) admits everything — the ungoverned
// path used by the plain fan-out entry points.
type Admission struct {
	Gov    *qos.Governor
	Tenant string
}

// admitWorkers leases fan-out worker slots: elastically between 1 and
// want, so a busy tenant's query narrows before it sheds. The granted
// width replaces the requested parallelism.
func (a Admission) admitWorkers(ctx context.Context, want int) (*qos.Lease, int, error) {
	if a.Gov == nil {
		return nil, want, nil
	}
	l, got, err := a.Gov.AcquireUpTo(ctx, a.Tenant, qos.Workers, 1, int64(want))
	return l, int(got), err
}

// admitScan leases scan/materialization memory for one view's task,
// estimated from the view's row and column counts. The estimate is
// elastic down to a quarter: scans process one segment at a time, so a
// quarter of the decoded working set is enough to make progress.
func (a Admission) admitScan(ctx context.Context, v *core.View) (*qos.Lease, error) {
	if a.Gov == nil {
		return nil, nil
	}
	est := scanMemEstimate(v)
	l, _, err := a.Gov.AcquireUpTo(ctx, a.Tenant, qos.ScanMem, est/4+1, est)
	return l, err
}

// scanMemEstimate approximates a view's decoded working set: rows ×
// columns × 8 bytes (fixed-width vector cells; strings dominate above
// that, but admission needs a stable, cheap estimate, not a census).
func scanMemEstimate(v *core.View) int64 {
	var rows int64
	for _, m := range v.Segs {
		rows += int64(m.Seg.NumRows)
	}
	est := rows * int64(len(v.Schema.Columns)) * 8
	if est < 1 {
		est = 1
	}
	return est
}

// foldLeaseWait records a granted lease's queue time into per-task
// stats so Explain can show where admission throttled the run.
func foldLeaseWait(s *ScanStats, leases ...*qos.Lease) {
	if s == nil {
		return
	}
	for _, l := range leases {
		if l != nil && l.Waited > 0 {
			s.QoSWaits++
			s.QoSWaitNanos += int64(l.Waited)
		}
	}
}

// DefaultParallelism resolves a worker-pool size: n when positive,
// otherwise GOMAXPROCS.
func DefaultParallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// runTasks executes fn(0..n-1) on the given number of workers, one at a
// time in index order when workers <= 1. Workers stop claiming new tasks
// once ctx is done; the error is ctx.Err() in that case. In-flight tasks
// are responsible for observing ctx themselves (scans poll Scan.Ctx).
func runTasks(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// viewRun is one fan-out task's outcome: its scan's stats (with its lease
// wait folded in) and its terminal error.
type viewRun struct {
	stats ScanStats
	err   error
}

// fanOut is the one partitioned read driver: it leases up to parallelism
// worker slots (never more than one per view), then runs task once per
// view on the pool. Each task first leases its view's scan memory and gets
// a scan over its own clone of filter (the adaptive nodes carry mutable
// statistics) that polls scanCtx. scanCtx is ctx itself, or a sub-context
// the caller cancels once it needs no more rows; only the end of ctx is an
// error. Once the pool joins, fanOut returns ctx.Err() or the first
// terminal scan error, else folds every lease wait and scan's stats into
// stats in view order.
func fanOut(ctx, scanCtx context.Context, views []*core.View, filter Node, parallelism int, stats *ScanStats, adm Admission, task func(i int, s *Scan)) error {
	wl, width, err := adm.admitWorkers(ctx, max(min(DefaultParallelism(parallelism), len(views)), 1))
	if err != nil {
		return err
	}
	defer wl.Release()
	foldLeaseWait(stats, wl)
	runs := make([]viewRun, len(views))
	err = runTasks(scanCtx, len(views), width, func(i int) {
		ml, err := adm.admitScan(scanCtx, views[i])
		if err != nil {
			runs[i].err = err
			return
		}
		defer ml.Release()
		scan := NewScan(views[i], CloneNode(filter))
		scan.Ctx = scanCtx
		task(i, scan)
		runs[i] = viewRun{scan.Stats, scan.Err}
		foldLeaseWait(&runs[i].stats, ml)
	})
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	// The first terminal failure (a shed lease, a failed hydration fetch)
	// wins. A scan cancelled through scanCtx alone (early limit) is not an
	// error.
	for i := range runs {
		if err := runs[i].err; err != nil && (ctx.Err() != nil || !errors.Is(err, context.Canceled)) {
			return err
		}
	}
	if stats != nil {
		for i := range runs {
			accumulate(stats, runs[i].stats)
		}
	}
	return nil
}

// AggregateViewsParallel is the fan-out counterpart of AggregateViews: one
// partial aggregation per view runs on the worker pool, then partials merge
// in view order (deterministic, identical to the sequential result). A
// cancelled ctx aborts in-flight scans and returns ctx.Err().
func AggregateViewsParallel(ctx context.Context, views []*core.View, filter Node, groupCols []int, aggs []AggSpec, parallelism int, stats *ScanStats) ([]types.Row, error) {
	return AggregateViewsAdmitted(ctx, views, filter, groupCols, aggs, parallelism, stats, Admission{})
}

// AggregateViewsAdmitted is AggregateViewsParallel under QoS admission:
// the fan-out width is leased from the tenant's worker-slot budget
// (narrowing elastically under pressure) and each per-view task leases
// scan memory before running. A shed surfaces as the tenant's typed
// qos.ErrOverloaded.
func AggregateViewsAdmitted(ctx context.Context, views []*core.View, filter Node, groupCols []int, aggs []AggSpec, parallelism int, stats *ScanStats, adm Admission) ([]types.Row, error) {
	p := newAggPlan(groupCols, aggs)
	partials := make([][]types.Row, len(views))
	if err := fanOut(ctx, ctx, views, filter, parallelism, stats, adm, func(i int, s *Scan) {
		partials[i] = p.partial(views[i], s.Filter, s)
	}); err != nil {
		return nil, err
	}
	return p.mergeFinalize(partials), nil
}

// CollectRows materializes matching rows from every view concurrently,
// concatenating per-view results in view order so the output matches the
// sequential scan exactly. earlyLimit >= 0 enables early termination for
// Limit queries with no ordering or grouping: each view stops after
// earlyLimit rows, and once a completed prefix of views already holds
// earlyLimit rows the trailing scans are cancelled (their rows cannot make
// the result).
func CollectRows(ctx context.Context, views []*core.View, filter Node, earlyLimit int, parallelism int, stats *ScanStats) ([]types.Row, error) {
	return CollectRowsAdmitted(ctx, views, filter, earlyLimit, parallelism, stats, Admission{})
}

// CollectRowsAdmitted is CollectRows under QoS admission (see
// AggregateViewsAdmitted for the leasing contract).
func CollectRowsAdmitted(ctx context.Context, views []*core.View, filter Node, earlyLimit int, parallelism int, stats *ScanStats, adm Admission) ([]types.Row, error) {
	if earlyLimit == 0 {
		return nil, ctx.Err()
	}
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	perView := make([][]types.Row, len(views))
	var mu sync.Mutex
	done := make([]bool, len(views))
	err := fanOut(ctx, sub, views, filter, parallelism, stats, adm, func(i int, s *Scan) {
		var out []types.Row
		s.Run(func(r types.Row) bool {
			out = append(out, r.Clone())
			return earlyLimit < 0 || len(out) < earlyLimit
		})
		mu.Lock()
		defer mu.Unlock()
		perView[i] = out
		done[i] = true
		if earlyLimit < 0 {
			return
		}
		// Cancel the trailing scans once views 0..k are all done and
		// together hold earlyLimit rows.
		total := 0
		for j := range views {
			if !done[j] {
				return
			}
			if total += len(perView[j]); total >= earlyLimit {
				cancel()
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var out []types.Row
	for i := range perView {
		out = append(out, perView[i]...)
		if earlyLimit >= 0 && len(out) >= earlyLimit {
			out = out[:earlyLimit]
			break
		}
	}
	return out, nil
}

// CountViews counts matching rows across views on the worker pool. The sum
// is order-independent, so no merge ordering is needed.
func CountViews(ctx context.Context, views []*core.View, filter Node, parallelism int, stats *ScanStats) (int64, error) {
	return CountViewsAdmitted(ctx, views, filter, parallelism, stats, Admission{})
}

// CountViewsAdmitted is CountViews under QoS admission (see
// AggregateViewsAdmitted for the leasing contract).
func CountViewsAdmitted(ctx context.Context, views []*core.View, filter Node, parallelism int, stats *ScanStats, adm Admission) (int64, error) {
	perCount := make([]int64, len(views))
	if err := fanOut(ctx, ctx, views, filter, parallelism, stats, adm, func(i int, s *Scan) {
		perCount[i] = s.Count()
	}); err != nil {
		return 0, err
	}
	var n int64
	for _, c := range perCount {
		n += c
	}
	return n, nil
}
