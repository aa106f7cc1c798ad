// Parallel partition fan-out: the aggregator side of §2/§5 runs one scan
// task per leaf partition concurrently on a bounded worker pool and merges
// the partial results (rows, counts, or partial aggregate tables) in
// deterministic view order. Each task gets its own filter-tree clone (the
// adaptive nodes carry mutable statistics) and its own ScanStats; the
// coordinator folds stats only after the pool joins, so the whole path is
// race-free under `go test -race`. Workers share the process-wide
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

// fanWidth is the worker-slot demand of a fan-out: the resolved
// parallelism, never wider than the task count, never below one.
func fanWidth(parallelism, n int) int {
	w := DefaultParallelism(parallelism)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runTasks executes fn(0..n-1) on at most parallelism workers. Workers stop
// claiming new tasks once ctx is done; the error is ctx.Err() in that case.
// In-flight tasks are responsible for observing ctx themselves (scans poll
// it via Scan.Cancel).
func runTasks(ctx context.Context, n, parallelism int, fn func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
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

// cancelledScan wires a context into a Scan's cancellation hook and its
// hydration waits: cancellation aborts a scan blocked on a cold segment's
// payload fetch without aborting the shared fetch.
func cancelledScan(ctx context.Context, view *core.View, filter Node) *Scan {
	s := NewScan(view, filter)
	s.Cancel = func() bool { return ctx.Err() != nil }
	s.Ctx = ctx
	return s
}

// firstScanErr folds per-task scan errors: the first terminal failure
// (failed hydration fetch) wins; a context.Canceled from a scan whose
// driver deliberately cancelled it (early limit) is not an error unless
// the caller's own ctx is dead too.
func firstScanErr(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			continue
		}
		return err
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
	wl, width, err := adm.admitWorkers(ctx, fanWidth(parallelism, len(views)))
	if err != nil {
		return nil, err
	}
	defer wl.Release()
	foldLeaseWait(stats, wl)
	p := newAggPlan(groupCols, aggs)
	partials := make([][]types.Row, len(views))
	perStats := make([]ScanStats, len(views))
	perErr := make([]error, len(views))
	err = runTasks(ctx, len(views), width, func(i int) {
		ml, err := adm.admitScan(ctx, views[i])
		if err != nil {
			perErr[i] = err
			return
		}
		defer ml.Release()
		f := CloneNode(filter)
		scan := cancelledScan(ctx, views[i], f)
		partials[i] = p.partial(views[i], f, scan)
		perStats[i] = scan.Stats
		perErr[i] = scan.Err
		foldLeaseWait(&perStats[i], ml)
	})
	if err != nil {
		return nil, err
	}
	if serr := firstScanErr(ctx, perErr); serr != nil {
		return nil, serr
	}
	if stats != nil {
		for i := range perStats {
			accumulate(stats, perStats[i])
		}
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
	wl, width, err := adm.admitWorkers(ctx, fanWidth(parallelism, len(views)))
	if err != nil {
		return nil, err
	}
	defer wl.Release()
	foldLeaseWait(stats, wl)
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	perView := make([][]types.Row, len(views))
	perStats := make([]ScanStats, len(views))
	perErr := make([]error, len(views))
	var mu sync.Mutex
	done := make([]bool, len(views))
	// prefixSatisfied cancels trailing scans once views 0..k are all done
	// and together hold earlyLimit rows. Called with mu held.
	prefixSatisfied := func() {
		if earlyLimit < 0 {
			return
		}
		total := 0
		for i := range views {
			if !done[i] {
				return
			}
			total += len(perView[i])
			if total >= earlyLimit {
				cancel()
				return
			}
		}
	}
	err = runTasks(sub, len(views), width, func(i int) {
		ml, merr := adm.admitScan(sub, views[i])
		if merr != nil {
			mu.Lock()
			perErr[i] = merr
			done[i] = true
			mu.Unlock()
			return
		}
		defer ml.Release()
		scan := cancelledScan(sub, views[i], CloneNode(filter))
		var out []types.Row
		scan.Run(func(r types.Row) bool {
			out = append(out, r.Clone())
			return earlyLimit < 0 || len(out) < earlyLimit
		})
		mu.Lock()
		perView[i] = out
		perStats[i] = scan.Stats
		perErr[i] = scan.Err
		foldLeaseWait(&perStats[i], ml)
		done[i] = true
		prefixSatisfied()
		mu.Unlock()
	})
	// Early-limit cancellation is success; only the caller's ctx is an error.
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// A scan cancelled by the early-limit sub-context is success; a scan
	// that died on a failed hydration fetch is not.
	if serr := firstScanErr(ctx, perErr); serr != nil {
		return nil, serr
	}
	var out []types.Row
	for i := range perView {
		out = append(out, perView[i]...)
		if earlyLimit >= 0 && len(out) >= earlyLimit {
			out = out[:earlyLimit]
			break
		}
	}
	if stats != nil {
		for i := range perStats {
			accumulate(stats, perStats[i])
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
	wl, width, err := adm.admitWorkers(ctx, fanWidth(parallelism, len(views)))
	if err != nil {
		return 0, err
	}
	defer wl.Release()
	foldLeaseWait(stats, wl)
	perCount := make([]int64, len(views))
	perStats := make([]ScanStats, len(views))
	perErr := make([]error, len(views))
	err = runTasks(ctx, len(views), width, func(i int) {
		ml, err := adm.admitScan(ctx, views[i])
		if err != nil {
			perErr[i] = err
			return
		}
		defer ml.Release()
		scan := cancelledScan(ctx, views[i], CloneNode(filter))
		perCount[i] = scan.Count()
		perStats[i] = scan.Stats
		perErr[i] = scan.Err
		foldLeaseWait(&perStats[i], ml)
	})
	if err != nil {
		return 0, err
	}
	if serr := firstScanErr(ctx, perErr); serr != nil {
		return 0, serr
	}
	var n int64
	for i := range perCount {
		n += perCount[i]
	}
	if stats != nil {
		for i := range perStats {
			accumulate(stats, perStats[i])
		}
	}
	return n, nil
}
