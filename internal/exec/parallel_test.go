package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/core"
	"s2db/internal/qos"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// parallelFixture builds n single-partition tables standing in for n
// partitions of one sharded table, split between buffer and segments.
func parallelFixture(t testing.TB, parts, rows int) []*core.View {
	t.Helper()
	views := make([]*core.View, parts)
	for p := 0; p < parts; p++ {
		tbl := newTable(t, 256)
		var batch []types.Row
		for i := p; i < rows; i += parts {
			batch = append(batch, types.Row{
				types.NewInt(int64(i)),
				types.NewString(fmt.Sprintf("g%d", i%5)),
				types.NewInt(int64(i % 100)),
				types.NewFloat(float64(i) * 0.5),
			})
		}
		if _, err := tbl.BulkLoad(batch[:len(batch)/2]); err != nil {
			t.Fatal(err)
		}
		for _, r := range batch[len(batch)/2:] {
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		views[p] = tbl.Snapshot()
	}
	return views
}

func rowsEqual(t *testing.T, got, want []types.Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d arity %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if types.Compare(got[i][j], want[i][j]) != 0 {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestRunTasksBoundsConcurrency(t *testing.T) {
	var cur, peak, ran atomic.Int64
	err := runTasks(context.Background(), 64, 4, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		ran.Add(1)
		cur.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Fatalf("ran %d tasks, want 64", ran.Load())
	}
	if peak.Load() > 4 {
		t.Fatalf("peak concurrency %d exceeds pool bound 4", peak.Load())
	}
}

func TestAggregateViewsParallelMatchesSequential(t *testing.T) {
	views := parallelFixture(t, 4, 4000)
	filter := NewAnd(
		NewLeaf(2, vector.Ge, types.NewInt(10)),
		NewLeaf(1, vector.Ne, types.NewString("g3")),
	)
	groupCols := []int{1}
	aggs := []AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, Col: 2},
		{Func: Min, Col: 0},
		{Func: Max, Col: 0},
		{Func: Avg, Col: 3},
	}
	var seqStats, parStats ScanStats
	want := AggregateViews(views, CloneNode(filter), groupCols, aggs, &seqStats)
	got, err := AggregateViewsParallel(context.Background(), views, filter, groupCols, aggs, 8, &parStats)
	if err != nil {
		t.Fatal(err)
	}
	// The merge order is deterministic (view order), so the outputs must be
	// identical row for row, not just set-equal.
	rowsEqual(t, got, want, "parallel group-by")
	if parStats.RowsScanned != seqStats.RowsScanned || parStats.SegmentsScanned != seqStats.SegmentsScanned {
		t.Fatalf("parallel stats %+v diverge from sequential %+v", parStats, seqStats)
	}
}

func TestCollectRowsMatchesSequential(t *testing.T) {
	views := parallelFixture(t, 4, 2000)
	filter := NewLeaf(2, vector.Lt, types.NewInt(50))
	var want []types.Row
	for _, v := range views {
		s := NewScan(v, CloneNode(filter))
		s.Run(func(r types.Row) bool { want = append(want, r.Clone()); return true })
	}
	got, err := CollectRows(context.Background(), views, filter, -1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, got, want, "parallel row collection")
}

func TestCollectRowsEarlyLimit(t *testing.T) {
	views := parallelFixture(t, 4, 2000)
	for _, limit := range []int{0, 1, 7, 100, 1 << 20} {
		var want []types.Row
		for _, v := range views {
			s := NewScan(v, nil)
			s.Run(func(r types.Row) bool { want = append(want, r.Clone()); return true })
		}
		if len(want) > limit {
			want = want[:limit]
		}
		got, err := CollectRows(context.Background(), views, nil, limit, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, got, want, fmt.Sprintf("early limit %d", limit))
	}
}

// cancelNode is a pass-through filter that cancels the context on its
// first evaluation, making mid-scan cancellation deterministic.
type cancelNode struct {
	cancel context.CancelFunc
	once   sync.Once
	st     nodeStats
}

func (c *cancelNode) stats() *nodeStats { return &c.st }
func (c *cancelNode) EvalRow(types.Row) bool {
	c.once.Do(c.cancel)
	return true
}
func (c *cancelNode) EvalSpans(_ *SegContext, in, out []Span) []Span {
	c.once.Do(c.cancel)
	return append(out, in...)
}

// fanOutCall runs one admitted fan-out entry point over views.
type fanOutCall func(ctx context.Context, views []*core.View, filter Node, adm Admission, stats *ScanStats) error

// coldView restores a bulk-loaded table into one whose file store holds
// none of its segment files: every segment is a stub whose payload fetch
// fails.
func coldView(t *testing.T) *core.View {
	t.Helper()
	src := newTable(t, 256)
	fill(t, src, 1000, true)
	v := src.Snapshot()
	defer v.Release()
	dst := newTable(t, 256)
	if err := dst.RestoreState(src.SerializeState(v), v.TS); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dst.Close)
	cold := dst.Snapshot()
	if len(cold.Segs) == 0 || cold.Hydrated() {
		t.Fatal("restored view holds no cold segment")
	}
	return cold
}

// TestFanOutContract runs every admitted fan-out entry point through the
// same failures: the caller's cancellation (before the call and mid-scan)
// returns ctx.Err(), a shed scan-memory lease returns the typed overload,
// a failed cold-segment fetch returns the fetch error, and admission
// waits show up in the stats.
func TestFanOutContract(t *testing.T) {
	views := parallelFixture(t, 4, 4000)
	cold := coldView(t)
	const tenant = "tenant"
	const scanMem = 1 << 20
	governed := func(queue int) (*qos.Governor, *qos.Lease) {
		var lim [qos.NumResources]qos.Limits
		lim[qos.ScanMem] = qos.Limits{Capacity: scanMem, QueueDepth: queue}
		gov := qos.New(qos.Config{Limits: lim})
		hold, err := gov.Acquire(context.Background(), tenant, qos.ScanMem, scanMem)
		if err != nil {
			t.Fatal(err)
		}
		return gov, hold
	}
	entries := []struct {
		name string
		call func(width int) fanOutCall
	}{
		{"aggregate", func(width int) fanOutCall {
			return func(ctx context.Context, views []*core.View, filter Node, adm Admission, stats *ScanStats) error {
				_, err := AggregateViewsAdmitted(ctx, views, filter, []int{1}, []AggSpec{{Func: Count, Col: -1}}, width, stats, adm)
				return err
			}
		}},
		{"collect", func(width int) fanOutCall {
			return func(ctx context.Context, views []*core.View, filter Node, adm Admission, stats *ScanStats) error {
				_, err := CollectRowsAdmitted(ctx, views, filter, -1, width, stats, adm)
				return err
			}
		}},
		{"collect-early-limit", func(width int) fanOutCall {
			return func(ctx context.Context, views []*core.View, filter Node, adm Admission, stats *ScanStats) error {
				_, err := CollectRowsAdmitted(ctx, views, filter, 5, width, stats, adm)
				return err
			}
		}},
		{"count", func(width int) fanOutCall {
			return func(ctx context.Context, views []*core.View, filter Node, adm Admission, stats *ScanStats) error {
				_, err := CountViewsAdmitted(ctx, views, filter, width, stats, adm)
				return err
			}
		}},
	}
	cases := []struct {
		name  string
		check func(t *testing.T, call fanOutCall)
	}{
		{"pre-cancelled", func(t *testing.T, call fanOutCall) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := call(ctx, views, nil, Admission{}, nil); err != ctx.Err() {
				t.Fatalf("err = %v, want %v", err, ctx.Err())
			}
		}},
		{"cancelled-mid-scan", func(t *testing.T, call fanOutCall) {
			ctx, cancel := context.WithCancel(context.Background())
			if err := call(ctx, views, &cancelNode{cancel: cancel}, Admission{}, nil); err != ctx.Err() {
				t.Fatalf("err = %v, want %v", err, ctx.Err())
			}
		}},
		{"scan-memory-shed", func(t *testing.T, call fanOutCall) {
			gov, hold := governed(0)
			defer hold.Release()
			err := call(context.Background(), views, nil, Admission{Gov: gov, Tenant: tenant}, nil)
			if !errors.Is(err, qos.ErrOverloaded) {
				t.Fatalf("err = %v, want a qos.ErrOverloaded shed", err)
			}
		}},
		{"failed-fetch", func(t *testing.T, call fanOutCall) {
			// The cold view goes first: an early limit satisfied by a
			// completed prefix of views would rightly skip a later one.
			filter := NewLeaf(2, vector.Eq, types.NewInt(7))
			err := call(context.Background(), append([]*core.View{cold}, views...), filter, Admission{}, nil)
			if err == nil || !strings.Contains(err.Error(), cold.Segs[0].File) {
				t.Fatalf("err = %v, want the failed fetch of %s", err, cold.Segs[0].File)
			}
		}},
		{"admission-wait", func(t *testing.T, call fanOutCall) {
			gov, hold := governed(len(views))
			var stats ScanStats
			done := make(chan error, 1)
			go func() { done <- call(context.Background(), views, nil, Admission{Gov: gov, Tenant: tenant}, &stats) }()
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
				if st, _ := gov.TenantStatsFor(tenant); st.ScanMem.Waits > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no scan-memory lease queued behind the held budget")
				}
			}
			hold.Release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if stats.QoSWaits == 0 || stats.QoSWaitNanos <= 0 {
				t.Fatalf("QoSWaits = %d (%d ns), want the queued lease", stats.QoSWaits, stats.QoSWaitNanos)
			}
		}},
	}
	for _, e := range entries {
		for _, width := range []int{1, 4} {
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/width=%d/%s", e.name, width, c.name), func(t *testing.T) {
					c.check(t, e.call(width))
				})
			}
		}
	}
}

func TestCountViewsMatchesSequential(t *testing.T) {
	views := parallelFixture(t, 4, 3000)
	filter := NewLeaf(1, vector.Eq, types.NewString("g2"))
	var want int64
	for _, v := range views {
		want += NewScan(v, CloneNode(filter)).Count()
	}
	got, err := CountViews(context.Background(), views, filter, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestResolveNames(t *testing.T) {
	views := parallelFixture(t, 1, 100)
	schema := views[0].Schema
	n, err := ResolveNames(NewAnd(
		NewNamedLeaf("val", vector.Ge, types.NewInt(5)),
		NewNamedIn("grp", []types.Value{types.NewString("g1"), types.NewString("g2")}),
	), schema)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := n.(*And)
	if !ok {
		t.Fatalf("resolved to %T", n)
	}
	if l := and.Children[0].(*Leaf); l.Col != 2 {
		t.Fatalf("val resolved to ordinal %d, want 2", l.Col)
	}
	if l := and.Children[1].(*Leaf); l.Col != 1 || len(l.In) != 2 {
		t.Fatalf("grp IN resolved to %+v", l)
	}
	if _, err := ResolveNames(NewNamedLeaf("nope", vector.Eq, types.NewInt(0)), schema); err == nil {
		t.Fatal("unknown column resolved without error")
	}
	if _, err := ResolveNames(NewLeaf(99, vector.Eq, types.NewInt(0)), schema); err == nil {
		t.Fatal("out-of-range ordinal resolved without error")
	}
	// Unresolved evaluation is a programming error and must panic loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unresolved NamedLeaf evaluated without panic")
			}
		}()
		NewNamedLeaf("x", vector.Eq, types.NewInt(0)).EvalRow(nil)
	}()
}

func TestResolveAggSpecs(t *testing.T) {
	views := parallelFixture(t, 1, 10)
	schema := views[0].Schema
	resolved, err := ResolveAggSpecs([]AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, ColName: "val"},
		{Func: Avg, ColName: "price"},
	}, schema)
	if err != nil {
		t.Fatal(err)
	}
	if resolved[1].Col != 2 || resolved[1].ColName != "" {
		t.Fatalf("sum(val) resolved to %+v", resolved[1])
	}
	if resolved[2].Col != 3 {
		t.Fatalf("avg(price) resolved to %+v", resolved[2])
	}
	if _, err := ResolveAggSpecs([]AggSpec{{Func: Sum, ColName: "zzz"}}, schema); err == nil {
		t.Fatal("unknown aggregate column resolved without error")
	}
	if _, err := ResolveAggSpecs([]AggSpec{{Func: Sum, Col: 42}}, schema); err == nil {
		t.Fatal("out-of-range aggregate ordinal resolved without error")
	}
}

func TestCloneNodeIsolatesAdaptiveState(t *testing.T) {
	orig := NewAnd(
		NewLeaf(2, vector.Ge, types.NewInt(0)),
		NewOr(NewLeaf(1, vector.Eq, types.NewString("g0")), NewLeaf(0, vector.Lt, types.NewInt(10))),
	)
	views := parallelFixture(t, 1, 500)
	clone := CloneNode(orig).(*And)
	NewScan(views[0], clone).Count()
	if clone.Children[0].(*Leaf).st.rowsIn == 0 {
		t.Fatal("clone accumulated no stats")
	}
	if orig.Children[0].(*Leaf).st.rowsIn != 0 {
		t.Fatal("evaluating a clone mutated the original tree's stats")
	}
}

// TestRunTasksOverlapsTasks proves tasks genuinely run concurrently: each
// task blocks until every other task has started, which can only complete
// if the pool overlaps them (regardless of GOMAXPROCS).
func TestRunTasksOverlapsTasks(t *testing.T) {
	const n = 4
	started := make(chan struct{}, n)
	release := make(chan struct{})
	var once sync.Once
	err := runTasks(context.Background(), n, n, func(int) {
		started <- struct{}{}
		once.Do(func() {
			for i := 0; i < n; i++ {
				<-started
			}
			close(release)
		})
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
}
