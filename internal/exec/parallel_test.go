package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"s2db/internal/core"
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
		if err := tbl.BulkLoad(batch[:len(batch)/2]); err != nil {
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

func TestParallelCancellationMidScan(t *testing.T) {
	views := parallelFixture(t, 4, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	filter := &cancelNode{cancel: cancel}
	if _, err := AggregateViewsParallel(ctx, views, filter, []int{1}, []AggSpec{{Func: Count, Col: -1}}, 2, nil); err != context.Canceled {
		t.Fatalf("aggregate after mid-scan cancel: err = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	if _, err := CollectRows(ctx2, views, &cancelNode{cancel: cancel2}, -1, 2, nil); err != context.Canceled {
		t.Fatalf("collect after mid-scan cancel: err = %v, want context.Canceled", err)
	}

	ctx3, cancel3 := context.WithCancel(context.Background())
	if _, err := CountViews(ctx3, views, &cancelNode{cancel: cancel3}, 2, nil); err != context.Canceled {
		t.Fatalf("count after mid-scan cancel: err = %v, want context.Canceled", err)
	}
}

func TestParallelPreCancelled(t *testing.T) {
	views := parallelFixture(t, 2, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AggregateViewsParallel(ctx, views, nil, nil, []AggSpec{{Func: Count, Col: -1}}, 0, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := CollectRows(ctx, views, nil, -1, 0, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := CountViews(ctx, views, nil, 0, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
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
