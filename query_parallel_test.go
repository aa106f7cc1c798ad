package s2db

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"s2db/internal/exec"
)

// openParallelDB builds an 8-partition database with mixed buffer/segment
// data, the fixture for the fan-out tests.
func openParallelDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := openTestDB(t, Config{Partitions: 8})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	loadEvents(t, db, rows)
	return db
}

func sameRows(t *testing.T, got, want []Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestParallelGroupByMergeMatchesSequential(t *testing.T) {
	db := openParallelDB(t, 2000)
	build := func() *Query {
		return db.Table("events").
			Where(GtName("amount", Int(5))).
			GroupByNames("kind").
			Agg(CountAll(), SumName("amount"), MinName("id"), MaxName("id"), AvgName("score"))
	}
	want, err := build().Parallelism(1).Rows()
	if err != nil {
		t.Fatal(err)
	}
	got, err := build().Parallelism(8).Rows()
	if err != nil {
		t.Fatal(err)
	}
	// The merge is in deterministic partition order, so sequential and
	// parallel results must match exactly, not just as sets.
	sameRows(t, got, want, "group-by fan-out")
	if len(got) != 4 {
		t.Fatalf("groups = %d, want 4", len(got))
	}
}

func TestParallelOrderByLimitDeterministic(t *testing.T) {
	db := openParallelDB(t, 1500)
	run := func() []Row {
		rows, err := db.Table("events").
			GroupByNames("kind").
			Agg(CountAll(), SumName("amount")).
			OrderBy(Desc("kind")).
			Limit(3).
			Rows()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := run()
	if len(want) != 3 {
		t.Fatalf("limit ignored: %d rows", len(want))
	}
	if want[0][0].S != "k3" {
		t.Fatalf("order ignored: first group %v", want[0][0])
	}
	for i := 0; i < 20; i++ {
		sameRows(t, run(), want, fmt.Sprintf("run %d", i))
	}
}

func TestParallelPlainRowsMatchSequential(t *testing.T) {
	db := openParallelDB(t, 1200)
	want, err := db.Table("events").Where(LtName("amount", Int(20))).Parallelism(1).Rows()
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("events").Where(LtName("amount", Int(20))).Rows()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want, "plain rows")
}

func TestEarlyLimitMatchesSequential(t *testing.T) {
	db := openParallelDB(t, 1200)
	for _, limit := range []int{0, 1, 9, 5000} {
		want, err := db.Table("events").Parallelism(1).Limit(limit).Rows()
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Table("events").Limit(limit).Rows()
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want, fmt.Sprintf("limit %d", limit))
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := openParallelDB(t, 800)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Table("events").RowsCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RowsCtx on cancelled ctx: err = %v", err)
	}
	if _, err := db.Table("events").CountCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountCtx on cancelled ctx: err = %v", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := db.Table("events").GroupBy(1).Agg(CountAll()).RowsCtx(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RowsCtx past deadline: err = %v", err)
	}
}

func TestNamedColumnErrors(t *testing.T) {
	db := openParallelDB(t, 100)
	_, err := db.Table("events").Where(EqName("missing", Int(1))).Rows()
	if err == nil || !strings.Contains(err.Error(), `unknown column "missing"`) {
		t.Fatalf("filter error = %v", err)
	}
	if !strings.Contains(err.Error(), "id, kind, amount, score") {
		t.Fatalf("error does not list available columns: %v", err)
	}
	if _, err := db.Table("events").GroupByNames("nope").Agg(CountAll()).Rows(); err == nil {
		t.Fatal("unknown group-by column accepted")
	}
	if _, err := db.Table("events").Agg(SumName("nope")).Rows(); err == nil {
		t.Fatal("unknown aggregate column accepted")
	}
	if _, err := db.Table("events").OrderBy(Asc("nope")).Rows(); err == nil {
		t.Fatal("unknown order-by column accepted")
	}
	if _, err := db.Table("events").GroupByNames("kind").Agg(CountAll()).OrderBy(Asc("amount")).Rows(); err == nil {
		t.Fatal("order-by on a non-group column of an aggregate query accepted")
	}
	if _, err := db.Table("events").GroupBy(99).Agg(CountAll()).Rows(); err == nil {
		t.Fatal("out-of-range group ordinal accepted")
	}
}

func TestStatsResetPerRunAndRaceSafe(t *testing.T) {
	db := openParallelDB(t, 1000)
	q := db.Table("events").Where(EqName("kind", Str("k1")))
	if _, err := q.Rows(); err != nil {
		t.Fatal(err)
	}
	first := q.Stats()
	if first.SegmentsScanned == 0 && first.RowsOutput == 0 {
		t.Fatal("stats empty after run")
	}
	if _, err := q.Rows(); err != nil {
		t.Fatal(err)
	}
	second := q.Stats()
	// The second run hits the shared decoded-vector cache where the first
	// missed; that asymmetry is expected (and asserted), not accumulation.
	if second.VecCacheHits != first.VecCacheMisses {
		t.Fatalf("warm run should hit what the cold run missed: first %+v, second %+v", first, second)
	}
	if second.VecDecodes != 0 {
		t.Fatalf("warm run decoded %d columns, want 0", second.VecDecodes)
	}
	// The bug this guards against: counters silently accumulating across
	// repeated runs of the same Query. Normalize the cache-dependent fields
	// before comparing.
	norm := func(s exec.ScanStats) exec.ScanStats {
		s.VecCacheHits, s.VecCacheMisses, s.VecCacheWaits = 0, 0, 0
		s.VecCacheEvictions, s.VecDecodes = 0, 0
		return s
	}
	if norm(second) != norm(first) {
		t.Fatalf("stats accumulated across runs: first %+v, second %+v", first, second)
	}
}

func TestExplainReportsPlan(t *testing.T) {
	db := openParallelDB(t, 600)
	q := db.Table("events").
		Where(And(EqName("kind", Str("k2")), Gt(2, Int(10)))).
		GroupByNames("kind").
		Agg(CountAll(), SumName("amount")).
		OrderBy(Asc("kind")).
		Limit(5)
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Table != "events" || plan.Partitions != 8 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Parallelism < 1 {
		t.Fatalf("parallelism = %d", plan.Parallelism)
	}
	if !strings.Contains(plan.Filter, `kind = k2`) || !strings.Contains(plan.Filter, "amount > 10") {
		t.Fatalf("filter rendering = %q", plan.Filter)
	}
	// kind is a secondary key: its pin seeks each write buffer's
	// secondary index.
	if plan.KeySeek != "kind = k2" || plan.SeekIndex != "secondary index" {
		t.Fatalf("key seek %q (%s), want kind = k2 (secondary index)", plan.KeySeek, plan.SeekIndex)
	}
	if len(plan.GroupBy) != 1 || plan.GroupBy[0] != "kind" {
		t.Fatalf("group-by = %v", plan.GroupBy)
	}
	if len(plan.Aggregates) != 2 || plan.Aggregates[0] != "count(*)" || plan.Aggregates[1] != "sum(amount)" {
		t.Fatalf("aggregates = %v", plan.Aggregates)
	}
	if len(plan.OrderBy) != 1 || plan.OrderBy[0] != "kind" {
		t.Fatalf("order-by = %v", plan.OrderBy)
	}
	if plan.EarlyLimit {
		t.Fatal("early limit claimed for an ordered aggregate query")
	}
	if plan.Strategies.SegmentsScanned != 0 {
		t.Fatal("strategies non-zero before any run")
	}
	if _, err := q.Rows(); err != nil {
		t.Fatal(err)
	}
	plan, err = q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategies.SegmentsScanned+plan.Strategies.SegmentsSkipped == 0 {
		t.Fatal("strategies still zero after a run")
	}
	if !strings.Contains(plan.String(), "scan events across 8 partition(s)") {
		t.Fatalf("plan string = %q", plan.String())
	}

	// Early termination is planned for plain limited scans.
	plain, err := db.Table("events").Limit(3).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !plain.EarlyLimit {
		t.Fatal("early limit not planned for plain Limit query")
	}

	// Pinning the unique (and shard) key prunes to one partition and
	// seeks its write buffer.
	point := db.Table("events").Where(And(EqName("id", Int(42)), GtName("amount", Int(-1))))
	pp, err := point.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if pp.Partitions != 1 || pp.KeySeek != "id = 42" {
		t.Fatalf("point plan: %d partition(s), key seek %q", pp.Partitions, pp.KeySeek)
	}
	if s := pp.String(); !strings.Contains(s, "across 1 partition(s)") || !strings.Contains(s, "seek    id = 42") {
		t.Fatalf("point plan string = %q", s)
	}
	if _, err := db.Table("missing").Explain(); err == nil {
		t.Fatal("Explain on a missing table succeeded")
	}
}

func TestWorkspaceQueriesFanOut(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 4, BlobStore: NewMemoryBlobStore()})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	loadEvents(t, db, 600)
	ws, err := db.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	want, err := db.Table("events").GroupByNames("kind").Agg(CountAll(), SumName("amount")).OrderBy(Asc("kind")).Rows()
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("events").OnWorkspace(ws).GroupByNames("kind").Agg(CountAll(), SumName("amount")).OrderBy(Asc("kind")).Rows()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want, "workspace fan-out")
	plan, err := db.Table("events").OnWorkspace(ws).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workspace != "analytics" || plan.Partitions != 4 {
		t.Fatalf("workspace plan = %+v", plan)
	}
}

func TestConcurrentQueriesOnSharedDB(t *testing.T) {
	db := openParallelDB(t, 1000)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 10; i++ {
				if _, err := db.Table("events").GroupByNames("kind").Agg(CountAll(), AvgName("score")).Rows(); err != nil {
					done <- err
					return
				}
				if _, err := db.Table("events").Where(GtName("amount", Int(25))).Count(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
