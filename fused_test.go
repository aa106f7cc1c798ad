package s2db

import (
	"strings"
	"testing"
)

// TestFusedKernelsSurfaceInExplain: a run through the fused path must
// report its counters in the structured plan and the rendered string.
// (Equivalence against the unfused three-pass reference lives in
// internal/exec/kernel_test.go.)
func TestFusedKernelsSurfaceInExplain(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 2})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	loadEvents(t, db, 400)

	q := db.Table("events").
		Where(GeName("amount", Int(10))).
		Agg(CountAll(), SumName("amount"), MinName("score"))
	if _, err := q.Rows(); err != nil {
		t.Fatal(err)
	}
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategies.FusedAggSegs == 0 {
		t.Fatalf("no fused-agg segments in plan: %+v", plan.Strategies)
	}
	if plan.Strategies.RowsMaterialized != 0 {
		t.Fatalf("fused global aggregate materialized %d rows", plan.Strategies.RowsMaterialized)
	}
	if !strings.Contains(plan.String(), "fused:") {
		t.Fatalf("plan rendering missing fused line:\n%s", plan.String())
	}
}
