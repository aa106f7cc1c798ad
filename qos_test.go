package s2db

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/qos"
)

// qosTestConfig is the shared governed configuration: a deliberately tiny
// worker pool so a handful of adversary goroutines saturates it, and a
// shallow queue so saturation sheds instead of stacking waiters.
func qosTestConfig() Config {
	return Config{
		Partitions:     2,
		MaxSegmentRows: 512,
		TenantShares:   map[string]float64{"oltp": 0.7, "analytics": 0.1},
		QoSWorkerSlots: 4,
		QoSQueueDepth:  1,
	}
}

func loadQoSEvents(t *testing.T, db *DB, n int) {
	t.Helper()
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Str(fmt.Sprintf("k%d", i%7)), Int(int64(i % 50)), Float(float64(i) / 2)}
	}
	if err := db.BulkLoad("events", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush("events"); err != nil {
		t.Fatal(err)
	}
}

// runVictimSamples times the well-behaved tenant's hot query n times and
// returns the sorted durations.
func runVictimSamples(t *testing.T, db *DB, n, rows int) []time.Duration {
	t.Helper()
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		_, err := db.Table("events").AsTenant("oltp").
			Where(LtName("id", Int(int64(rows/8)))).
			GroupByNames("kind").
			Agg(CountAll(), SumName("amount")).
			Rows()
		if err != nil {
			t.Fatalf("victim query shed or failed: %v", err)
		}
		durs = append(durs, time.Since(start))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs
}

func p99(durs []time.Duration) time.Duration {
	return durs[int(float64(len(durs)-1)*0.99)]
}

// flood runs adversary full-table aggregates from several goroutines until
// the returned stop function is called, and reports completed queries,
// typed sheds and any malformed shed (untyped error or non-positive
// retry-after).
func qosFlood(db *DB, goroutines int) (stop func() (completed, sheds, malformed int64)) {
	var quit atomic.Bool
	var completed, sheds, malformed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !quit.Load() {
				_, err := db.Table("events").AsTenant("analytics").
					GroupByNames("kind").
					Agg(CountAll(), SumName("amount"), AvgName("score")).
					Rows()
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrOverloaded):
					sheds.Add(1)
					if QoSRetryAfter(err) <= 0 {
						malformed.Add(1)
					}
					// An adversarial tenant ignores most of the backoff
					// hint; pressure must stay on for the test to mean
					// anything.
					time.Sleep(time.Millisecond)
				default:
					malformed.Add(1)
				}
			}
		}()
	}
	return func() (int64, int64, int64) {
		quit.Store(true)
		wg.Wait()
		return completed.Load(), sheds.Load(), malformed.Load()
	}
}

// TestQoSIsolationUnderFlood is the CI qos-isolation smoke: an adversarial
// tenant floods the worker pool and the victim's tail latency must stay
// governed — bounded relative to its unloaded baseline, or at worst better
// than the same flood with every resource ungoverned. The flood's excess demand must
// shed with typed ErrOverloaded errors carrying a positive retry-after,
// and the victim (whose share leaves it free budget) must never shed.
func TestQoSIsolationUnderFlood(t *testing.T) {
	const rows, samples, adversaries = 6_000, 40, 6

	gov := openTestDB(t, qosTestConfig())
	loadQoSEvents(t, gov, rows)
	// The ungoverned comparison: a negative capacity leaves a resource
	// ungoverned, so all four negative admits everything.
	rawCfg := qosTestConfig()
	rawCfg.QoSWorkerSlots, rawCfg.QoSScanMemoryBytes = -1, -1
	rawCfg.QoSMergeIOBytes, rawCfg.QoSWALBytesPerSec = -1, -1
	raw := openTestDB(t, rawCfg)
	loadQoSEvents(t, raw, rows)

	runVictimSamples(t, gov, 5, rows) // warm decode caches
	unloaded := p99(runVictimSamples(t, gov, samples, rows))

	stop := qosFlood(gov, adversaries)
	time.Sleep(50 * time.Millisecond) // let the flood reach steady state
	flooded := p99(runVictimSamples(t, gov, samples, rows))
	completed, sheds, malformed := stop()

	runVictimSamples(t, raw, 5, rows)
	stopRaw := qosFlood(raw, adversaries)
	time.Sleep(50 * time.Millisecond)
	unbounded := p99(runVictimSamples(t, raw, samples, rows))
	rawCompleted, rawSheds, rawMalformed := stopRaw()

	t.Logf("victim p99: unloaded %v, flood+qos %v, flood+no-qos %v (flood: %d done / %d shed; no-qos flood: %d done)",
		unloaded, flooded, unbounded, completed, sheds, rawCompleted)

	if malformed > 0 {
		t.Errorf("%d flood errors were not typed ErrOverloaded with positive retry-after", malformed)
	}
	if sheds == 0 {
		t.Errorf("adversary flood (%d goroutines over %d-slot pool) never shed", adversaries, 4)
	}
	if rawSheds != 0 || rawMalformed != 0 {
		t.Errorf("ungoverned flood saw %d sheds / %d errors, want none", rawSheds, rawMalformed)
	}
	if ts, ok := gov.QoSStats()["oltp"]; !ok {
		t.Error("victim tenant missing from QoSStats")
	} else if ts.TotalSheds() != 0 {
		t.Errorf("victim with free budget shed %d times", ts.TotalSheds())
	}
	if ts := gov.QoSStats()["oltp"]; ts.Workers.Waits+ts.ScanMem.Waits != 0 {
		t.Errorf("victim queued in admission (%d worker waits, %d scan-mem waits) despite free budget",
			ts.Workers.Waits, ts.ScanMem.Waits)
	}
	// The wall-clock isolation bound. With admission capping the flood at
	// one concurrent scan, a machine with >= 2 cores always has one free
	// for the victim; absolute latency is still noisy on loaded CI (and
	// under -race), so accept either form of the win: the victim's tail
	// stays within a generous multiple of its unloaded baseline, or it
	// beats the ungoverned configuration outright. On a single core the
	// victim's tail is a scheduler lottery either way (the one admitted
	// scan timeshares the only CPU), so the admission-accounting asserts
	// above carry the isolation claim and the latencies are only logged.
	if runtime.GOMAXPROCS(0) >= 2 && flooded > 3*unloaded && flooded >= unbounded {
		t.Errorf("victim p99 under flood = %v, want <= 3x unloaded (%v) or < no-qos (%v)",
			flooded, unloaded, unbounded)
	}
}

// TestQoSExplainSurfacesTenantAccounting checks the observability surface:
// Explain reports the billed tenant and its governor snapshot, and
// QoSStats covers registered tenants.
func TestQoSExplainSurfacesTenantAccounting(t *testing.T) {
	db := openTestDB(t, qosTestConfig())
	loadQoSEvents(t, db, 600)

	q := db.Table("events").AsTenant("oltp").Where(GtName("amount", Int(10)))
	if _, err := q.Count(); err != nil {
		t.Fatal(err)
	}
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tenant != "oltp" {
		t.Fatalf("plan tenant = %q, want oltp", plan.Tenant)
	}
	if plan.QoS == nil {
		t.Fatal("plan QoS snapshot missing")
	}
	if plan.QoS.Workers.Budget <= 0 || plan.QoS.Workers.Spent <= 0 {
		t.Fatalf("tenant worker accounting not populated: %+v", plan.QoS.Workers)
	}
	if got := plan.String(); got == "" {
		t.Fatal("empty plan rendering")
	}

	// Untagged queries bill the primary tenant.
	dq := db.Table("events")
	dplan, err := dq.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if dplan.Tenant != PrimaryTenant {
		t.Fatalf("default tenant = %q, want %q", dplan.Tenant, PrimaryTenant)
	}
	if _, ok := db.QoSStats()[PrimaryTenant]; !ok {
		t.Fatal("primary tenant missing from QoSStats")
	}
}

// TestQoSContextTenantFlowsThroughSQL checks the front-door tenancy path:
// a WithTenant context tags SQL-text queries with the tenant, visible in
// its governor accounting afterward.
func TestQoSContextTenantFlowsThroughSQL(t *testing.T) {
	db := openTestDB(t, qosTestConfig())
	loadQoSEvents(t, db, 600)

	ctx := WithTenant(t.Context(), "analytics")
	if _, err := db.QueryCtx(ctx, "select kind, count(*) from events group by kind"); err != nil {
		t.Fatal(err)
	}
	ts, ok := db.QoSStats()["analytics"]
	if !ok {
		t.Fatal("context tenant not registered by query")
	}
	if ts.Workers.Spent <= 0 {
		t.Fatalf("context tenant spent no worker tokens: %+v", ts.Workers)
	}
}

// TestQoSWorkspaceChurnStorm attaches and detaches workspaces while
// governed queries, inserts (WAL traffic), and background merges are in
// flight, then verifies no tokens leaked: every surviving tenant's
// lease-style buckets must drain back to full availability once the storm
// stops. Run under -race in CI.
func TestQoSWorkspaceChurnStorm(t *testing.T) {
	cfg := qosTestConfig()
	cfg.BackgroundMaintenance = true
	cfg.QoSWALBytesPerSec = 8 << 20 // low enough that pacing engages
	db := openTestDB(t, cfg)
	loadQoSEvents(t, db, 2_000)

	var quit atomic.Bool
	var wg sync.WaitGroup
	var queryErrs, churns atomic.Int64

	// Churner: create a workspace, query it, detach — repeatedly, with
	// unique names so registration always observes a fresh tenant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !quit.Load(); i++ {
			name := fmt.Sprintf("ws-%d", i)
			ws, err := db.CreateWorkspace(name)
			if err != nil {
				continue
			}
			_ = ws.WaitCaughtUp(2 * time.Second)
			_, _ = db.Table("events").OnWorkspace(ws).
				GroupByNames("kind").Agg(CountAll()).Rows()
			if err := ws.Detach(); err == nil {
				churns.Add(1)
			}
		}
	}()

	// Writer: inserts keep the WAL and flush/merge pipeline busy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 10_000; !quit.Load(); i++ {
			if err := db.Insert("events", Row{
				Int(int64(i)), Str(fmt.Sprintf("k%d", i%7)), Int(int64(i % 50)), Float(float64(i)),
			}); err != nil {
				queryErrs.Add(1)
			}
		}
	}()

	// Governed readers across distinct tenants.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		tenant := fmt.Sprintf("reader-%d", w)
		go func() {
			defer wg.Done()
			for !quit.Load() {
				if _, err := db.Table("events").AsTenant(tenant).
					Where(GtName("amount", Int(25))).
					GroupByNames("kind").Agg(CountAll(), SumName("amount")).
					Rows(); err != nil && !errors.Is(err, ErrOverloaded) {
					queryErrs.Add(1)
				}
			}
		}()
	}

	time.Sleep(700 * time.Millisecond)
	quit.Store(true)
	wg.Wait()

	if n := queryErrs.Load(); n > 0 {
		t.Fatalf("%d queries/inserts failed with non-shed errors during churn", n)
	}
	if churns.Load() == 0 {
		t.Fatal("storm never completed an attach/detach cycle")
	}

	// With everything quiesced, every lease-style bucket must be whole
	// again: nothing in use, availability equal to budget. Merge leases
	// are released on the background goroutine, so allow a brief drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := ""
		for tenant, ts := range db.QoSStats() {
			for _, rs := range []struct {
				name string
				s    QoSResourceStats
			}{{"workers", ts.Workers}, {"scanmem", ts.ScanMem}, {"mergeio", ts.MergeIO}} {
				if rs.s.InUse != 0 || rs.s.Avail != rs.s.Budget {
					leaked = fmt.Sprintf("%s/%s: in-use %d, avail %d of budget %d",
						tenant, rs.name, rs.s.InUse, rs.s.Avail, rs.s.Budget)
				}
			}
		}
		if leaked == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("token leak after churn storm: %s", leaked)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTinyWALRateStillPaces checks that a WAL rate below four bytes per
// second still governs the resource: its burst floors at one token instead
// of rounding to the zero capacity that means "ungoverned".
func TestTinyWALRateStillPaces(t *testing.T) {
	g := newGovernor(Config{QoSWALBytesPerSec: 2})
	l, n, err := g.AcquireUpTo(context.Background(), PrimaryTenant, qos.WALBand, 1, 1)
	if err != nil || l == nil || n != 1 {
		t.Fatalf("first page: lease=%v n=%d err=%v, want a governed one-token grant", l, n, err)
	}
	// The one-token burst is spent, so the next page waits on the 2/s
	// refill instead of passing at once.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := g.AcquireUpTo(ctx, PrimaryTenant, qos.WALBand, 1, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second page: err = %v, want it paced past the deadline", err)
	}
}
