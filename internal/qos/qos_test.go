package qos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for rate-bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustNew(t *testing.T, cfg Config) *Governor {
	t.Helper()
	if err := ValidateShares(cfg.Shares, ""); err != nil {
		t.Fatalf("ValidateShares: %v", err)
	}
	return New(cfg)
}

func leaseLimits(capacity int64, depth int) (l [NumResources]Limits) {
	for i := range l {
		l[i] = Limits{Capacity: capacity, QueueDepth: depth}
	}
	return l
}

func TestValidateShares(t *testing.T) {
	cases := []struct {
		name    string
		shares  map[string]float64
		wantErr string
	}{
		{"nil", nil, ""},
		{"valid", map[string]float64{"ws1": 0.3, "ws2": 0.2}, ""},
		{"whole", map[string]float64{"a": 0.7, "b": 0.2, "primary": 0.1}, ""},
		{"with primary", map[string]float64{"primary": 0.5, "ws1": 0.5}, ""},
		{"empty name", map[string]float64{"": 0.5}, "empty tenant name"},
		{"zero share", map[string]float64{"ws1": 0}, "outside (0,1]"},
		{"negative share", map[string]float64{"ws1": -0.25}, "outside (0,1]"},
		{"single share over one", map[string]float64{"ws1": 1.5}, "outside (0,1]"},
		{"NaN share", map[string]float64{"ws1": math.NaN()}, "outside (0,1]"},
		{"infinite share", map[string]float64{"ws1": math.Inf(1)}, "outside (0,1]"},
		{"sum over one", map[string]float64{"ws1": 0.6, "ws2": 0.6}, "sum to"},
		{"primary starved", map[string]float64{"ws1": 0.7, "ws2": 0.3}, `leaving "primary" no share`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateShares(tc.shares, "primary")
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	// Without a reserved name the shares may claim the whole.
	if err := ValidateShares(map[string]float64{"a": 0.7, "b": 0.3}, ""); err != nil {
		t.Errorf("whole split without a reserved name rejected: %v", err)
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		name   string
		shares map[string]float64
		names  []string
		want   map[string]float64
	}{
		{"no names", map[string]float64{"reports": 0.25}, nil, map[string]float64{}},
		{"primary only", nil, []string{"primary"}, map[string]float64{"primary": 1}},
		{"explicit and unshared", map[string]float64{"reports": 0.25},
			[]string{"primary", "reports", "adhoc"},
			map[string]float64{"primary": 0.375, "reports": 0.25, "adhoc": 0.375}},
		{"explicit share for an absent name", map[string]float64{"reports": 0.25},
			[]string{"primary", "adhoc"},
			map[string]float64{"primary": 0.5, "adhoc": 0.5}},
		{"all explicit", map[string]float64{"primary": 0.5, "reports": 0.25},
			[]string{"primary", "reports"},
			map[string]float64{"primary": 0.5, "reports": 0.25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Split(tc.shares, tc.names)
			if len(got) != len(tc.want) {
				t.Fatalf("Split = %v, want %v", got, tc.want)
			}
			for name, w := range tc.want {
				if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-12 {
					t.Fatalf("Split = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestNilGovernorAdmitsEverything(t *testing.T) {
	var g *Governor
	ctx := context.Background()
	l, got, err := g.AcquireUpTo(ctx, "anyone", Workers, 1, 64)
	if err != nil || got != 64 {
		t.Fatalf("nil governor: got lease=%v n=%d err=%v", l, got, err)
	}
	l.Release() // must not panic
	g.Register("x")
	g.Unregister("x")
	if s := g.Stats(); s != nil {
		t.Fatalf("nil governor stats = %v, want nil", s)
	}
}

func TestWeightedBudgets(t *testing.T) {
	g := mustNew(t, Config{
		Shares: map[string]float64{"oltp": 0.75},
		Limits: leaseLimits(100, 4),
	})
	g.Register("oltp")
	g.Register("olap")
	s, ok := g.TenantStatsFor("oltp")
	if !ok || s.Workers.Budget != 75 {
		t.Fatalf("oltp workers budget = %d (ok=%v), want 75", s.Workers.Budget, ok)
	}
	s, _ = g.TenantStatsFor("olap")
	if s.Workers.Budget != 25 {
		t.Fatalf("olap workers budget = %d, want 25 (unreserved remainder)", s.Workers.Budget)
	}
	// A third unlisted tenant splits the remainder with olap.
	g.Register("batch")
	s, _ = g.TenantStatsFor("olap")
	if s.Workers.Budget != 12 {
		t.Fatalf("olap budget after third tenant = %d, want 12", s.Workers.Budget)
	}
}

func TestElasticAcquireAndRelease(t *testing.T) {
	g := mustNew(t, Config{Limits: leaseLimits(10, 4)})
	ctx := context.Background()
	// Sole tenant owns the full capacity.
	l1, got, err := g.AcquireUpTo(ctx, "a", Workers, 1, 8)
	if err != nil || got != 8 {
		t.Fatalf("first acquire: n=%d err=%v, want 8", got, err)
	}
	// Only 2 left; elastic acquire takes what's there.
	l2, got, err := g.AcquireUpTo(ctx, "a", Workers, 1, 8)
	if err != nil || got != 2 {
		t.Fatalf("second acquire: n=%d err=%v, want 2", got, err)
	}
	s, _ := g.TenantStatsFor("a")
	if s.Workers.InUse != 10 || s.Workers.Avail != 0 {
		t.Fatalf("in-use=%d avail=%d, want 10/0", s.Workers.InUse, s.Workers.Avail)
	}
	l1.Release()
	l2.Release()
	l2.Release() // double release is a no-op
	s, _ = g.TenantStatsFor("a")
	if s.Workers.InUse != 0 || s.Workers.Avail != 10 {
		t.Fatalf("after release: in-use=%d avail=%d, want 0/10", s.Workers.InUse, s.Workers.Avail)
	}
}

func TestOversizedRequestClampsToBudget(t *testing.T) {
	g := mustNew(t, Config{Limits: leaseLimits(4, 1)})
	l, got, err := g.AcquireUpTo(context.Background(), "a", ScanMem, 1_000_000, 2_000_000)
	if err != nil {
		t.Fatalf("oversized acquire shed: %v", err)
	}
	if got != 4 {
		t.Fatalf("oversized acquire granted %d, want clamp to budget 4", got)
	}
	l.Release()
}

func TestShedIsTypedAndFast(t *testing.T) {
	g := mustNew(t, Config{Limits: leaseLimits(2, 0)}) // no queueing at all
	ctx := context.Background()
	l, _, err := g.AcquireUpTo(ctx, "a", Workers, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = g.AcquireUpTo(ctx, "a", Workers, 1, 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted budget returned %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("shed is not a *OverloadError: %v", err)
	}
	if oe.Tenant != "a" || oe.Resource != Workers || oe.RetryAfter <= 0 {
		t.Fatalf("shed fields: %+v", oe)
	}
	if RetryAfter(err) != oe.RetryAfter {
		t.Fatalf("RetryAfter helper disagrees with error")
	}
	if RetryAfter(errors.New("other")) != 0 {
		t.Fatalf("RetryAfter on non-overload should be 0")
	}
	l.Release()
	if _, _, err := g.AcquireUpTo(ctx, "a", Workers, 1, 1); err != nil {
		t.Fatalf("post-release acquire failed: %v", err)
	}
}

func TestRetryAfterMonotoneUnderSustainedOverload(t *testing.T) {
	g := mustNew(t, Config{Limits: leaseLimits(1, 0)})
	ctx := context.Background()
	l, _, err := g.AcquireUpTo(ctx, "a", MergeIO, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	var last time.Duration
	grew := false
	for i := 0; i < 12; i++ {
		_, _, err := g.AcquireUpTo(ctx, "a", MergeIO, 1, 1)
		ra := RetryAfter(err)
		if ra <= 0 {
			t.Fatalf("shed %d: no retry-after (err=%v)", i, err)
		}
		if ra < last {
			t.Fatalf("retry-after shrank under sustained overload: %v -> %v", last, ra)
		}
		if ra > last {
			grew = true
		}
		last = ra
	}
	if !grew {
		t.Fatalf("retry-after never grew across 12 consecutive sheds (last=%v)", last)
	}
	if last > retryCap {
		t.Fatalf("retry-after %v exceeds cap %v", last, retryCap)
	}
}

func TestNoShedWhenBudgetFree(t *testing.T) {
	g := mustNew(t, Config{
		Shares: map[string]float64{"victim": 0.5, "flood": 0.5},
		Limits: leaseLimits(8, 0), // shed immediately on exhaustion
	})
	g.Register("victim")
	g.Register("flood")
	ctx := context.Background()
	// The flood tenant exhausts its own budget.
	var leases []*Lease
	for {
		l, _, err := g.AcquireUpTo(ctx, "flood", Workers, 4, 4)
		if err != nil {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatal(err)
			}
			break
		}
		leases = append(leases, l)
	}
	// The victim's budget is untouched: every acquire must succeed.
	for i := 0; i < 50; i++ {
		l, _, err := g.AcquireUpTo(ctx, "victim", Workers, 1, 2)
		if err != nil {
			t.Fatalf("victim shed with free budget: %v", err)
		}
		l.Release()
	}
	s, _ := g.TenantStatsFor("victim")
	if s.Workers.Sheds != 0 {
		t.Fatalf("victim sheds = %d, want 0", s.Workers.Sheds)
	}
	for _, l := range leases {
		l.Release()
	}
}

func TestQueuedAcquireWakesOnRelease(t *testing.T) {
	g := mustNew(t, Config{Limits: leaseLimits(2, 4)})
	ctx := context.Background()
	l, _, err := g.AcquireUpTo(ctx, "a", Workers, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int64, 1)
	go func() {
		l2, got, err := g.AcquireUpTo(ctx, "a", Workers, 1, 1)
		if err != nil {
			done <- -1
			return
		}
		l2.Release()
		done <- got
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutine queue
	l.Release()
	select {
	case got := <-done:
		if got != 1 {
			t.Fatalf("queued acquire got %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire never woke after release")
	}
	s, _ := g.TenantStatsFor("a")
	if s.Workers.Waits == 0 {
		t.Fatalf("wait not recorded")
	}
}

func TestContextCancelRemovesWaiter(t *testing.T) {
	g := mustNew(t, Config{Limits: leaseLimits(1, 4)})
	l, _, err := g.AcquireUpTo(context.Background(), "a", Workers, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := g.AcquireUpTo(ctx, "a", Workers, 1, 1)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	l.Release()
	// The queue must be empty again: a fresh acquire succeeds instantly.
	l2, _, err := g.AcquireUpTo(context.Background(), "a", Workers, 1, 1)
	if err != nil {
		t.Fatalf("acquire after cancelled waiter: %v", err)
	}
	l2.Release()
}

func TestRateBucketRefillsAndPaces(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var lim [NumResources]Limits
	lim[WALBand] = Limits{Capacity: 100, RefillPerSec: 100, QueueDepth: 4}
	g := mustNew(t, Config{Limits: lim, Now: clk.now})
	ctx := context.Background()
	// Burst drains the bucket; tokens are not returned.
	if err := g.Consume(ctx, "a", WALBand, 100); err != nil {
		t.Fatal(err)
	}
	s, _ := g.TenantStatsFor("a")
	if s.WALBand.Avail != 0 || s.WALBand.InUse != 0 {
		t.Fatalf("rate bucket after burst: avail=%d in-use=%d", s.WALBand.Avail, s.WALBand.InUse)
	}
	// Half a second refills half the budget.
	clk.advance(500 * time.Millisecond)
	if err := g.Consume(ctx, "a", WALBand, 50); err != nil {
		t.Fatalf("refilled consume failed: %v", err)
	}
	// A paced consume wakes when the wall clock (real timer) catches up —
	// use the real clock for this leg.
	g2 := mustNew(t, Config{Limits: lim})
	if err := g2.Consume(ctx, "a", WALBand, 100); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g2.Consume(ctx, "a", WALBand, 10); err != nil { // ~100ms deficit
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("paced consume returned too fast (%v) — no pacing happened", waited)
	}
}

// TestRateWaitUnderOneNanosecond: a head waiter whose deficit refills in
// under a nanosecond still sleeps on a timer and re-checks the clock.
// Truncating that wait to zero left it waiting for a wake-up nothing
// sends, which stalled a workspace link's pacer and DetachWorkspace with
// it.
func TestRateWaitUnderOneNanosecond(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var lim [NumResources]Limits
	lim[WALBand] = Limits{Capacity: 100, RefillPerSec: 3e10, QueueDepth: 1, MaxWait: time.Second}
	g := mustNew(t, Config{Limits: lim, Now: clk.now})
	if err := g.Consume(context.Background(), "a", WALBand, 100); err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Nanosecond) // refills 90 of 100: a third of a nanosecond short
	done := make(chan struct{})
	go func() {
		// Once the consume below has queued, let the clock move on.
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			if s, _ := g.TenantStatsFor("a"); s.WALBand.Waits > 0 {
				clk.advance(time.Second)
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := g.Consume(ctx, "a", WALBand, 100)
	close(done)
	if err != nil {
		t.Fatalf("consume with a sub-nanosecond deficit: %v", err)
	}
}

func TestRateBucketMaxWaitSheds(t *testing.T) {
	var lim [NumResources]Limits
	lim[WALBand] = Limits{Capacity: 100, RefillPerSec: 10, QueueDepth: 4, MaxWait: 100 * time.Millisecond}
	g := mustNew(t, Config{Limits: lim})
	ctx := context.Background()
	if err := g.Consume(ctx, "a", WALBand, 100); err != nil {
		t.Fatal(err)
	}
	// 50 tokens at 10/s is a 5s projected wait >> MaxWait: shed.
	err := g.Consume(ctx, "a", WALBand, 50)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("projected-wait overflow returned %v, want ErrOverloaded", err)
	}
	if ra := RetryAfter(err); ra < time.Second {
		t.Fatalf("retry-after %v should cover the refill deficit (~5s)", ra)
	}
}

func TestUnregisterFreesWaitersAndRebalances(t *testing.T) {
	g := mustNew(t, Config{Limits: leaseLimits(10, 4)})
	ctx := context.Background()
	g.Register("a")
	g.Register("b")
	// a: budget 5. Take it all, queue one more, then unregister.
	l, _, err := g.AcquireUpTo(ctx, "a", Workers, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan error, 1)
	go func() {
		_, _, err := g.AcquireUpTo(ctx, "a", Workers, 3, 3)
		released <- err
	}()
	time.Sleep(20 * time.Millisecond)
	g.Unregister("a")
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("waiter on unregistered tenant returned %v, want ungoverned grant", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter leaked across Unregister")
	}
	// Survivor's budget grew to the full capacity.
	s, _ := g.TenantStatsFor("b")
	if s.Workers.Budget != 10 {
		t.Fatalf("survivor budget = %d, want 10", s.Workers.Budget)
	}
	l.Release() // late release after detach must not corrupt anything
	if _, ok := g.TenantStatsFor("a"); ok {
		t.Fatal("unregistered tenant still visible in stats")
	}
}

// TestChurnStormNoTokenLeaks is the shed-correctness storm: tenants are
// registered and unregistered while acquires, releases and rate
// consumes are in flight. Afterwards every surviving bucket must be
// back to full (avail == budget, in-use == 0) — no leaked tokens — and
// a permanently-registered idle tenant must never have shed.
func TestChurnStormNoTokenLeaks(t *testing.T) {
	var lim [NumResources]Limits
	lim[Workers] = Limits{Capacity: 64, QueueDepth: 8}
	lim[ScanMem] = Limits{Capacity: 1 << 20, QueueDepth: 8}
	lim[MergeIO] = Limits{Capacity: 1 << 20, QueueDepth: 4}
	lim[WALBand] = Limits{Capacity: 1 << 20, RefillPerSec: 64 << 20, QueueDepth: 8, MaxWait: time.Second}
	g := mustNew(t, Config{
		Shares: map[string]float64{"steady": 0.25},
		Limits: lim,
	})
	g.Register("steady")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var stop atomic.Bool

	// Churner: registers/unregisters transient tenants.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				name := fmt.Sprintf("ws-%d-%d", c, i%4)
				g.Register(name)
				time.Sleep(time.Millisecond)
				g.Unregister(name)
			}
		}(c)
	}
	// Workers: acquire/release against both steady and transient tenants
	// across all four resources.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenants := []string{"steady", fmt.Sprintf("ws-%d-%d", w%2, w%4), "drifter"}
			for i := 0; !stop.Load(); i++ {
				tn := tenants[i%len(tenants)]
				res := Resource(i % NumResources)
				if res == WALBand {
					err := g.Consume(ctx, tn, res, int64(1+i%4096))
					if err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.Canceled) {
						t.Errorf("consume: %v", err)
						return
					}
					continue
				}
				l, _, err := g.AcquireUpTo(ctx, tn, res, 1, int64(1+i%1024))
				if err != nil {
					if !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.Canceled) {
						t.Errorf("acquire: %v", err)
						return
					}
					continue
				}
				if i%7 == 0 {
					time.Sleep(100 * time.Microsecond)
				}
				l.Release()
			}
		}(w)
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	cancel()
	wg.Wait()

	// Steady state: all leases released, so every surviving tenant's
	// lease-style buckets must be exactly full again.
	for name, ts := range g.Stats() {
		for _, pair := range []struct {
			res string
			s   ResourceStats
		}{{"workers", ts.Workers}, {"scan_mem", ts.ScanMem}, {"merge_io", ts.MergeIO}} {
			if pair.s.InUse != 0 {
				t.Errorf("tenant %s %s: %d tokens leaked (in-use != 0)", name, pair.res, pair.s.InUse)
			}
			if pair.s.Avail != pair.s.Budget {
				t.Errorf("tenant %s %s: avail %d != budget %d after quiesce", name, pair.res, pair.s.Avail, pair.s.Budget)
			}
		}
	}
}
