// Package qos is the multi-tenant resource governor: a weighted
// token-bucket admission layer spanning the four contended resources of
// the engine — query fan-out worker slots, scan/materialization memory,
// merge I/O, and WAL/replication bandwidth. It generalizes PR 5's
// single-resource cache partitioning into the isolation contract a
// cloud front door needs (PolarDB-IMCI's design goal: analytic bursts
// must not collapse OLTP p99; "Transaction as a Service" motivates the
// typed-shedding contract).
//
// Accounting model. Every registered tenant owns one token bucket per
// resource. A bucket's budget is capacity × effective share, where
// Split turns explicit weights (Config.Shares) into effective shares:
// every tenant without an explicit weight splits the unreserved
// remainder evenly. The decoded-vector cache sizes its per-workspace
// partitions with the same Split, so one share map governs every
// resource. Two bucket styles share one implementation:
//
//   - lease-style (RefillPerSec == 0): tokens are held for the duration
//     of the work and returned by Lease.Release — worker slots, scan
//     memory, merge I/O;
//   - rate-style (RefillPerSec > 0): tokens are consumed permanently
//     and refill continuously — WAL/replication bandwidth, where a
//     waiter self-paces on the refill clock.
//
// Shedding. A request that cannot be granted waits FIFO on its bucket,
// but only up to Limits.QueueDepth concurrent waiters per (tenant,
// resource); beyond the cap — or when a rate bucket's projected wait
// exceeds Limits.MaxWait — admission fails fast with a typed
// *OverloadError carrying a computed retry-after instead of queueing
// toward collapse. Retry-after grows with the consecutive-shed streak
// (and never decreases while the overload is sustained), so honest
// clients back off harder the longer the bucket stays saturated.
//
// A nil *Governor is valid everywhere and admits everything.
package qos

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Resource identifies one governed resource class.
type Resource uint8

const (
	// Workers is query fan-out worker slots (one token = one concurrent
	// partition-scan task).
	Workers Resource = iota
	// ScanMem is scan/materialization memory (tokens are bytes of
	// decoded vectors and materialized rows a scan may hold).
	ScanMem
	// MergeIO is background merge I/O (tokens are bytes of merge output
	// being built/persisted).
	MergeIO
	// WALBand is WAL/replication bandwidth (tokens are bytes of
	// replicated pages per second; rate-style).
	WALBand

	numResources
)

// NumResources is the count of governed resource classes.
const NumResources = int(numResources)

// String names the resource class for stats maps and error text.
func (r Resource) String() string {
	switch r {
	case Workers:
		return "workers"
	case ScanMem:
		return "scan_mem"
	case MergeIO:
		return "merge_io"
	case WALBand:
		return "wal_band"
	}
	return fmt.Sprintf("resource(%d)", uint8(r))
}

// ErrOverloaded is the sentinel every shed unwraps to: match with
// errors.Is(err, qos.ErrOverloaded), then errors.As to *OverloadError
// for the tenant, resource and retry-after.
var ErrOverloaded = errors.New("qos: overloaded")

// OverloadError is a typed shed: the tenant exhausted its budget for a
// resource and its queue cap (or maximum tolerable wait), so admission
// failed fast instead of queueing. RetryAfter is the governor's backoff
// hint — monotone non-decreasing while the overload is sustained.
type OverloadError struct {
	Tenant     string
	Resource   Resource
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("qos: tenant %q overloaded on %s (retry after %v)", e.Tenant, e.Resource, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true for every shed.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the backoff hint from a shed error chain,
// returning 0 when err is not an overload.
func RetryAfter(err error) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// Limits configures one resource class.
type Limits struct {
	// Capacity is the total token pool split across tenants by weight.
	// 0 leaves the resource ungoverned (every acquire succeeds).
	Capacity int64
	// RefillPerSec > 0 makes the class rate-style: tokens are consumed
	// permanently and the pool refills at this rate (split by weight),
	// with Capacity acting as the burst bound.
	RefillPerSec int64
	// QueueDepth caps concurrent waiters per (tenant, resource); an
	// acquire beyond the cap sheds. 0 means shed immediately when the
	// budget is exhausted (no queueing at all).
	QueueDepth int
	// MaxWait sheds a rate-style acquire whose projected refill wait
	// exceeds it, instead of stalling the caller. 0 = wait forever.
	MaxWait time.Duration
}

// Config configures a Governor.
type Config struct {
	// Shares maps tenant name → weight in (0,1]; weights must sum to at
	// most 1 (see ValidateShares, which New does not repeat). Registered
	// tenants not named here split the unreserved remainder evenly (and
	// share everything when Shares is empty); see Split.
	Shares map[string]float64
	// Limits configures each resource class, indexed by Resource.
	Limits [NumResources]Limits
	// Now is the clock, for tests; nil means time.Now.
	Now func() time.Time
}

// ValidateShares checks a share map: names non-empty, every share finite
// and in (0,1], and the sum at most 1. reserved, when non-empty, names a
// tenant that is always registered (the primary): when it has no explicit
// share, the others must leave it a positive remainder.
func ValidateShares(shares map[string]float64, reserved string) error {
	sum := 0.0
	for name, s := range shares {
		if name == "" {
			return errors.New("qos: tenant share with empty tenant name")
		}
		if !(s > 0 && s <= 1) { // also rejects NaN, for which every comparison is false
			return fmt.Errorf("qos: tenant %q share %v outside (0,1]", name, s)
		}
		sum += s
	}
	if sum > 1+shareSlack {
		return fmt.Errorf("qos: tenant shares sum to %.3f > 1", sum)
	}
	if _, ok := shares[reserved]; reserved != "" && !ok && sum > 1-shareSlack {
		return fmt.Errorf("qos: tenant shares sum to %.3f, leaving %q no share", sum, reserved)
	}
	return nil
}

// shareSlack absorbs float rounding in a share sum (0.7 + 0.2 + 0.1).
const shareSlack = 1e-9

// Split is the one share rule: it divides a whole of 1 among names. A
// name with an explicit share gets it as given; the names without one
// split evenly what the present names' explicit shares leave. An explicit
// share for a name not in names reserves nothing. The governor calls it
// over its registered tenants, the decoded-vector cache over its
// partitions.
func Split(shares map[string]float64, names []string) map[string]float64 {
	reserved, unshared := 0.0, 0
	for _, name := range names {
		if s, ok := shares[name]; ok {
			reserved += s
		} else {
			unshared++
		}
	}
	even := 0.0
	if unshared > 0 {
		even = max(0, (1-reserved)/float64(unshared))
	}
	out := make(map[string]float64, len(names))
	for _, name := range names {
		s, ok := shares[name]
		if !ok {
			s = even
		}
		out[name] = s
	}
	return out
}

// retryBase and retryCap bound the shed-streak backoff: the first shed
// suggests retryBase, each consecutive shed doubles it up to retryCap.
const (
	retryBase = 5 * time.Millisecond
	retryCap  = 2 * time.Second
)

// waiter is one queued acquire; ready is signalled (closed-over channel
// of capacity 1) whenever the bucket's supply may have changed.
type waiter struct {
	need  int64
	ready chan struct{}
}

// bucket is one (tenant, resource) token pool. All fields are guarded
// by the owning Governor's mutex; leases keep a pointer to their bucket
// so a release after the tenant detaches stays harmless.
type bucket struct {
	g      *Governor
	tenant string
	res    Resource
	lim    Limits

	budget int64   // capacity × effective share
	rate   float64 // refill tokens/sec × effective share (0 = lease-style)
	avail  float64 // tokens currently grantable (≤ budget; < 0 after a shrink)
	last   time.Time
	queue  []*waiter
	gone   bool // tenant unregistered; grants become free, releases still settle

	// Shed backoff: consecutive sheds since the last successful grant,
	// and the last retry-after handed out (enforces monotonicity).
	shedStreak int
	lastRetry  time.Duration

	// Cumulative stats.
	spent     int64
	waits     int64
	waitNanos int64
	sheds     int64
	inUse     int64 // outstanding lease tokens
}

// Governor is the admission controller. The zero value is not usable;
// build one with New. A nil *Governor admits everything.
type Governor struct {
	mu      sync.Mutex
	cfg     Config
	now     func() time.Time
	tenants map[string]*tenantState
}

type tenantState struct {
	name    string
	buckets [NumResources]*bucket
}

// New builds a Governor. Config.Shares must already pass
// ValidateShares; resources with zero Capacity stay ungoverned.
func New(cfg Config) *Governor {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Governor{cfg: cfg, now: now, tenants: make(map[string]*tenantState)}
}

// Register adds a tenant (idempotent) and rebalances every tenant's
// budgets to the new weight distribution. Acquire auto-registers
// unknown tenants, so explicit registration is only needed to make a
// tenant's budget visible before its first request.
func (g *Governor) Register(tenant string) {
	if g == nil || tenant == "" {
		return
	}
	g.mu.Lock()
	g.registerLocked(tenant)
	g.mu.Unlock()
}

func (g *Governor) registerLocked(tenant string) *tenantState {
	if t, ok := g.tenants[tenant]; ok {
		return t
	}
	t := &tenantState{name: tenant}
	for r := 0; r < NumResources; r++ {
		t.buckets[r] = &bucket{
			g:      g,
			tenant: tenant,
			res:    Resource(r),
			lim:    g.cfg.Limits[r],
			last:   g.now(),
		}
	}
	g.tenants[tenant] = t
	g.rebalanceLocked()
	return t
}

// Unregister removes a tenant. Its queued waiters are released
// ungoverned (the tenant is going away; blocking them forever would
// leak goroutines), outstanding leases settle harmlessly against the
// orphaned buckets, and the survivors' budgets grow to absorb the freed
// weight.
func (g *Governor) Unregister(tenant string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	t, ok := g.tenants[tenant]
	if ok {
		delete(g.tenants, tenant)
		for _, b := range t.buckets {
			b.gone = true
			for _, w := range b.queue {
				select {
				case w.ready <- struct{}{}:
				default:
				}
			}
			b.queue = nil
		}
		g.rebalanceLocked()
	}
	g.mu.Unlock()
}

// rebalanceLocked recomputes every bucket's budget and refill rate from
// the current tenant set, with shares from Split. Budget deltas are
// applied to avail directly, which preserves the lease invariant
// avail = budget − inUse across rebalances (avail goes negative when a
// shrink lands under outstanding leases — the debt settles as leases
// release).
func (g *Governor) rebalanceLocked() {
	names := make([]string, 0, len(g.tenants))
	for name := range g.tenants {
		names = append(names, name)
	}
	for name, share := range Split(g.cfg.Shares, names) {
		t := g.tenants[name]
		for _, b := range t.buckets {
			if b.lim.Capacity == 0 {
				continue
			}
			newBudget := int64(float64(b.lim.Capacity) * share)
			if newBudget < 1 {
				newBudget = 1 // every tenant can always make progress
			}
			g.refillLocked(b)
			b.avail += float64(newBudget - b.budget)
			b.budget = newBudget
			if b.avail > float64(b.budget) {
				b.avail = float64(b.budget)
			}
			b.rate = float64(b.lim.RefillPerSec) * share
			if b.lim.RefillPerSec > 0 && b.rate < 1 {
				// A rate bucket must keep refilling even when a tenant's
				// share rounds to nothing, or its waiters would never wake.
				b.rate = 1
			}
			b.wakeLocked()
		}
	}
}

// refillLocked credits a rate-style bucket for elapsed wall time.
func (g *Governor) refillLocked(b *bucket) {
	now := g.now()
	if b.rate > 0 {
		dt := now.Sub(b.last).Seconds()
		if dt > 0 {
			b.avail += b.rate * dt
			if b.avail > float64(b.budget) {
				b.avail = float64(b.budget)
			}
		}
	}
	b.last = now
}

// wakeLocked signals the head waiter to re-check supply.
func (b *bucket) wakeLocked() {
	if len(b.queue) > 0 {
		select {
		case b.queue[0].ready <- struct{}{}:
		default:
		}
	}
}

// shedLocked records a shed and returns the typed error. Retry-after
// doubles with the consecutive-shed streak from retryBase to retryCap,
// floored by the refill deficit for rate buckets, and never decreases
// while the streak is unbroken.
func (b *bucket) shedLocked(need int64) error {
	b.sheds++
	b.shedStreak++
	exp := b.shedStreak - 1
	if exp > 30 {
		exp = 30
	}
	ra := retryBase << exp
	if ra > retryCap || ra <= 0 {
		ra = retryCap
	}
	if b.rate > 0 {
		if deficit := float64(need) - b.avail; deficit > 0 {
			if d := time.Duration(deficit / b.rate * float64(time.Second)); d > ra {
				ra = d
			}
		}
	}
	if ra < b.lastRetry {
		ra = b.lastRetry
	}
	b.lastRetry = ra
	return &OverloadError{Tenant: b.tenant, Resource: b.res, RetryAfter: ra}
}

// Lease is a grant of N tokens against one bucket. Release returns
// lease-style tokens; for rate-style buckets (and ungoverned grants)
// it is a no-op. A nil *Lease is valid and inert.
type Lease struct {
	b *bucket
	n int64
	// Waited is how long the acquire queued before being granted.
	Waited time.Duration
	done   bool
	// pooled marks a lease-style grant, whose tokens were counted in use
	// and return to the bucket on Release. Fixed at grant time under the
	// governor lock: a rebalance may rewrite the bucket's rate afterwards.
	pooled bool
}

// N is the number of tokens granted (0 for an ungoverned nil lease).
func (l *Lease) N() int64 {
	if l == nil {
		return 0
	}
	return l.n
}

// Release returns the lease's tokens and wakes the bucket's head
// waiter. Safe to call once per lease from any goroutine, including
// after the tenant was unregistered.
func (l *Lease) Release() {
	if l == nil || l.b == nil {
		return
	}
	b := l.b
	g := b.g
	g.mu.Lock()
	if l.done {
		g.mu.Unlock()
		return
	}
	l.done = true
	if l.pooled {
		b.inUse -= l.n
		b.avail += float64(l.n)
		if b.avail > float64(b.budget) && !b.gone {
			b.avail = float64(b.budget)
		}
		b.wakeLocked()
	}
	g.mu.Unlock()
}

// Acquire takes exactly n tokens (clamped to the tenant's whole budget,
// so a request larger than the budget still completes) and blocks until
// granted, shed, or ctx is done. See AcquireUpTo for the elastic form.
func (g *Governor) Acquire(ctx contextLike, tenant string, res Resource, n int64) (*Lease, error) {
	l, _, err := g.AcquireUpTo(ctx, tenant, res, n, n)
	return l, err
}

// Consume is rate-style sugar: acquire n tokens that are never
// returned (the lease is pre-released for lease-style buckets too).
func (g *Governor) Consume(ctx contextLike, tenant string, res Resource, n int64) error {
	l, err := g.Acquire(ctx, tenant, res, n)
	if err != nil {
		return err
	}
	if l != nil && l.pooled {
		l.Release()
	}
	return nil
}

// contextLike is the subset of context.Context admission needs; it
// keeps qos importable from the deepest layers without pulling their
// contexts into this package's API surface.
type contextLike interface {
	Done() <-chan struct{}
	Err() error
}

// AcquireUpTo grants between min and max tokens (both clamped to the
// tenant's budget): everything available up to max when at least min is
// free, queueing FIFO otherwise. It sheds — typed *OverloadError with
// retry-after — when the bucket's queue cap is hit or a rate bucket's
// projected wait exceeds its MaxWait. The granted count rides on the
// returned lease and is also returned for convenience. On an
// ungoverned resource (nil governor or zero capacity) it returns
// (nil, max, nil).
func (g *Governor) AcquireUpTo(ctx contextLike, tenant string, res Resource, min, max int64) (*Lease, int64, error) {
	if g == nil || g.cfg.Limits[res].Capacity == 0 {
		return nil, max, nil
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	g.mu.Lock()
	t, ok := g.tenants[tenant]
	if !ok {
		t = g.registerLocked(tenant)
	}
	b := t.buckets[res]

	var w *waiter
	var start time.Time
	for {
		g.refillLocked(b)
		if b.gone {
			// Tenant detached while we were acquiring: admit ungoverned.
			g.mu.Unlock()
			return nil, max, nil
		}
		need := min
		if need > b.budget {
			need = b.budget
		}
		grant := max
		if grant > b.budget {
			grant = b.budget
		}
		headOK := (w == nil && len(b.queue) == 0) || (w != nil && len(b.queue) > 0 && b.queue[0] == w)
		if headOK && b.avail >= float64(need) {
			if float64(grant) > b.avail {
				grant = int64(b.avail)
			}
			if grant < need {
				grant = need
			}
			b.avail -= float64(grant)
			b.spent += grant
			b.shedStreak = 0
			b.lastRetry = 0
			l := &Lease{b: b, n: grant, pooled: b.rate == 0}
			if l.pooled {
				b.inUse += grant
			}
			if w != nil {
				b.queue = b.queue[1:]
				b.wakeLocked()
				l.Waited = g.now().Sub(start)
				b.waitNanos += int64(l.Waited)
			}
			g.mu.Unlock()
			return l, grant, nil
		}
		var timer <-chan time.Time
		var tm *time.Timer
		if b.rate > 0 {
			// Rounded up: a deficit that refills in under a nanosecond
			// still needs a timer, or the head would wait for a wake-up
			// that nothing sends.
			wait := time.Duration(math.Ceil((float64(need) - b.avail) / b.rate * float64(time.Second)))
			if b.lim.MaxWait > 0 && wait > b.lim.MaxWait {
				err := b.shedLocked(need)
				if w != nil {
					b.dropLocked(w)
				}
				g.mu.Unlock()
				return nil, 0, err
			}
			if wait > 0 && headOK {
				tm = time.NewTimer(wait)
				timer = tm.C
			}
		}
		if w == nil {
			if len(b.queue) >= b.lim.QueueDepth {
				err := b.shedLocked(need)
				g.mu.Unlock()
				if tm != nil {
					tm.Stop()
				}
				return nil, 0, err
			}
			w = &waiter{need: need, ready: make(chan struct{}, 1)}
			b.queue = append(b.queue, w)
			b.waits++
			start = g.now()
		}
		g.mu.Unlock()

		select {
		case <-w.ready:
		case <-timer:
		case <-ctx.Done():
			if tm != nil {
				tm.Stop()
			}
			g.mu.Lock()
			b.dropLocked(w)
			b.waitNanos += int64(g.now().Sub(start))
			g.mu.Unlock()
			return nil, 0, ctx.Err()
		}
		if tm != nil {
			tm.Stop()
		}
		g.mu.Lock()
	}
}

// dropLocked removes a waiter from the queue (cancellation, shed) and
// passes any pending wake signal on to the new head.
func (b *bucket) dropLocked(w *waiter) {
	for i, q := range b.queue {
		if q == w {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			break
		}
	}
	b.wakeLocked()
}

// ResourceStats is one tenant's cumulative accounting for one resource.
type ResourceStats struct {
	// Budget is the tenant's current token budget (capacity × share).
	Budget int64 `json:"budget"`
	// InUse is outstanding lease tokens right now.
	InUse int64 `json:"in_use"`
	// Avail is the grantable token count right now (negative while a
	// rebalance shrink settles against outstanding leases).
	Avail int64 `json:"avail"`
	// Spent is cumulative tokens granted.
	Spent int64 `json:"spent"`
	// Waits is the number of acquires that had to queue.
	Waits int64 `json:"waits"`
	// WaitTime is cumulative time spent queued.
	WaitTime time.Duration `json:"wait_ns"`
	// Sheds is the number of acquires rejected with ErrOverloaded.
	Sheds int64 `json:"sheds"`
}

// TenantStats is one tenant's per-resource accounting.
type TenantStats struct {
	Workers ResourceStats `json:"workers"`
	ScanMem ResourceStats `json:"scan_mem"`
	MergeIO ResourceStats `json:"merge_io"`
	WALBand ResourceStats `json:"wal_band"`
}

// byResource returns the addressable field for a resource index.
func (ts *TenantStats) byResource(r Resource) *ResourceStats {
	switch r {
	case Workers:
		return &ts.Workers
	case ScanMem:
		return &ts.ScanMem
	case MergeIO:
		return &ts.MergeIO
	default:
		return &ts.WALBand
	}
}

// TotalSheds sums sheds across resources — convenience for assertions.
func (ts TenantStats) TotalSheds() int64 {
	return ts.Workers.Sheds + ts.ScanMem.Sheds + ts.MergeIO.Sheds + ts.WALBand.Sheds
}

// Stats snapshots every registered tenant's accounting. Nil-safe.
func (g *Governor) Stats() map[string]TenantStats {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]TenantStats, len(g.tenants))
	for name, t := range g.tenants {
		out[name] = g.tenantStatsLocked(t)
	}
	return out
}

// TenantStatsFor snapshots one tenant; ok is false when the tenant was
// never registered (and the governor is non-nil).
func (g *Governor) TenantStatsFor(tenant string) (TenantStats, bool) {
	if g == nil {
		return TenantStats{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.tenants[tenant]
	if !ok {
		return TenantStats{}, false
	}
	return g.tenantStatsLocked(t), true
}

func (g *Governor) tenantStatsLocked(t *tenantState) TenantStats {
	var ts TenantStats
	for r := 0; r < NumResources; r++ {
		b := t.buckets[r]
		g.refillLocked(b)
		*ts.byResource(Resource(r)) = ResourceStats{
			Budget:   b.budget,
			InUse:    b.inUse,
			Avail:    int64(b.avail),
			Spent:    b.spent,
			Waits:    b.waits,
			WaitTime: time.Duration(b.waitNanos),
			Sheds:    b.sheds,
		}
	}
	return ts
}
