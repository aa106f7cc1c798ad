package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"s2db"
	"s2db/internal/blob"
	"s2db/internal/cluster"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	// seconds sizes the fixed operation counts: every workload's count is a
	// per-second constant, calibrated on the seed commit, times seconds. The
	// measured phase is count-bounded, never duration-bounded, so a faster
	// engine finishes sooner instead of doing more (and, in chbench, growing
	// its tables further).
	seconds float64
	trace   bool
	smoke   bool
}

// scaled turns a per-second operation count into this run's count.
func (o options) scaled(perSecond int) int {
	n := int(float64(perSecond) * o.seconds)
	if o.smoke {
		n /= 20
	}
	if n < 1 {
		n = 1
	}
	return n
}

// clients is the closed-loop client count: callers hold a connection and
// wait for each reply, as TPC-C terminals do. Never more than the two cores
// the benchmark is calibrated on.
const clients = 2

// partitions is the profile's partition count: one per core.
const partitions = 2

// probeTable is the two-column table freshness probes are written to.
const probeTable = "probe"

// harness is one fresh database opened with the shared profile, plus the
// read-only workspace and the counting blob store every workload gets.
type harness struct {
	opt   options
	sess  *session
	db    *s2db.DB
	store *countingStore
	ws    *cluster.Workspace
	// attach is how long CreateWorkspace + WaitCaughtUp took.
	attach time.Duration
	// hydrations counts the workspace segments still cold when the attach
	// returned, which the harness then hydrates before measuring.
	hydrations int64
	// userBytes is the payload the harness has handed to the engine.
	userBytes atomic.Int64
	// wsStale and failoverStale count the rows the caught-up workspace and
	// the promoted sync replicas (tpcc only) held beyond the primary's; the
	// checks fill them in (harness.heldBy).
	wsStale, failoverStale int
	// warmRollbacks counts the intentional NewOrder rollbacks of the warm-up,
	// which the TPC-C order-line condition has to allow for.
	warmRollbacks int

	// Filled by the traced wrappers only: scan counters summed over the
	// phase's queries, and the plan cache's hit ratios.
	scanMu                      sync.Mutex
	scan                        exec.ScanStats
	planHitRatio, planTextRatio float64
}

// addScan folds one traced query's scan counters into the phase total.
func (h *harness) addScan(s exec.ScanStats) {
	h.scanMu.Lock()
	exec.AccumulateStats(&h.scan, s)
	h.scanMu.Unlock()
}

// openHarness opens a database with the shared profile. Every field that
// differs from the zero Config is there for a reason README.md gives.
func openHarness(opt options, sess *session) (*harness, error) {
	store := newCountingStore()
	db, err := s2db.Open(s2db.Config{
		Name:             "bench",
		Partitions:       partitions,
		SyncReplicas:     1,
		Transport:        s2db.TransportTCP,
		BlobStore:        store,
		MaxSegmentRows:   4096,
		PlanCacheEntries: s2db.DefaultPlanCacheEntries,
	})
	if err != nil {
		return nil, err
	}
	h := &harness{opt: opt, sess: sess, db: db, store: store}
	probe := s2db.NewSchema(
		s2db.Column{Name: "id", Type: s2db.Int64T},
		s2db.Column{Name: "issued_ns", Type: s2db.Int64T},
	)
	probe.UniqueKey = []int{0}
	probe.ShardKey = []int{0}
	if err := db.CreateTable(probeTable, probe); err != nil {
		db.Close()
		return nil, err
	}
	return h, nil
}

// startMaintenance switches background flush and merge on for every master
// table. The profile wants it on, but only once the bulk load is over:
// merges that race the loader make the segment layout, and with it the
// speed of every scan, a matter of how far the loader had got when a
// maintenance tick fired.
func (h *harness) startMaintenance() {
	cl := h.db.Cluster()
	for pi := 0; pi < cl.Partitions(); pi++ {
		for _, t := range cl.Master(pi).Tables() {
			t.EnableBackground()
		}
	}
}

// attachWorkspace provisions the read-only workspace after the load, the
// way an analytics workspace is attached to a running database (§3.2), and
// waits until it serves the loaded data.
func (h *harness) attachWorkspace() error {
	start := time.Now()
	ws, err := h.db.Cluster().CreateWorkspace("analytics")
	if err != nil {
		return err
	}
	h.ws = ws
	if err := h.db.Cluster().WaitCaughtUp(ws, 30*time.Second); err != nil {
		return err
	}
	for _, table := range h.db.Cluster().TableNames() {
		views, err := ws.Views(table)
		if err != nil {
			return err
		}
		for _, v := range views {
			for _, m := range v.Segs {
				if !m.Seg.Hydrated() {
					h.hydrations++
				}
			}
			if err := v.HydrateAll(context.Background()); err != nil {
				return err
			}
		}
	}
	h.attach = time.Since(start)
	return nil
}

// settle waits until the engine has gone quiet, so a measured phase does
// not start in the wake of the load: the progress counters of flush, merge,
// the log, blob staging and workspace replication have stopped moving, and
// the process uses less than three quarters of a core — a merge in flight
// moves no counter until it completes, but it keeps a core busy, while the
// idle maintenance tickers cost a third of one at most. Bounded: a system
// that never goes quiet is measured as it is.
func (h *harness) settle() {
	const window = 100 * time.Millisecond
	deadline := time.Now().Add(10 * time.Second)
	last, cpu, quiet := h.activity(), cpuTime(), 0
	for time.Now().Before(deadline) && quiet < 3 {
		time.Sleep(window)
		cur, now := h.activity(), cpuTime()
		if cur == last && now-cpu < window*3/4 {
			quiet++
		} else {
			quiet = 0
		}
		last, cpu = cur, now
	}
	h.hydrateMasters()
}

// hydrateMasters makes every master segment resident and waits until the
// secondary index covers it. On the seed commit a k-way merge's outputs are
// filed as cold stubs (colstore.KMerge.BuildOutput never marks them
// hydrated), so they stay out of the index until something demand-hydrates
// them, and until then index probes — UPDATE and DELETE by key, index-path
// joins — silently miss their rows. Waiting for hydration is not enough
// either: the hydrator marks a segment hydrated before it indexes it, and
// everything that waits (ensureProbeReady included) looks only at the mark
// (README.md, known traps). Merges inside a measured phase are not covered.
func (h *harness) hydrateMasters() {
	cl := h.db.Cluster()
	deadline := time.Now().Add(5 * time.Second)
	for pi := 0; pi < cl.Partitions(); pi++ {
		for name, t := range cl.Master(pi).Tables() {
			if err := t.WaitHydrated(context.Background()); err != nil {
				fmt.Fprintf(os.Stderr, "bench: hydrating %s on partition %d: %v\n", name, pi, err)
			}
			cols := t.Index().IndexedColumns()
			if len(cols) == 0 {
				continue
			}
			for _, m := range t.Snapshot().Segs {
				for time.Now().Before(deadline) {
					if _, indexed := t.Index().SegmentPostings(m.Seg.ID, cols[0], types.Value{}); indexed {
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
}

// activity folds every background progress counter into one comparable
// value.
func (h *harness) activity() [4]int64 {
	c := h.snapshot()
	return [4]int64{c.flushes + c.merges + c.moves, int64(c.walHead), c.blobPuts, int64(c.stageLag) + int64(h.ws.Lag())}
}

func (h *harness) close() { h.db.Close() }

// probe measures freshness once: it inserts a row on the primary and polls
// the workspace until the row is visible there. The clock starts when the
// insert is issued, so the figure is what a reader on the workspace waits
// after a writer's call, commit latency included.
func (h *harness) probe(l *clientLog) {
	l.attempted++
	// Probe ids are distinct across clients.
	l.probes++
	id := int64(l.client)<<40 | l.probes
	start := time.Now()
	row := types.Row{types.NewInt(id), types.NewInt(start.UnixNano())}
	if err := h.db.Insert(probeTable, row); err != nil {
		l.fail(fmt.Errorf("probe insert: %w", err))
		return
	}
	filter := exec.NewLeaf(0, vector.Eq, types.NewInt(id))
	for {
		views, err := h.ws.Views(probeTable)
		if err != nil {
			l.fail(fmt.Errorf("probe views: %w", err))
			return
		}
		n, err := exec.CountViews(context.Background(), views, filter, 1, nil)
		if err != nil {
			l.fail(fmt.Errorf("probe count: %w", err))
			return
		}
		if n > 0 {
			break
		}
		if time.Since(start) > 5*time.Second {
			l.fail(errors.New("probe: row not visible on the workspace after 5s"))
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
	l.fresh = append(l.fresh, float64(time.Since(start)))
}

// deck deals the numbers 0..99 in shuffled order and reshuffles when it runs
// out, as the TPC-C specification's card deck does: a mix drawn from it
// holds its proportions exactly over every hundred operations. Independent
// draws would let the share of a rare, expensive class — Delivery is 4% of
// the transactions and half of their time — swing by a tenth from seed to
// seed, and the throughput with it.
type deck struct {
	rng   *rand.Rand
	cards [100]int
	next  int
}

func newDeck(rng *rand.Rand) *deck { return &deck{rng: rng, next: 100} }

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		for i, v := range d.rng.Perm(len(d.cards)) {
			d.cards[i] = v
		}
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// clientLog is what one client goroutine records during a measured phase.
// Only its own goroutine touches it until the phase has ended.
type clientLog struct {
	client int
	tr     *tracer
	// lat holds latencies in ns by operation class.
	lat       map[string][]float64
	fresh     []float64
	attempted int
	failed    int
	rollbacks int
	timeouts  int
	err       error
	probes    int64
}

func (l *clientLog) fail(err error) {
	l.failed++
	if strings.Contains(err.Error(), "row lock wait timed out") {
		l.timeouts++
	}
	if l.err == nil {
		l.err = err
	}
}

// op times one operation of the given class under a root span.
func (l *clientLog) op(class string, fn func() error) {
	l.attempted++
	l.tr.begin(layerClient, class)
	start := time.Now()
	err := fn()
	end := time.Now()
	l.tr.end()
	if err != nil {
		l.fail(fmt.Errorf("%s: %w", class, err))
		return
	}
	l.lat[class] = append(l.lat[class], float64(end.Sub(start)))
}

// phase is the merged result of one measured phase.
type phase struct {
	wall time.Duration
	cpu  time.Duration
	lat  map[string][]float64
	// tail holds the latencies of the after hook's operations, which count
	// as attempted but are kept out of every timing.
	tail      map[string][]float64
	fresh     []float64
	attempted int
	failed    int
	rollbacks int
	timeouts  int
	err       error
	spans     []span

	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64

	before, after counters
	// The worst replication lag seen, in records: sync replicas, workspace.
	replLagMax, wsLagMax int
}

// ops counts completed operations of the given classes.
func (p *phase) ops(classes []string) int {
	n := 0
	for _, c := range classes {
		n += len(p.lat[c])
	}
	return n
}

// pooled returns the latencies of the given classes in one ascending slice.
func (p *phase) pooled(classes []string) []float64 {
	var all []float64
	for _, c := range classes {
		all = append(all, p.lat[c]...)
	}
	sort.Float64s(all)
	return all
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs inst.run — the workload's clients, to completion — bracketed
// by the wall clock, CPU, allocation and engine counter readings, and then
// inst.after, outside all of them. spansPerClient pre-sizes the span buffers;
// 0 runs untraced.
func (h *harness) measure(spansPerClient int, inst instance) *phase {
	logs := make([]*clientLog, clients)
	for i := range logs {
		logs[i] = &clientLog{client: i, lat: make(map[string][]float64)}
		if spansPerClient > 0 {
			logs[i].tr = newTracer(i, spansPerClient)
		}
	}
	// The after hook's clients get logs of their own, never traced; their
	// client numbers keep their probe ids apart from the measured clients'.
	tails := make([]*clientLog, clients)
	for i := range tails {
		tails[i] = &clientLog{client: clients + i, lat: make(map[string][]float64)}
	}
	p := &phase{lat: make(map[string][]float64), tail: make(map[string][]float64)}

	// Lag is a level, not a counter, so it is sampled while the phase runs —
	// only in the traced run, where the per-layer metrics come from.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if spansPerClient > 0 {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if n := h.db.Cluster().ReplicationLag(); n > p.replLagMax {
						p.replLagMax = n
					}
					if n := h.ws.Lag(); n > p.wsLagMax {
						p.wsLagMax = n
					}
				}
			}
		}()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.before = h.snapshot()
	cpu0 := cpuTime()
	start := time.Now()
	for _, l := range logs {
		if l.tr != nil {
			l.tr.epoch = start
		}
	}
	inst.run(logs)
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	close(stop)
	sampler.Wait()
	p.after = h.snapshot()
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	inst.after(tails)

	for i, l := range append(logs, tails...) {
		lat := p.lat
		if i >= len(logs) {
			lat = p.tail
		}
		for c, v := range l.lat {
			lat[c] = append(lat[c], v...)
		}
		p.fresh = append(p.fresh, l.fresh...)
		p.attempted += l.attempted
		p.failed += l.failed
		p.rollbacks += l.rollbacks
		p.timeouts += l.timeouts
		if p.err == nil {
			p.err = l.err
		}
		if l.tr != nil {
			p.spans = append(p.spans, l.tr.spans...)
		}
	}
	return p
}

// runClients runs fn once per client goroutine and waits for all of them.
func runClients(logs []*clientLog, fn func(l *clientLog)) {
	var wg sync.WaitGroup
	for _, l := range logs {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(l)
		}()
	}
	wg.Wait()
}

// liveHeapMB is the heap still reachable after a collection, database open.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// idleCPUPct is the process's CPU use over a quiescent second, as a share
// of one core: what the background tickers cost when nothing is asked of
// the engine.
func idleCPUPct() float64 {
	cpu0, start := cpuTime(), time.Now()
	time.Sleep(time.Second)
	return 100 * float64(cpuTime()-cpu0) / float64(time.Since(start))
}

// counters is one reading of everything the engine exports that the
// per-layer metrics are differences of.
type counters struct {
	flushes, merges, moves, mergeAborts int64
	segments                            int
	walPages, walHead                   uint64
	stageLag                            uint64
	stageChunks                         int
	blobPuts, blobPutBytes              int64
	blobGets, blobGetBytes              int64
	vecHits, vecMisses                  int64
	vecEvictions, vecInvalidations      int64
	qosWaits, qosSheds                  int64
	qosWaitNs                           int64
	linkReconnects, linkErrors          int
}

func (h *harness) snapshot() counters {
	var c counters
	cl := h.db.Cluster()
	for pi := 0; pi < cl.Partitions(); pi++ {
		m := cl.Master(pi)
		for _, t := range m.Tables() {
			c.flushes += t.Stats.Flushes.Load()
			c.merges += t.Stats.Merges.Load()
			c.moves += t.Stats.Moves.Load()
			c.mergeAborts += t.Stats.MergeAborts.Load()
			c.segments += t.SegmentCount()
		}
		c.walPages += m.Log().PagesSealed()
		c.walHead += m.Log().Head()
		if head, up := m.Log().Head(), m.Uploaded(); head > up {
			c.stageLag += head - up
		}
		_, chunks, _, _ := cl.Stager(pi).Stats()
		c.stageChunks += chunks
	}
	c.blobPuts, c.blobPutBytes = h.store.puts.Load(), h.store.putBytes.Load()
	c.blobGets, c.blobGetBytes = h.store.gets.Load(), h.store.getBytes.Load()
	vc := h.db.VectorCacheStats().Total
	c.vecHits, c.vecMisses = vc.Hits, vc.Misses
	c.vecEvictions, c.vecInvalidations = vc.Evictions, vc.Invalidations
	for _, ts := range h.db.QoSStats() {
		for _, r := range []s2db.QoSResourceStats{ts.Workers, ts.ScanMem, ts.MergeIO, ts.WALBand} {
			c.qosWaits += r.Waits
			c.qosSheds += r.Sheds
			c.qosWaitNs += int64(r.WaitTime)
		}
	}
	c.linkReconnects = cl.LinkReconnects()
	c.linkErrors = len(cl.LinkErrors())
	return c
}

// stageDrain waits, for at most five seconds, until blob staging has caught
// up with the log, and reports how long that took. A full drain is never
// required: the stager uploads one chunk per sealed page, so a backlog can
// outlast any reasonable wait (README.md, known traps).
func (h *harness) stageDrain() time.Duration {
	start := time.Now()
	for time.Since(start) < 5*time.Second {
		if h.snapshot().stageLag == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// rowBytes is the user payload of a row: eight bytes per number, the bytes
// of each string.
func rowBytes(r types.Row) int64 {
	var n int64
	for _, v := range r {
		if v.Type == types.String {
			n += int64(len(v.S))
		} else {
			n += 8
		}
	}
	return n
}

// countingStore is the blob store the harness hands the engine: an
// in-memory store that counts what crosses it.
type countingStore struct {
	inner          *blob.Memory
	puts, putBytes atomic.Int64
	gets, getBytes atomic.Int64
}

func newCountingStore() *countingStore { return &countingStore{inner: blob.NewMemory()} }

func (s *countingStore) Put(key string, data []byte) error {
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	return s.inner.Put(key, data)
}

func (s *countingStore) Get(key string) ([]byte, error) {
	data, err := s.inner.Get(key)
	s.gets.Add(1)
	s.getBytes.Add(int64(len(data)))
	return data, err
}

func (s *countingStore) Delete(key string) error { return s.inner.Delete(key) }

func (s *countingStore) List(prefix string) ([]string, error) { return s.inner.List(prefix) }

// storedBytes is the payload the store holds now.
func (s *countingStore) storedBytes() int64 { return int64(s.inner.Bytes()) }
