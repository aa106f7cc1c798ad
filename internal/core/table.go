// Package core implements the paper's primary contribution: unified
// (universal) table storage (§4). A table is a columnstore LSM whose top
// level is an in-memory MVCC rowstore buffer; deletes are represented as
// bit vectors in segment metadata instead of tombstone records, so reads
// never pay merge-based reconciliation; secondary and unique keys are
// served by the two-level index of §4.1; and an update or delete moves the
// segment rows it reaches into the buffer under their row locks (§4.2),
// inside its own transaction. One Table object manages one partition of
// one logical table.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s2db/internal/colstore"
	"s2db/internal/index"
	"s2db/internal/qos"
	"s2db/internal/rowstore"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// Config tunes one table partition.
type Config struct {
	// MaxSegmentRows caps segment size and sets the flush batch size.
	MaxSegmentRows int
	// FlushThreshold is the buffer row count at which the background
	// flusher converts rows to a segment. Defaults to MaxSegmentRows.
	FlushThreshold int
	// MergeFanout controls the LSM merge policy (§2.1.2).
	MergeFanout int
	// Background enables the maintenance loop (flush, merge, compaction)
	// when the table is started.
	Background bool
	// MergeWorkers bounds the goroutines that encode and persist merge
	// output segments in parallel (capped by the output count). Defaults
	// to 4.
	MergeWorkers int
	// Tenant is whose resources the partition's work uses: the primary's
	// for masters and HA replicas, a workspace's for its replicas.
	Tenant Tenant
}

// Tenant is one tenant's handle on the shared resources a table uses.
type Tenant struct {
	// Name is the QoS tenant the table's maintenance work is accounted to.
	Name string
	// Cache, when non-nil, is the decoded-vector cache the execution layer
	// serves this tenant's scans from (exec.VecCache). The table's only
	// obligation is invalidation: it drops a segment's vectors when an LSM
	// merge retires the segment. When the value also implements
	// VectorResidency the merge planner prefers cold runs, and when it
	// implements colstore.VectorSource the merger reuses resident decoded
	// vectors instead of re-decoding inputs.
	Cache DecodedVectorCache
	// Gov, when non-nil, is the multi-tenant governor merges lease their
	// I/O budget from (qos.MergeIO tokens ≈ bytes of merge output in
	// flight): a merge whose tenant is out of budget waits its turn, and
	// one shed at the queue cap skips the round — the maintenance loop arms
	// its retry timer and tries again. Nil leaves merges ungoverned.
	Gov *qos.Governor
}

// lockTimeout bounds row-lock and unique-key-lock waits.
const lockTimeout = 2 * time.Second

// DecodedVectorCache is the invalidation contract between table maintenance
// and the execution layer's decoded-vector cache: segment payloads are
// immutable, so retiring the segment is the only event that can stale a
// cached vector.
type DecodedVectorCache interface {
	InvalidateSegment(seg *colstore.Segment)
}

// VectorResidency is the optional cache-awareness contract: a decoded-vector
// cache that can report how "hot" a segment is (resident decoded bytes plus
// accumulated hits) lets the merge planner prefer cold runs, so merges
// invalidate as little cached work as possible.
type VectorResidency interface {
	SegmentHeat(seg *colstore.Segment) (residentBytes, hits int64)
}

func (c Config) withDefaults() Config {
	if c.MaxSegmentRows <= 0 {
		c.MaxSegmentRows = colstore.MaxSegmentRows
	}
	if c.FlushThreshold <= 0 {
		c.FlushThreshold = c.MaxSegmentRows
	}
	if c.MergeFanout < 2 {
		c.MergeFanout = 4
	}
	if c.MergeWorkers <= 0 {
		c.MergeWorkers = 4
	}
	return c
}

// FileStore persists segment data files. The cluster layer backs this with
// the local file cache plus blob staging; standalone tables use MemFiles.
// A LoadFile whose ctx ends abandons the caller's wait, not a fetch that
// other callers share: they (and a cache) still get the payload.
type FileStore interface {
	SaveFile(name string, data []byte) error
	LoadFile(ctx context.Context, name string) ([]byte, error)
	RemoveFile(name string) error
}

// MemFiles is an in-memory FileStore for standalone tables and tests.
type MemFiles struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemFiles returns an empty in-memory file store.
func NewMemFiles() *MemFiles { return &MemFiles{m: make(map[string][]byte)} }

// SaveFile implements FileStore.
func (f *MemFiles) SaveFile(name string, data []byte) error {
	f.mu.Lock()
	f.m[name] = append([]byte(nil), data...)
	f.mu.Unlock()
	return nil
}

// LoadFile implements FileStore; an in-memory load never waits, so it
// ignores ctx.
func (f *MemFiles) LoadFile(_ context.Context, name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.m[name]
	if !ok {
		return nil, fmt.Errorf("memfiles: %s not found", name)
	}
	return d, nil
}

// RemoveFile implements FileStore.
func (f *MemFiles) RemoveFile(name string) error {
	f.mu.Lock()
	delete(f.m, name)
	f.mu.Unlock()
	return nil
}

// Committer serializes commit publication for one partition and owns its
// clock: a commit takes the next timestamp, applies its effects, and
// publishes by advancing the clock, so readers at ReadTS always see fully
// applied transactions (partition-local snapshot isolation, §2.1.2).
type Committer struct {
	mu sync.Mutex
	ts atomic.Uint64 // the published timestamp; written under mu
}

// NewCommitter returns a committer whose clock reads 0.
func NewCommitter() *Committer { return &Committer{} }

// ReadTS returns the published timestamp, the snapshot of a new reader.
func (c *Committer) ReadTS() uint64 { return c.ts.Load() }

// Commit runs fn with the next commit timestamp and publishes it. fn must
// be short: it installs already-prepared state.
func (c *Committer) Commit(fn func(ts uint64)) uint64 {
	c.mu.Lock()
	ts := c.ts.Load() + 1
	fn(ts)
	c.ts.Store(ts)
	c.mu.Unlock()
	return ts
}

// Quiesce runs fn under the commit mutex with the published timestamp. No
// commit or replay is in flight meanwhile, so the state at that timestamp
// holds exactly the log records appended so far: fn can read the log head
// as one consistent cut with it.
func (c *Committer) Quiesce(fn func(ts uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.ts.Load())
}

// SettledTS returns the read timestamp once every commit in flight has
// published. A commit releases its row locks before it advances the
// clock, so a writer that just acquired a lock a commit released must
// snapshot at SettledTS, not ReadTS, to see that commit's effects.
func (c *Committer) SettledTS() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ts.Load()
}

// ReplayAt runs fn under the commit mutex and publishes the recorded
// timestamp ts, used by log replay to reproduce original commit times.
// The clock never moves back.
func (c *Committer) ReplayAt(ts uint64, fn func()) {
	c.mu.Lock()
	fn()
	if ts > c.ts.Load() {
		c.ts.Store(ts)
	}
	c.mu.Unlock()
}

// segEntry tracks one segment's lifetime and its metadata version chain.
// The chain is the MVCC view of the mutable metadata the paper keeps in a
// durable rowstore table (§2.1.2): each deleted-bits update installs a new
// version at its commit timestamp.
type segEntry struct {
	createTS uint64
	dropTS   atomic.Uint64 // 0 while live
	versions atomic.Pointer[metaVersion]
	// remap is set when the segment is retired by a merge: it gives each
	// row offset its new location (off < 0 for rows deleted at merge time),
	// so a writer that claimed rows before the merge and commits after it
	// can re-apply its deleted bits ("the commit process applies all
	// segment merges between the scan timestamp and the commit timestamp of
	// the move transaction", §4.2). Indexed by old row offset.
	remap atomic.Pointer[[]remapTarget]
	// stub is true while the entry's segment is an unhydrated stub counted
	// in Table.unhydrated; hydration and drop race to CAS it off so the
	// counter decrements exactly once per stub.
	stub atomic.Bool
}

type remapTarget struct {
	seg uint64
	off int32 // < 0: the row had no surviving output location
}

type metaVersion struct {
	ts   uint64
	meta *colstore.Meta
	// prev is the next older version. Compaction cuts it (trimVersions)
	// while metaAt walks the chain, so it is atomic.
	prev atomic.Pointer[metaVersion]
}

// metaAt returns the metadata version visible at ts, or nil when the
// segment is not visible.
func (e *segEntry) metaAt(ts uint64) *colstore.Meta {
	if e.createTS > ts {
		return nil
	}
	if d := e.dropTS.Load(); d != 0 && d <= ts {
		return nil
	}
	for v := e.versions.Load(); v != nil; v = v.prev.Load() {
		if v.ts <= ts {
			return v.meta
		}
	}
	return nil
}

// trimVersions drops every version older than the newest one visible at
// keepTS, the reader horizon, below which no registered reader reads
// (rowstore's Compact trims its chains at the same horizon). Views keep
// the metadata they resolved.
func (e *segEntry) trimVersions(keepTS uint64) {
	for v := e.versions.Load(); v != nil; v = v.prev.Load() {
		if v.ts <= keepTS {
			v.prev.Store(nil)
			return
		}
	}
}

// latestMeta returns the newest metadata version.
func (e *segEntry) latestMeta() *colstore.Meta { return e.versions.Load().meta }

// Stats counts table operations for the experiment harness.
type Stats struct {
	Inserts, Updates, Deletes       atomic.Int64
	Flushes, Merges, Moves          atomic.Int64
	IndexProbes, SegmentsEliminated atomic.Int64
	DupConflicts                    atomic.Int64
	// BufferRowsScanned counts the write-buffer rows that the target
	// searches of UpdateWhere and DeleteWhere and LookupEqual visited.
	BufferRowsScanned atomic.Int64
	// MergeAborts counts merges abandoned because an output data file
	// failed to persist; saved outputs are deleted and the inputs stay
	// untouched, so the merge simply retries later.
	MergeAborts atomic.Int64
	// Hydrations counts stub segments whose payload the hydrator fetched
	// and decoded; HydrationErrors counts failed fetch/decode attempts
	// (the stub stays installed and the next demand retries).
	Hydrations      atomic.Int64
	HydrationErrors atomic.Int64
	// BackgroundRounds counts maintenance-loop rounds: one when the loop
	// starts, then one per wake by a commit or by the retry timer.
	BackgroundRounds atomic.Int64

	mergeErr atomic.Pointer[string]
}

// LastMergeError returns the most recent merge-abort cause, or nil when no
// merge has failed.
func (s *Stats) LastMergeError() error {
	if p := s.mergeErr.Load(); p != nil {
		return errors.New(*p)
	}
	return nil
}

func (s *Stats) setMergeError(err error) {
	msg := err.Error()
	s.mergeErr.Store(&msg)
}

// Table is one partition of a unified-storage table.
type Table struct {
	name   string
	schema *types.Schema
	cfg    Config

	committer *Committer
	log       *wal.Log
	files     FileStore

	buffer *rowstore.Store
	idx    *index.Set

	// keyMu is the key-set lock: InsertBatch on a unique-key table holds it
	// shared from its lock step to its commit, and BulkLoad exclusive over
	// its key check and installs, so no two writers create one key. It
	// comes before row locks and structMu; nothing holding either takes it.
	keyMu sync.RWMutex

	// structMu serializes structural changes (flush, merge installs, bulk
	// load installs) with each other and with the writes that walk for
	// their targets (Write with no whole unique key pinned), which hold it
	// from target discovery to commit so the rows they found stay where
	// they were found (§4.2). A bulk load checks its keys under it so that
	// no merge retires an index entry the check reads. Nothing holds a row
	// lock while it waits for structMu. A merge holds it only for the
	// install commit; the scan/merge/encode/save pipeline runs outside it
	// so flushes and writes proceed during merges.
	structMu sync.Mutex

	// mergeMu serializes merge steps with each other: the off-structMu
	// pipeline assumes no concurrent merge retires its input segments.
	mergeMu sync.Mutex

	segMu   sync.RWMutex
	segs    map[uint64]*segEntry
	nextSeg atomic.Uint64
	nextRun atomic.Int64
	rowID   atomic.Uint64

	// hydr is the lazy-started stub-payload fetcher (see hydrate.go);
	// unhydrated counts live stub segments — zero means every index probe
	// sees every row, the fast path of ensureProbeReady.
	hydr       atomic.Pointer[hydrator]
	hydrOnce   sync.Once
	unhydrated atomic.Int64

	// Stats is exported for the benchmark harness.
	Stats Stats

	// kick wakes the maintenance loop; its one slot coalesces wakes. It is
	// made in NewTable, so a commit before Start only fills the slot.
	kick chan struct{}
	// dirty is set by the first buffer-writing commit after a compaction
	// (wakeAfter) and cleared by the next compaction.
	dirty atomic.Bool

	bg struct {
		ctx     context.Context // canceled by Close
		cancel  context.CancelFunc
		wg      sync.WaitGroup
		started atomic.Bool // see Background
	}

	// readers registers every timestamp a view or a write statement reads
	// at; compaction reclaims below the oldest of them (readers.go).
	readers readers

	// imageBuilding admits one build of the write buffer's columnar image
	// at a time (image.go).
	imageBuilding atomic.Bool

	// Buffer garbage from commits up to garbageTS waits for a compaction at
	// keepTS >= garbageTS; compactedTS is the last keepTS, and lastCompact
	// when it ran. Guarded by structMu.
	lastCompact            time.Time
	garbageTS, compactedTS uint64
}

// NewTable creates a table partition. committer and log are shared by all
// tables of the partition; files persists segment payloads.
func NewTable(name string, schema *types.Schema, cfg Config, committer *Committer, log *wal.Log, files FileStore) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("table %s: %w", name, err)
	}
	cfg = cfg.withDefaults()
	t := &Table{
		name:      name,
		schema:    schema,
		cfg:       cfg,
		committer: committer,
		log:       log,
		files:     files,
		buffer:    rowstore.NewStore(lockTimeout, schema.BufferIndexes()...),
		idx:       index.NewSet(schema),
		segs:      make(map[uint64]*segEntry),
		kick:      make(chan struct{}, 1),
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Index exposes the secondary-index set (used by adaptive execution, §5).
func (t *Table) Index() *index.Set { return t.idx }

// BufferLen returns the number of live rows in the in-memory buffer.
func (t *Table) BufferLen() int { return t.buffer.Len() }

// SegmentCount returns the number of live segments at the latest snapshot.
func (t *Table) SegmentCount() int {
	ts := t.pinLatest()
	defer t.unpin(ts)
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	n := 0
	for _, e := range t.segs {
		if e.metaAt(ts) != nil {
			n++
		}
	}
	return n
}

// bufferKey returns the skiplist key for a row: the unique key when one is
// declared, otherwise a hidden monotonically increasing row id.
func (t *Table) bufferKey(r types.Row) []byte {
	if len(t.schema.UniqueKey) > 0 {
		return types.KeyOf(r, t.schema.UniqueKey)
	}
	return types.EncodeKey(nil, types.NewInt(int64(t.rowID.Add(1))))
}

// View is a consistent snapshot of the table at one timestamp, combining
// the visible segments (with their deleted-bits versions as of TS) and the
// buffer contents at TS. A view is registered with the table's reader
// registry from the moment it is taken: compaction keeps every version it
// can see until Release. A view dropped without Release is released by a
// finalizer, so a leaked view holds reclamation back until the next
// collection but never reads wrong rows.
type View struct {
	TS     uint64
	Schema *types.Schema
	Segs   []*colstore.Meta
	table  *Table
	// released is set by Release; a buffer read through a released view
	// panics.
	released atomic.Bool
}

// Snapshot returns a view at the latest published timestamp. The caller
// releases it (View.Release) when it has finished reading.
func (t *Table) Snapshot() *View { return t.viewAt(t.pinLatest()) }

// SnapshotAt returns a view at ts, which the caller releases. It panics
// when a compaction has already reclaimed versions a reader at ts would
// need: a timestamp older than the published one is only readable while
// a view or statement at or below it is open.
func (t *Table) SnapshotAt(ts uint64) *View {
	if !t.readers.pin(ts) {
		panic(fmt.Sprintf("core: table %s: snapshot at %d is below the reader horizon", t.name, ts))
	}
	return t.viewAt(ts)
}

// snapshotSettled is Snapshot at the settled timestamp (Committer.SettledTS).
// A compaction may pass that timestamp before it is registered; the next
// settled timestamp is then at least the horizon the compaction used.
func (t *Table) snapshotSettled() *View {
	for {
		if ts := t.committer.SettledTS(); t.readers.pin(ts) {
			return t.viewAt(ts)
		}
	}
}

// viewAt returns the view at ts, a timestamp registered in t.readers; the
// view owns that registration, and its finalizer releases it when the view
// is dropped without Release.
func (t *Table) viewAt(ts uint64) *View {
	t.segMu.RLock()
	segs := make([]*colstore.Meta, 0, len(t.segs))
	for _, e := range t.segs {
		if m := e.metaAt(ts); m != nil {
			segs = append(segs, m)
		}
	}
	t.segMu.RUnlock()
	// Segment order must be stable across snapshots (t.segs is a map):
	// scans emit rows in segment order, and query results are only
	// deterministic if every snapshot sees the same order.
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seg.ID < segs[j].Seg.ID })
	v := &View{TS: ts, Schema: t.schema, Segs: segs, table: t}
	runtime.SetFinalizer(v, func(v *View) { v.release() })
	return v
}

// Release unregisters the view: compaction may reclaim what only it could
// see. Its segment metadata stays readable, but a buffer read through it
// panics. Release is idempotent.
func (v *View) Release() {
	if v.release() {
		runtime.SetFinalizer(v, nil)
	}
}

// release unregisters the view the first time it is called and reports
// whether this call did.
func (v *View) release() bool {
	if v.released.Swap(true) {
		return false
	}
	v.table.readers.unpin(v.TS)
	return true
}

// mustBeOpen panics when v has been released: its timestamp may be below
// the horizon, so the buffer may no longer hold what it saw.
func (v *View) mustBeOpen() {
	if v.released.Load() {
		panic(fmt.Sprintf("core: table %s: read through a released view at %d", v.table.name, v.TS))
	}
}

// ReleaseAll releases every view of vs.
func ReleaseAll(vs []*View) {
	for _, v := range vs {
		v.Release()
	}
}

// ScanBuffer iterates the live buffer rows at the view's snapshot.
func (v *View) ScanBuffer(f func(r types.Row) bool) { v.ScanBufferAt(types.Placement{}, f) }

// ScanBufferAt iterates the live buffer rows p places, in key order, at
// the view's snapshot: a statement's types.Schema.Place seeks a unique-key
// range or a secondary key instead of walking the whole write buffer. The
// rows are a superset of the matches: callers re-check their predicate.
func (v *View) ScanBufferAt(p types.Placement, f func(r types.Row) bool) {
	v.mustBeOpen()
	v.table.buffer.ScanPlaced(p, v.TS, func(_ []byte, r types.Row) bool { return f(r) })
	// The registration must outlive the walk: keep the finalizer off it.
	runtime.KeepAlive(v)
}

// Index exposes the table's secondary indexes. Callers must restrict index
// matches to segments present in the view.
func (v *View) Index() *index.Set { return v.table.idx }

// DecodedCache exposes the table's tenant's decoded-vector cache (nil
// when none is configured); the execution layer serves repeated segment
// decodes from it.
func (v *View) DecodedCache() DecodedVectorCache { return v.table.cfg.Tenant.Cache }

// NumRows counts live rows in the view (buffer + segments minus deletes).
func (v *View) NumRows() int {
	n := 0
	for _, m := range v.Segs {
		n += m.LiveRows()
	}
	v.ScanBuffer(func(types.Row) bool { n++; return true })
	return n
}

// EnableBackground turns on background maintenance on a table created
// without it (a replica promoted to master, §2) and starts it.
func (t *Table) EnableBackground() {
	if t.cfg.Background {
		return
	}
	t.cfg.Background = true
	t.Start()
}

// Background reports whether the table's maintenance loop was started,
// by its config or by EnableBackground. It stays true after Close, so a
// failover reads it off the master it replaces.
func (t *Table) Background() bool { return t.bg.started.Load() }

// Start launches the maintenance loop (see maintain) when configured. Its
// first round runs at once, so work that built up before Start — a
// promoted replica's buffer, a bulk load's runs — is picked up without a
// further write.
func (t *Table) Start() {
	if !t.cfg.Background || t.bg.cancel != nil {
		return
	}
	t.bg.started.Store(true)
	t.bg.ctx, t.bg.cancel = context.WithCancel(context.Background())
	t.bg.wg.Add(1)
	go func() {
		defer t.bg.wg.Done()
		t.maintain(t.bg.ctx)
	}()
}

// Close stops background work, including any hydration workers; blocked
// hydration waiters get ErrTableClosed. A maintenance round in progress
// stops at its next flush or merge boundary.
func (t *Table) Close() {
	if t.bg.cancel != nil {
		t.bg.cancel()
		t.bg.wg.Wait()
	}
	if h := t.hydr.Load(); h != nil {
		h.stop()
	}
}
