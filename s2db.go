// Package s2db is a from-scratch Go implementation of the system described
// in "Cloud-Native Transactions and Analytics in SingleStore" (SIGMOD
// 2022): a distributed HTAP database with unified (universal) table
// storage, separation of storage and compute with asynchronous blob
// staging, adaptive query execution, synchronous in-cluster replication,
// read-only workspaces and point-in-time restore.
//
// The public surface is intentionally small. Queries can be written as
// SQL text with `?` bind parameters (parsed once per shape via the shared
// plan cache) or with the fluent Go builder (DB.Table); both lower onto
// the same execution plans:
//
//	db, _ := s2db.Open(s2db.Config{Partitions: 4, PlanCacheEntries: 256})
//	db.CreateTable("events", schema)
//	db.Insert("events", rows)
//	rows, _ := db.Query(
//	    "SELECT region, count(*), sum(amount) FROM events WHERE amount > ? GROUP BY region",
//	    s2db.Int(100))
//	same, _ := db.Table("events").
//	    Where(s2db.GtName("amount", s2db.Int(100))).
//	    GroupByNames("region").
//	    Agg(s2db.CountAll(), s2db.SumName("amount")).
//	    Rows()
package s2db

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"s2db/internal/blob"
	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/qos"
	"s2db/internal/sql"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// Re-exported value and schema types.
type (
	// Value is a dynamically typed cell.
	Value = types.Value
	// Row is a tuple of values in schema order.
	Row = types.Row
	// Column describes a table column.
	Column = types.Column
	// Schema describes a table: columns plus sort, shard, secondary and
	// unique keys (§4 of the paper).
	Schema = types.Schema
	// ColType enumerates column types.
	ColType = types.ColType
	// InsertOptions tunes duplicate-key handling (§4.1.2).
	InsertOptions = core.InsertOptions
	// Where targets rows for Update and Delete.
	Where = core.Where
	// Pin is one column equality of a Where.
	Pin = types.Pin
)

// Column type constants.
const (
	Int64T   = types.Int64
	Float64T = types.Float64
	StringT  = types.String
)

// Duplicate-key policies (§4.1.2).
const (
	DupError   = core.DupError
	DupSkip    = core.DupSkip
	DupReplace = core.DupReplace
	DupUpdate  = core.DupUpdate
)

// ErrDuplicateKey is returned by inserts violating a unique key.
var ErrDuplicateKey = core.ErrDuplicateKey

// Int builds an Int64 value.
func Int(v int64) Value { return types.NewInt(v) }

// Float builds a Float64 value.
func Float(v float64) Value { return types.NewFloat(v) }

// Str builds a String value.
func Str(v string) Value { return types.NewString(v) }

// NewSchema builds a schema with no keys configured.
func NewSchema(cols ...Column) *Schema { return types.NewSchema(cols...) }

// Config configures a database.
type Config struct {
	// Name is the database name (namespace in blob storage).
	Name string
	// Partitions is the number of hash partitions (§2).
	Partitions int
	// SyncReplicas per partition ack commits for durability (§2).
	SyncReplicas int
	// BlobStore enables separated storage (§3); nil runs shared-nothing.
	BlobStore BlobStore
	// BlobPutLatency/BlobGetLatency inject simulated object-store latency.
	BlobPutLatency, BlobGetLatency time.Duration
	// CacheBytes bounds the per-partition local data-file cache.
	CacheBytes int
	// VectorCacheBytes bounds the node-wide decoded-vector cache: fully
	// decoded column vectors shared across queries (and across the
	// parallel scheduler's workers) so repeated scans of immutable segments
	// skip decoding entirely. The primary and each workspace get their own
	// LRU partition, sized by TenantShares like every QoS resource. 0 uses
	// DefaultVectorCacheBytes; negative disables the cache (scans fall back
	// to private per-query decodes).
	VectorCacheBytes int
	// ReplicationLatency simulates the intra-cluster network.
	ReplicationLatency time.Duration
	// MaxSegmentRows tunes columnstore segment sizing.
	MaxSegmentRows int
	// BackgroundMaintenance runs the flusher and merger automatically.
	BackgroundMaintenance bool
	// LogPageBytes caps a replication log page (§3: log pages are the unit
	// of replication, durability and blob staging). A page seals early once
	// its records reach this size. 0 uses the WAL default (64KiB).
	LogPageBytes int
	// GroupCommitInterval batches concurrent writers' log records into one
	// page for up to this long before the page seals, ships to the sync
	// replicas in a single latency hop and releases every waiting commit at
	// once. 0 seals a page per record (no added commit latency, no
	// batching). Commit latency with group commit enabled is bounded by
	// GroupCommitInterval + ReplicationLatency.
	GroupCommitInterval time.Duration
	// PlanCacheEntries bounds the shared SQL plan cache: lowered plans
	// keyed by normalized query template (literals stripped to binds), so
	// repeated query shapes pay lex/parse/lower once and then only
	// bind + execute. 0 disables the cache — the ablation knob: every
	// DB.Query/Exec/Explain call then compiles from scratch.
	// DefaultPlanCacheEntries (256) is a good production size.
	PlanCacheEntries int
	// Transport selects how replication crosses between master and
	// replica partitions: "" or TransportMemory keeps the in-process
	// zero-copy channel transport (the seed behavior); TransportTCP ships
	// every log page through the versioned, CRC-checked wire codec over
	// loopback TCP sockets, so sync-replica durability round-trips a real
	// socket. Any other value fails Open.
	Transport string
	// LinkStallTimeout bounds how long a replication link tolerates
	// shipped pages with no apply/ack progress before it tears its
	// session down and reconnects (how fast lost frames or healed
	// partitions are noticed). 0 uses cluster.DefaultLinkStallTimeout
	// (500ms).
	LinkStallTimeout time.Duration
	// TenantShares pins explicit fractions of every tenant resource
	// budget — the four QoS resources and VectorCacheBytes — to named
	// tenants: the reserved name "primary" (PrimaryTenant) is the primary
	// cluster's workload, a workspace's tenant is its workspace name, and
	// Query.AsTenant / WithTenant tag arbitrary front-door tenants.
	// Tenants without an explicit entry split the unreserved remainder
	// evenly. Validated at Open: names non-empty, each share finite and in
	// (0, 1], sum at most 1.0, and without an explicit "primary" entry the
	// shares must leave the primary a positive remainder.
	TenantShares map[string]float64
	// QoSWorkerSlots is the total query fan-out worker-slot pool split
	// across tenants by TenantShares weight. 0 uses
	// DefaultQoSWorkerSlots (4×GOMAXPROCS, at least 8); negative leaves
	// the resource ungoverned.
	QoSWorkerSlots int
	// QoSScanMemoryBytes is the total scan/materialization memory
	// budget (decoded vectors + materialized rows a tenant's scans may
	// hold concurrently). 0 uses DefaultQoSScanMemoryBytes; negative
	// ungoverns the resource.
	QoSScanMemoryBytes int64
	// QoSMergeIOBytes is the total background merge I/O budget (bytes
	// of merge output in flight). 0 uses DefaultQoSMergeIOBytes;
	// negative ungoverns the resource.
	QoSMergeIOBytes int64
	// QoSWALBytesPerSec is the total WAL/replication bandwidth budget,
	// rate-style: a workspace's replication stream consumes its
	// tenant's share and self-paces on the refill clock; a stream so
	// far over budget that a page's wait would exceed the governor's
	// maximum is shed with ErrOverloaded and heals through the
	// workspace resync path. 0 uses DefaultQoSWALBytesPerSec; negative
	// ungoverns the resource. Sync (HA) replica links are never paced —
	// they are the durability path.
	QoSWALBytesPerSec int64
	// QoSQueueDepth caps concurrent waiters per tenant per resource;
	// an admission request beyond the cap is shed with a typed
	// ErrOverloaded carrying a retry-after hint instead of queueing.
	// 0 uses DefaultQoSQueueDepth; negative sheds immediately on budget
	// exhaustion (no queueing at all).
	QoSQueueDepth int
}

// PrimaryTenant is the reserved tenant name accounting for the primary
// cluster's own workload (queries not tagged otherwise, merges, HA
// bookkeeping) in TenantShares and QoSStats.
const PrimaryTenant = "primary"

// QoS capacity defaults, applied when the corresponding Config field is
// zero.
const (
	DefaultQoSScanMemoryBytes = int64(1) << 30   // 1 GiB
	DefaultQoSMergeIOBytes    = int64(256) << 20 // 256 MiB
	DefaultQoSWALBytesPerSec  = int64(256) << 20 // 256 MiB/s
	DefaultQoSQueueDepth      = 64
)

// DefaultQoSWorkerSlots sizes the worker-slot pool when
// Config.QoSWorkerSlots is zero: 4×GOMAXPROCS, at least 8 — wide enough
// that a single tenant's ordinary concurrency never queues, tight
// enough that a flood cannot pile unbounded scan tasks onto the
// scheduler.
func DefaultQoSWorkerSlots() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// qosWALMaxWait bounds how long one replication page may self-pace on
// the refill clock before the stream sheds instead (healing through the
// workspace resync path).
const qosWALMaxWait = 2 * time.Second

// newGovernor resolves the QoS knobs into a governor. cfg.TenantShares
// must already pass qos.ValidateShares.
func newGovernor(cfg Config) *qos.Governor {
	resolve := func(v, def int64) int64 {
		switch {
		case v == 0:
			return def
		case v < 0:
			return 0 // ungoverned
		}
		return v
	}
	depth := cfg.QoSQueueDepth
	switch {
	case depth == 0:
		depth = DefaultQoSQueueDepth
	case depth < 0:
		depth = 0
	}
	var lim [qos.NumResources]qos.Limits
	lim[qos.Workers] = qos.Limits{
		Capacity:   resolve(int64(cfg.QoSWorkerSlots), int64(DefaultQoSWorkerSlots())),
		QueueDepth: depth,
	}
	lim[qos.ScanMem] = qos.Limits{
		Capacity:   resolve(cfg.QoSScanMemoryBytes, DefaultQoSScanMemoryBytes),
		QueueDepth: depth,
	}
	lim[qos.MergeIO] = qos.Limits{
		Capacity:   resolve(cfg.QoSMergeIOBytes, DefaultQoSMergeIOBytes),
		QueueDepth: depth,
	}
	rate := resolve(cfg.QoSWALBytesPerSec, DefaultQoSWALBytesPerSec)
	burst := rate / 4
	if rate > 0 && burst < 1 {
		burst = 1 // a zero capacity would leave the resource ungoverned
	}
	lim[qos.WALBand] = qos.Limits{
		Capacity:     burst,
		RefillPerSec: rate,
		QueueDepth:   depth,
		MaxWait:      qosWALMaxWait,
	}
	g := qos.New(qos.Config{Shares: cfg.TenantShares, Limits: lim})
	g.Register(PrimaryTenant)
	return g
}

// Transport names accepted by Config.Transport.
const (
	// TransportMemory is the in-process channel transport (default).
	TransportMemory = "memory"
	// TransportTCP frames pages over loopback TCP sockets.
	TransportTCP = "tcp"
)

// BlobStore is the object-store contract (see internal/blob).
type BlobStore = blob.Store

// NewMemoryBlobStore returns an in-memory blob store for experiments.
func NewMemoryBlobStore() BlobStore { return blob.NewMemory() }

// NewDiskBlobStore returns a directory-backed blob store whose contents
// survive the process.
func NewDiskBlobStore(dir string) (BlobStore, error) { return blob.NewDisk(dir) }

// DefaultVectorCacheBytes sizes the decoded-vector cache when
// Config.VectorCacheBytes is zero.
const DefaultVectorCacheBytes = 64 << 20

// VecCacheStats snapshots one cache partition's counters (hits, misses,
// evictions, residency and byte budget).
type VecCacheStats = exec.VecCacheStats

// VectorCacheStats is the per-partition breakdown of the decoded-vector
// cache: the primary's partition, each workspace's partition by name, and
// the fold of all of them.
type VectorCacheStats struct {
	// Total folds every partition's counters together (the process-wide
	// view).
	Total VecCacheStats
	// Primary is the primary cluster's partition.
	Primary VecCacheStats
	// Workspaces holds each attached workspace's partition by name.
	Workspaces map[string]VecCacheStats
}

// HitRate reports the cache-wide hit rate across all partitions.
func (s VectorCacheStats) HitRate() float64 { return s.Total.HitRate() }

// DB is a running database.
type DB struct {
	cluster *cluster.Cluster
	vec     *exec.VecCacheGroup
	// plans is the shared SQL plan cache; nil (PlanCacheEntries == 0)
	// compiles every statement from scratch.
	plans *sql.Cache
	// gov is the multi-tenant QoS governor.
	gov *qos.Governor
}

// Multi-tenant QoS re-exports: the typed shedding contract and the
// per-tenant accounting surfaced by DB.QoSStats and Plan.QoS.
type (
	// QoSTenantStats is one tenant's per-resource token accounting.
	QoSTenantStats = qos.TenantStats
	// QoSResourceStats is one (tenant, resource) bucket's counters.
	QoSResourceStats = qos.ResourceStats
	// OverloadError is a typed shed: tenant, resource and a retry-after
	// hint that grows (and never shrinks) while the overload lasts.
	OverloadError = qos.OverloadError
)

// ErrOverloaded is the sentinel every QoS shed unwraps to; match with
// errors.Is, then errors.As to *OverloadError for the retry-after.
var ErrOverloaded = qos.ErrOverloaded

// QoSRetryAfter extracts the retry-after hint from a shed error chain
// (0 when err is not an overload).
func QoSRetryAfter(err error) time.Duration { return qos.RetryAfter(err) }

// QoSStats snapshots every tenant's token accounting across the four
// governed resources: budgets, tokens in use, cumulative tokens spent,
// admission waits and wait time, and sheds.
func (db *DB) QoSStats() map[string]QoSTenantStats { return db.gov.Stats() }

// tenantCtxKey carries a WithTenant tag through a context.
type tenantCtxKey struct{}

// WithTenant tags a context with the tenant every query run under it is
// accounted to — the front-door form of Query.AsTenant, usable with
// QueryCtx/RowsCtx/CountCtx.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext reports the WithTenant tag, if any.
func TenantFromContext(ctx context.Context) (string, bool) {
	t, ok := ctx.Value(tenantCtxKey{}).(string)
	return t, ok && t != ""
}

// newVecCacheGroup resolves the cache knobs: VectorCacheBytes 0 = default,
// <0 = disabled (nil group). cfg.TenantShares must already pass
// qos.ValidateShares.
func newVecCacheGroup(cfg Config) *exec.VecCacheGroup {
	bytes := cfg.VectorCacheBytes
	if bytes == 0 {
		bytes = DefaultVectorCacheBytes
	}
	return exec.NewVecCacheGroup(bytes, PrimaryTenant, cfg.TenantShares)
}

// tenants is the DB's one tenant provider: a tenant is a name with its
// decoded-vector cache partition and its QoS governor registration.
type tenants struct {
	vec *exec.VecCacheGroup
	gov *qos.Governor
}

// Attach provisions a workspace's cache partition and registers it with
// the governor.
func (ts tenants) Attach(name string) (core.Tenant, error) {
	p, err := ts.vec.AttachPartition(name)
	if err != nil {
		return core.Tenant{}, err
	}
	ts.gov.Register(name)
	return ts.tenant(name, p), nil
}

// Detach releases a workspace's cache partition and governor registration.
func (ts tenants) Detach(name string) {
	ts.vec.DetachPartition(name)
	ts.gov.Unregister(name)
}

func (ts tenants) tenant(name string, p *exec.VecCache) core.Tenant {
	t := core.Tenant{Name: name, Gov: ts.gov}
	if p != nil {
		// Assigned only when enabled so a disabled cache stays a nil
		// interface (not a typed-nil *VecCache) inside core.
		t.Cache = p
	}
	return t
}

// newTransport resolves Config.Transport.
func newTransport(cfg Config) (cluster.Transport, error) {
	switch cfg.Transport {
	case "", TransportMemory:
		return cluster.NewMemoryTransport(), nil
	case TransportTCP:
		return cluster.NewTCPTransport()
	}
	return nil, fmt.Errorf("s2db: unknown transport %q (want %q or %q)", cfg.Transport, TransportMemory, TransportTCP)
}

// Open creates and starts a database.
func Open(cfg Config) (*DB, error) {
	db, ccfg, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	if db.cluster, err = cluster.New(ccfg); err != nil {
		ccfg.Transport.Close()
		return nil, err
	}
	return db, nil
}

// newDB resolves cfg into the cluster configuration that Open and
// PointInTimeRestore both build from, and the DB that will wrap the
// cluster.
func newDB(cfg Config) (*DB, cluster.Config, error) {
	var store blob.Store
	if cfg.BlobStore != nil {
		store = blob.NewSimulator(cfg.BlobStore, cfg.BlobPutLatency, cfg.BlobGetLatency)
	}
	// One validation covers every resource the shares size, so it runs
	// even when the cache or the governor is disabled.
	if err := qos.ValidateShares(cfg.TenantShares, PrimaryTenant); err != nil {
		return nil, cluster.Config{}, err
	}
	ts := tenants{vec: newVecCacheGroup(cfg), gov: newGovernor(cfg)}
	transport, err := newTransport(cfg)
	if err != nil {
		return nil, cluster.Config{}, err
	}
	ccfg := cluster.Config{
		Name:               cfg.Name,
		Partitions:         cfg.Partitions,
		SyncReplicas:       cfg.SyncReplicas,
		Blob:               store,
		CacheBytes:         cfg.CacheBytes,
		ReplicationLatency: cfg.ReplicationLatency,
		Log:                wal.PageConfig{MaxBytes: cfg.LogPageBytes, FlushInterval: cfg.GroupCommitInterval},
		Transport:          transport,
		LinkStallTimeout:   cfg.LinkStallTimeout,
		Table: core.Config{
			MaxSegmentRows: cfg.MaxSegmentRows,
			Background:     cfg.BackgroundMaintenance,
			Tenant:         ts.tenant(PrimaryTenant, ts.vec.Primary()),
		},
		Tenants: ts,
	}
	return &DB{vec: ts.vec, plans: sql.NewCache(cfg.PlanCacheEntries), gov: ts.gov}, ccfg, nil
}

// VectorCacheStats returns the decoded-vector cache counters broken down
// by partition — the primary's and each workspace's; all zero when the
// cache is disabled.
func (db *DB) VectorCacheStats() VectorCacheStats {
	gs := db.vec.Stats()
	return VectorCacheStats{
		Total:      gs.Total(),
		Primary:    gs.Primary,
		Workspaces: gs.Workspaces,
	}
}

// Close stops the database.
func (db *DB) Close() { db.cluster.Close() }

// Cluster exposes the underlying cluster for advanced operations
// (workspaces, failover, PITR, staging stats).
func (db *DB) Cluster() *cluster.Cluster { return db.cluster }

// CreateTable registers a table on every partition.
func (db *DB) CreateTable(name string, schema *Schema) error {
	return db.cluster.CreateTable(name, schema)
}

// Insert writes rows with default options and waits for durability.
func (db *DB) Insert(table string, rows ...Row) error {
	_, err := db.cluster.Insert(table, rows, core.InsertOptions{})
	return err
}

// InsertWith writes rows under an explicit duplicate-key policy.
func (db *DB) InsertWith(table string, opts InsertOptions, rows ...Row) (core.InsertResult, error) {
	return db.cluster.Insert(table, rows, opts)
}

// BulkLoad ingests rows directly into columnstore segments.
func (db *DB) BulkLoad(table string, rows []Row) error {
	return db.cluster.BulkLoad(table, rows)
}

// Get returns the row with the given unique key values.
func (db *DB) Get(table string, keyVals ...Value) (Row, bool, error) {
	return db.cluster.GetByUnique(table, keyVals)
}

// Update rewrites matching rows via set.
func (db *DB) Update(table string, w Where, set func(Row) Row) (int, error) {
	return db.cluster.UpdateWhere(table, w, set)
}

// Delete removes matching rows.
func (db *DB) Delete(table string, w Where) (int, error) {
	return db.cluster.DeleteWhere(table, w)
}

// Flush forces buffered rows into columnstore segments on every partition.
func (db *DB) Flush(table string) error { return db.cluster.Flush(table) }

// CreateWorkspace provisions an isolated read-only workspace (§3.2).
func (db *DB) CreateWorkspace(name string) (*Workspace, error) {
	if name == PrimaryTenant {
		// A workspace's name is its tenant and cache partition, so this one
		// would share the primary's budgets and unregister them on detach.
		return nil, fmt.Errorf("s2db: workspace name %q is reserved for the primary", name)
	}
	ws, err := db.cluster.CreateWorkspace(name)
	if err != nil {
		return nil, err
	}
	return &Workspace{db: db, ws: ws}, nil
}

// Workspace is a handle to a read-only workspace.
type Workspace struct {
	db *DB
	ws *cluster.Workspace
}

// WaitCaughtUp blocks until the workspace has replayed the primary's log.
func (w *Workspace) WaitCaughtUp(timeout time.Duration) error {
	return w.db.cluster.WaitCaughtUp(w.ws, timeout)
}

// Lag reports pending replication records.
func (w *Workspace) Lag() int { return w.ws.Lag() }

// Detach removes the workspace.
func (w *Workspace) Detach() error { return w.db.cluster.DetachWorkspace(w.ws.Name) }

// PointInTimeRestore opens a database restored purely from blob storage as
// of the target wall-clock time (§3.2): no backups are needed — the blob
// store's retained history is the backup. The catalog supplies the table
// schemas (DDL lives in the control plane, not in blob data). The returned
// DB serves queries on the restored state.
func PointInTimeRestore(cfg Config, catalog map[string]*Schema, target time.Time) (*DB, error) {
	if cfg.BlobStore == nil {
		return nil, fmt.Errorf("s2db: point-in-time restore requires a blob store")
	}
	db, ccfg, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	if db.cluster, err = cluster.PointInTimeRestore(ccfg, catalog, target); err != nil {
		return nil, err
	}
	return db, nil
}
