package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"s2db/internal/blob"
	"s2db/internal/core"
	"s2db/internal/qos"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// Config describes a cluster.
type Config struct {
	// Name is the database name (blob key namespace).
	Name string
	// Partitions is the number of hash partitions.
	Partitions int
	// SyncReplicas is the number of HA replicas per partition that ack
	// commits (§2: "data is replicated synchronously to the replicas as
	// transactions commit").
	SyncReplicas int
	// Blob enables separated storage when non-nil (§3).
	Blob blob.Store
	// CacheBytes bounds the per-partition local data-file cache.
	CacheBytes int
	// CommitMode selects local-commit (S2DB) or blob-commit (CDW baseline).
	CommitMode CommitMode
	// ReplicationLatency simulates the network between master and replica.
	ReplicationLatency time.Duration
	// Table configures per-partition table storage. Its DecodedCache is
	// the primary cluster's decoded-vector cache handle, shared by every
	// master and HA replica.
	Table core.Config
	// CachePartitions, when non-nil, provisions an isolated decoded-vector
	// cache partition per workspace, so an analytic workspace churning cold
	// segments cannot evict the primary's hot set (§5 isolation). Workspace
	// replica tables get the attached handle instead of Table.DecodedCache.
	CachePartitions CachePartitioner
	// CommitTimeout bounds durability waits.
	CommitTimeout time.Duration
	// ChunkRecords and SnapshotEvery tune blob staging.
	ChunkRecords, SnapshotEvery int
	// LogPageBytes caps a replication log page; a page seals once its
	// records reach this size. Zero uses the WAL default (64KiB).
	LogPageBytes int
	// GroupCommitInterval is the page-seal timer: concurrent writers'
	// records batch into one page for up to this long, then ship, ack and
	// release their durability waits together. Zero seals a page per
	// record (the per-record seed behavior).
	GroupCommitInterval time.Duration
	// SubscriptionBudget bounds the bytes a replication subscription may
	// buffer before it is detached as a slow consumer. Zero uses the WAL
	// default (256MiB).
	SubscriptionBudget int
	// Transport is the boundary replication crosses between master and
	// replica partitions. Nil uses the in-process memory transport (the
	// zero-copy channel path, the seed behavior); NewTCPTransport routes
	// every page through the wire codec over loopback sockets, and
	// NewChaosTransport wraps either with seeded fault injection. The
	// cluster owns the transport and closes it on Close.
	Transport Transport
	// LinkStallTimeout bounds how long a replication link tolerates
	// shipped pages with no apply/ack progress before tearing its session
	// down and reconnecting from the replica's applied position. Zero uses
	// DefaultLinkStallTimeout.
	LinkStallTimeout time.Duration
	// Governor, when non-nil, meters multi-tenant resource use: workspace
	// replication links pace their page stream against the workspace
	// tenant's WAL-bandwidth budget, and workspaces register/unregister as
	// tenants on attach/detach. Sync HA links are never paced — they are
	// the durability path, and throttling them would turn a noisy tenant
	// into a commit-latency regression for everyone.
	Governor *qos.Governor
}

// CachePartitioner hands out per-workspace decoded-vector cache handles.
// Attach provisions (and budgets) the partition for a workspace; Detach
// releases it and returns its budget to the pool. Implemented by the
// top-level DB over exec.VecCacheGroup — an interface here so cluster does
// not depend on the execution engine.
type CachePartitioner interface {
	Attach(name string) (core.DecodedVectorCache, error)
	Detach(name string)
}

func (c Config) pageConfig() wal.PageConfig {
	return wal.PageConfig{
		MaxBytes:           c.LogPageBytes,
		FlushInterval:      c.GroupCommitInterval,
		SubscriptionBudget: c.SubscriptionBudget,
	}
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "db"
	}
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 10 * time.Second
	}
	if c.Transport == nil {
		c.Transport = NewMemoryTransport()
	}
	return c
}

// Cluster is a database: hash-partitioned masters, their HA replicas, blob
// staging and any attached read-only workspaces.
type Cluster struct {
	cfg Config

	transport Transport

	mu        sync.RWMutex
	catalog   map[string]*types.Schema
	masters   []*Partition
	replicas  [][]*Partition
	links     [][]*Link
	stagers   []*Stager
	workspace map[string]*Workspace

	nextReplicaID int
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.CommitMode == CommitBlob && cfg.Blob == nil {
		return nil, fmt.Errorf("cluster: CommitBlob requires a blob store")
	}
	c := &Cluster{
		cfg:       cfg,
		transport: cfg.Transport,
		catalog:   make(map[string]*types.Schema),
		workspace: make(map[string]*Workspace),
	}
	for i := 0; i < cfg.Partitions; i++ {
		files := NewPartitionFiles(c.blobPrefix(i), cfg.Blob, cfg.CacheBytes)
		p := newPartition(cfg.Name, i, RoleMaster, cfg.Table, files, cfg.CommitMode, 0, cfg.pageConfig())
		p.setMinSyncers(cfg.SyncReplicas)
		c.masters = append(c.masters, p)
		var reps []*Partition
		var links []*Link
		for r := 0; r < cfg.SyncReplicas; r++ {
			rep := c.newReplicaPartition(i, nil, "")
			link := c.startLinkFrom(p, rep, true, rep.Log().Head())
			reps = append(reps, rep)
			links = append(links, link)
		}
		c.replicas = append(c.replicas, reps)
		c.links = append(c.links, links)
		c.stagers = append(c.stagers, c.startStager(p))
	}
	return c, nil
}

// startStager starts blob staging out of master p.
func (c *Cluster) startStager(p *Partition) *Stager {
	s := NewStager(p, p.files, c.cfg.Blob, c.cfg.Partitions, c.cfg.ChunkRecords, c.cfg.SnapshotEvery)
	if c.cfg.Blob != nil {
		s.Start()
	}
	return s
}

func (c *Cluster) blobPrefix(part int) string {
	return fmt.Sprintf("%s/%d/", c.cfg.Name, part)
}

func (c *Cluster) replicaID() int {
	c.nextReplicaID++
	return c.nextReplicaID
}

// startLinkFrom starts a replication link over the cluster's transport
// with the configured latency and stall timeout.
func (c *Cluster) startLinkFrom(master, replica *Partition, syncAck bool, from uint64) *Link {
	return StartLinkFrom(c.transport, master, replica, syncAck,
		c.cfg.ReplicationLatency, c.cfg.LinkStallTimeout, c.replicaID(), from)
}

// startWorkspaceLinkFrom starts an async workspace replication link whose
// page stream is paced against the workspace tenant's WAL-bandwidth budget
// when a governor is configured. The pacer runs on the link's sender
// goroutine (never under the log mutex), so an over-budget workspace slows
// or sheds only its own stream; a shed surfaces as a terminal link error
// that resyncLink heals from blob-staged chunks like any other detach.
func (c *Cluster) startWorkspaceLinkFrom(master, replica *Partition, from uint64, tenant string) *Link {
	var pacer func(bytes int) error
	if gov := c.cfg.Governor; gov != nil {
		pacer = func(bytes int) error {
			return gov.Consume(context.Background(), tenant, qos.WALBand, int64(bytes))
		}
	}
	return startLink(c.transport, master, replica, false,
		c.cfg.ReplicationLatency, c.cfg.LinkStallTimeout, c.replicaID(), from, pacer)
}

// newReplicaPartition creates a replica with background maintenance
// disabled (replicas replay the master's flush/merge records instead).
// cache overrides the table-level decoded-vector cache handle when non-nil
// (workspace replicas scan through their workspace's partition; HA replicas
// pass nil and inherit the primary handle). tenant, when non-empty, tags
// the replica's table storage with the QoS tenant its resource use bills
// to (workspace replicas bill the workspace; HA replicas pass "" and bill
// the primary tenant).
func (c *Cluster) newReplicaPartition(part int, cache core.DecodedVectorCache, tenant string) *Partition {
	tcfg := c.cfg.Table
	tcfg.Background = false
	if cache != nil {
		tcfg.DecodedCache = cache
	}
	if tenant != "" {
		tcfg.QoSTenant = tenant
	}
	files := NewPartitionFiles(c.blobPrefix(part), c.cfg.Blob, c.cfg.CacheBytes)
	return newPartition(c.cfg.Name, part, RoleReplica, tcfg, files, c.cfg.CommitMode, 0, c.cfg.pageConfig())
}

// Partitions returns the number of partitions.
func (c *Cluster) Partitions() int { return c.cfg.Partitions }

// Master returns the master partition i.
func (c *Cluster) Master(i int) *Partition {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.masters[i]
}

// Stager returns partition i's blob stager.
func (c *Cluster) Stager(i int) *Stager {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stagers[i]
}

// CreateTable creates a table on every master, HA replica and workspace.
func (c *Cluster) CreateTable(name string, schema *types.Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.catalog[name]; dup {
		return fmt.Errorf("cluster: table %s already exists", name)
	}
	for _, p := range c.masters {
		if err := p.CreateTable(name, schema); err != nil {
			return err
		}
	}
	for _, reps := range c.replicas {
		for _, p := range reps {
			if err := p.CreateTable(name, schema); err != nil {
				return err
			}
		}
	}
	for _, ws := range c.workspace {
		for _, p := range ws.parts {
			if err := p.CreateTable(name, schema); err != nil {
				return err
			}
		}
	}
	c.catalog[name] = schema
	return nil
}

// Schema returns the catalog entry for a table.
func (c *Cluster) Schema(name string) (*types.Schema, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.catalog[name]
	if !ok {
		return nil, fmt.Errorf("cluster: no table %s", name)
	}
	return s, nil
}

// routeRow picks the partition for a row by hashing its shard key (§2).
func (c *Cluster) routeRow(schema *types.Schema, r types.Row) int {
	return int(schema.ShardHash(r) % uint64(c.cfg.Partitions))
}

// Insert routes rows to their shard partitions, applies them with the given
// options and waits for durability.
func (c *Cluster) Insert(table string, rows []types.Row, opts core.InsertOptions) (core.InsertResult, error) {
	schema, err := c.Schema(table)
	if err != nil {
		return core.InsertResult{}, err
	}
	byPart := make(map[int][]types.Row)
	for _, r := range rows {
		p := c.routeRow(schema, r)
		byPart[p] = append(byPart[p], r)
	}
	var total core.InsertResult
	for pi, batch := range byPart {
		p := c.Master(pi)
		tbl, err := p.Table(table)
		if err != nil {
			return total, err
		}
		res, err := tbl.InsertBatch(batch, opts)
		if err != nil {
			return total, err
		}
		total.Inserted += res.Inserted
		total.Skipped += res.Skipped
		total.Replaced += res.Replaced
		total.Updated += res.Updated
		if err := p.WaitDurable(res.LSN, c.cfg.CommitTimeout); err != nil {
			return total, err
		}
	}
	return total, nil
}

// BulkLoad routes rows and loads them directly into columnstore segments.
func (c *Cluster) BulkLoad(table string, rows []types.Row) error {
	schema, err := c.Schema(table)
	if err != nil {
		return err
	}
	byPart := make(map[int][]types.Row)
	for _, r := range rows {
		p := c.routeRow(schema, r)
		byPart[p] = append(byPart[p], r)
	}
	for pi, batch := range byPart {
		p := c.Master(pi)
		tbl, err := p.Table(table)
		if err != nil {
			return err
		}
		if err := tbl.BulkLoad(batch); err != nil {
			return err
		}
		if err := p.WaitDurable(p.Log().Head()-1, c.cfg.CommitTimeout); err != nil {
			return err
		}
	}
	return nil
}

// GetByUnique routes a unique-key point read: directly to one partition
// when the shard key is a subset of the unique key, otherwise to all.
func (c *Cluster) GetByUnique(table string, vals []types.Value) (types.Row, bool, error) {
	schema, err := c.Schema(table)
	if err != nil {
		return nil, false, err
	}
	if len(schema.UniqueKey) == 0 {
		return nil, false, core.ErrNoUniqueKey
	}
	var (
		row   types.Row
		found bool
	)
	err = c.eachPartition(c.routeByUnique(schema, vals), func(pi int) (bool, error) {
		tbl, err := c.Master(pi).Table(table)
		if err != nil {
			return false, err
		}
		row, found, err = tbl.GetByUnique(vals)
		return found, err
	})
	return row, found, err
}

// UpdateWhere applies an update on the one partition w's equality pins
// (when it is the single shard column), else on every partition, and waits
// durable.
func (c *Cluster) UpdateWhere(table string, w core.Where, set func(types.Row) types.Row) (int, error) {
	return c.mutateWhere(table, w, func(tbl *core.Table) (int, error) { return tbl.UpdateWhere(w, set) })
}

// DeleteWhere applies a delete on the one partition w's equality pins
// (when it is the single shard column), else on every partition, and waits
// durable.
func (c *Cluster) DeleteWhere(table string, w core.Where) (int, error) {
	return c.mutateWhere(table, w, func(tbl *core.Table) (int, error) { return tbl.DeleteWhere(w) })
}

func (c *Cluster) mutateWhere(table string, w core.Where, apply func(*core.Table) (int, error)) (int, error) {
	schema, err := c.Schema(table)
	if err != nil {
		return 0, err
	}
	pi, routed := schema.Place(w.Pins()).Partition(c.cfg.Partitions)
	if !routed {
		pi = -1
	}
	total := 0
	err = c.eachPartition(pi, func(pi int) (bool, error) {
		p := c.Master(pi)
		tbl, err := p.Table(table)
		if err != nil {
			return false, err
		}
		n, err := apply(tbl)
		if err != nil {
			return false, err
		}
		total += n
		if n > 0 {
			return false, p.WaitDurable(p.Log().Head()-1, c.cfg.CommitTimeout)
		}
		return false, nil
	})
	return total, err
}

// eachPartition runs f on partition pi, or on every partition in order
// when pi < 0, stopping at the first error or at the first call that
// reports done.
func (c *Cluster) eachPartition(pi int, f func(pi int) (done bool, err error)) error {
	if pi >= 0 {
		_, err := f(pi)
		return err
	}
	for pi := 0; pi < c.cfg.Partitions; pi++ {
		if done, err := f(pi); err != nil || done {
			return err
		}
	}
	return nil
}

// LeafTarget is one partition-local execution site of a fanned-out query:
// the scan over View logically runs "on" leaf partition Partition, the way
// aggregator nodes ship query fragments to leaves (§2). Both the primary
// cluster and read-only workspaces hand out targets with the same shape,
// so the scheduler fans out identically over either.
type LeafTarget struct {
	Partition int
	View      *core.View
}

// QueryTargets returns one consistent per-partition snapshot per master
// (§2.1.2: partition-local snapshot isolation), each tagged with the leaf
// partition it executes on. When pins fix every shard column, only the
// owning partition is snapshotted: no other partition can hold a match.
func (c *Cluster) QueryTargets(table string, pins []types.Pin) ([]LeafTarget, error) {
	return leafTargets(pins, c.cfg.Partitions, func(pi int) (*core.Table, error) {
		return c.Master(pi).Table(table)
	})
}

// leafTargets snapshots the partitions of one of n partitioned tables:
// the single partition the pins route to, or all n.
func leafTargets(pins []types.Pin, n int, table func(pi int) (*core.Table, error)) ([]LeafTarget, error) {
	tbl, err := table(0)
	if err != nil {
		return nil, err
	}
	if pi, ok := tbl.Schema().Place(pins).Partition(n); ok {
		if tbl, err = table(pi); err != nil {
			return nil, err
		}
		return []LeafTarget{{Partition: pi, View: tbl.Snapshot()}}, nil
	}
	targets := make([]LeafTarget, 0, n)
	for pi := 0; pi < n; pi++ {
		if tbl, err = table(pi); err != nil {
			return nil, err
		}
		targets = append(targets, LeafTarget{Partition: pi, View: tbl.Snapshot()})
	}
	return targets, nil
}

// Views returns the per-partition snapshots without partition tags.
func (c *Cluster) Views(table string) ([]*core.View, error) {
	targets, err := c.QueryTargets(table, nil)
	if err != nil {
		return nil, err
	}
	return targetViews(targets), nil
}

// targetViews strips the partition tags off leaf targets.
func targetViews(targets []LeafTarget) []*core.View {
	views := make([]*core.View, len(targets))
	for i, t := range targets {
		views[i] = t.View
	}
	return views
}

// Flush forces a flush on every master partition of the table.
func (c *Cluster) Flush(table string) error {
	for pi := 0; pi < c.cfg.Partitions; pi++ {
		tbl, err := c.Master(pi).Table(table)
		if err != nil {
			return err
		}
		for tbl.BufferLen() > 0 {
			if _, err := tbl.Flush(); err != nil {
				return err
			}
		}
		c.Master(pi).NoteAppend()
	}
	return nil
}

// FailMaster simulates losing the master of partition pi: the highest-acked
// HA replica is promoted (§2: "replica partitions ... will be promoted to
// master and take over running queries"). It returns an error when no
// replica exists.
func (c *Cluster) FailMaster(pi int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	reps := c.replicas[pi]
	if len(reps) == 0 {
		return fmt.Errorf("cluster: partition %d has no HA replica to promote", pi)
	}
	old := c.masters[pi]
	// Stop replication and staging out of the failed master.
	for _, l := range c.links[pi] {
		l.Stop()
	}
	c.stagers[pi].Close()
	old.Close()
	// Pick the replica with the most applied records.
	best := 0
	for i, r := range reps {
		if r.Applied() > reps[best].Applied() {
			best = i
		}
	}
	promoted := reps[best]
	promoted.Promote(c.cfg.Table.Background)
	promoted.setMinSyncers(min(c.cfg.SyncReplicas, len(reps)-1))
	c.masters[pi] = promoted
	// Staging resumes out of the promoted master where the old one
	// stopped, so writes after the failover still reach blob storage.
	promoted.markUploaded(old.Uploaded())
	c.stagers[pi] = c.startStager(promoted)
	// Re-attach the remaining replicas to the new master from their own
	// positions.
	var newReps []*Partition
	var newLinks []*Link
	for i, r := range reps {
		if i == best {
			continue
		}
		// A replica can only resume if it is not ahead of the new master
		// and the new master still has the records it needs.
		if r.Applied() <= promoted.Log().Head() && r.Applied() >= promoted.Log().Base() {
			newLinks = append(newLinks, c.startLinkFrom(promoted, r, true, r.Applied()))
			newReps = append(newReps, r)
		}
	}
	c.replicas[pi] = newReps
	c.links[pi] = newLinks
	promoted.NoteAppend()
	return nil
}

// ReplicationLag reports the maximum pending-record lag across all HA
// replica links of the cluster.
func (c *Cluster) ReplicationLag() int {
	lag, _, _ := c.ReplicationLagDetail()
	return lag
}

// ReplicationLagDetail reports the maximum lag across all HA replica links
// in records, pages and accounting bytes (the page pipeline's native lag
// units; Table 3 discussion).
func (c *Cluster) ReplicationLagDetail() (records, pages, bytes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, links := range c.links {
		for _, l := range links {
			if n := l.Lag(); n > records {
				records = n
			}
			if n := l.LagPages(); n > pages {
				pages = n
			}
			if n := l.LagBytes(); n > bytes {
				bytes = n
			}
		}
	}
	return records, pages, bytes
}

// LinkErrors reports every terminal replication-link error in the cluster
// (HA and workspace links), tagged with its location. A sync link that
// acked a page and then failed to apply it shows up here: the master's
// durable watermark may already cover LSNs that replica will never serve,
// so a dead link is a durability-margin loss the operator must see, not a
// silent degradation.
func (c *Cluster) LinkErrors() []error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var errs []error
	for pi, links := range c.links {
		for _, l := range links {
			if err := l.Err(); err != nil {
				errs = append(errs, fmt.Errorf("partition %d replica link %d: %w", pi, l.id, err))
			}
		}
	}
	for name, ws := range c.workspace {
		for pi, l := range ws.links {
			if err := l.Err(); err != nil {
				errs = append(errs, fmt.Errorf("workspace %s partition %d: %w", name, pi, err))
			}
		}
	}
	return errs
}

// LinkReconnects totals session reconnects across every live link —
// under chaos this counts healed faults; on a healthy transport it stays
// zero.
func (c *Cluster) LinkReconnects() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, links := range c.links {
		for _, l := range links {
			total += l.Reconnects()
		}
	}
	for _, ws := range c.workspace {
		for _, l := range ws.links {
			total += l.Reconnects()
		}
	}
	return total
}

// Close stops everything.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range c.workspace {
		ws.close()
	}
	for _, links := range c.links {
		for _, l := range links {
			l.Stop()
		}
	}
	for _, s := range c.stagers {
		s.Close()
	}
	for _, p := range c.masters {
		p.Close()
	}
	for _, reps := range c.replicas {
		for _, p := range reps {
			p.Close()
		}
	}
	if c.transport != nil {
		c.transport.Close()
	}
}

// TableNames lists catalog tables.
func (c *Cluster) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.catalog))
	for n := range c.catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// routeByUnique returns the partition holding the given unique key values
// when the shard key is derivable from them, or -1.
func (c *Cluster) routeByUnique(schema *types.Schema, vals []types.Value) int {
	pins := make([]types.Pin, 0, len(vals))
	for i, col := range schema.UniqueKey {
		if i < len(vals) {
			pins = append(pins, types.Pin{Col: col, Val: vals[i]})
		}
	}
	if pi, ok := schema.Place(pins).Partition(c.cfg.Partitions); ok {
		return pi
	}
	return -1
}

// UpdateByUnique performs a routed point update and waits for durability.
func (c *Cluster) UpdateByUnique(table string, vals []types.Value, set func(types.Row) types.Row) (bool, error) {
	return c.mutateByUnique(table, vals, func(tbl *core.Table) (bool, error) { return tbl.UpdateByUnique(vals, set) })
}

// DeleteByUnique performs a routed point delete and waits for durability.
func (c *Cluster) DeleteByUnique(table string, vals []types.Value) (bool, error) {
	return c.mutateByUnique(table, vals, func(tbl *core.Table) (bool, error) { return tbl.DeleteByUnique(vals) })
}

func (c *Cluster) mutateByUnique(table string, vals []types.Value, apply func(*core.Table) (bool, error)) (bool, error) {
	schema, err := c.Schema(table)
	if err != nil {
		return false, err
	}
	found := false
	err = c.eachPartition(c.routeByUnique(schema, vals), func(pi int) (bool, error) {
		p := c.Master(pi)
		tbl, err := p.Table(table)
		if err != nil {
			return false, err
		}
		ok, err := apply(tbl)
		if err != nil || !ok {
			return false, err
		}
		found = true
		return true, p.WaitDurable(p.Log().Head()-1, c.cfg.CommitTimeout)
	})
	return found, err
}
