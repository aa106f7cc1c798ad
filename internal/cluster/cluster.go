package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s2db/internal/blob"
	"s2db/internal/core"
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
	// Table configures per-partition table storage. Its Tenant is the
	// primary's, shared by every master and HA replica.
	Table core.Config
	// Tenants provisions each workspace's tenant: its own decoded-vector
	// cache partition and QoS budgets, so an analytic workspace churning
	// cold segments cannot evict the primary's hot set or spend its
	// budgets (§5 isolation). Nil gives a workspace a tenant that has only
	// its name.
	Tenants TenantProvider
	// ChunkRecords and SnapshotEvery tune blob staging.
	ChunkRecords, SnapshotEvery int
	// Log configures every partition's log: the page size and group-commit
	// timer a page seals at, and the bytes a replication subscription may
	// buffer before it is detached as a slow consumer. Zero fields use the
	// WAL defaults.
	Log wal.PageConfig
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
}

// TenantProvider hands out workspace tenants. Attach provisions the
// tenant's cache partition and registers it with the governor; Detach
// releases both and returns their budgets to the pool. Implemented by the
// top-level DB over exec.VecCacheGroup and qos.Governor — an interface here
// so cluster does not depend on the execution engine.
type TenantProvider interface {
	Attach(name string) (core.Tenant, error)
	Detach(name string)
}

// namedTenants is the provider of a cluster configured without one.
type namedTenants struct{}

func (namedTenants) Attach(name string) (core.Tenant, error) { return core.Tenant{Name: name}, nil }
func (namedTenants) Detach(string)                           {}

// commitTimeout bounds durability waits.
const commitTimeout = 10 * time.Second

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "db"
	}
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.Tenants == nil {
		c.Tenants = namedTenants{}
	}
	if c.Transport == nil {
		c.Transport = NewMemoryTransport()
	}
	if c.LinkStallTimeout <= 0 {
		c.LinkStallTimeout = DefaultLinkStallTimeout
	}
	return c
}

// Cluster is a database: hash-partitioned masters, their HA replicas, blob
// staging and any attached read-only workspaces.
type Cluster struct {
	cfg Config

	mu      sync.RWMutex
	catalog map[string]*types.Schema
	masters []*Partition
	// followers[pi] is every copy of partition pi that follows its master:
	// the HA replicas and each workspace's partition pi.
	followers [][]*follower
	stagers   []*Stager
	workspace map[string]*Workspace

	nextReplicaID int
}

// follower is one copy of a partition that applies its master's log: an
// HA replica (ws nil), which acks commits and may be promoted (§2), or a
// workspace's partition, which replicates asynchronously and does neither
// (§3.2). Its link changes under Cluster.mu (attach); readers load it
// through link() without that lock.
type follower struct {
	part *Partition
	ws   *Workspace
	ln   atomic.Pointer[Link]
}

// link returns the follower's current link, nil before its first attach.
func (f *follower) link() *Link { return f.ln.Load() }

// name is how errors and reports name the copy.
func (f *follower) name() string {
	if f.ws == nil {
		return "HA replica"
	}
	return "workspace " + f.ws.Name
}

func (f *follower) close() {
	if l := f.link(); l != nil {
		l.Stop()
	}
	f.part.Close()
}

// attach (re)links follower f of partition pi to pi's current master: New,
// CreateWorkspace, WaitCaughtUp's resync and FailMaster all call it, under
// c.mu once the cluster is shared. With a blob store, f first catches up
// from blob when it is a workspace (§3.1: new replicas "get the snapshots
// and logs they need from blob storage") or the master's log no longer
// holds its position. On an error f keeps a link that is down with it, so
// WaitCaughtUp and LinkErrors see why.
func (c *Cluster) attach(pi int, f *follower) error {
	if l := f.link(); l != nil {
		l.Stop()
	}
	master := c.masters[pi]
	var down error
	if c.cfg.Blob != nil && (f.ws != nil || f.part.Applied() < master.Log().Base()) {
		c.stagers[pi].Step() // stage what the master may have truncated
		if err := c.catchUp(f.part, pi, math.MaxInt64); err != nil {
			down = fmt.Errorf("%w: catch-up from blob: %w", ErrLinkDown, err)
		}
	}
	l := c.startLink(master, f, down)
	f.ln.Store(l)
	return l.Err()
}

// newCluster builds a cluster holding one master per partition and no
// replica, link, stager or table yet. New and PointInTimeRestore both
// start from it.
func newCluster(cfg Config) *Cluster {
	c := &Cluster{
		cfg:       cfg.withDefaults(),
		catalog:   make(map[string]*types.Schema),
		workspace: make(map[string]*Workspace),
	}
	n := c.cfg.Partitions
	c.followers, c.stagers = make([][]*follower, n), make([]*Stager, n)
	for pi := 0; pi < n; pi++ {
		c.masters = append(c.masters, c.newPartition(pi, RoleMaster, c.cfg.Table.Tenant))
	}
	return c
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.CommitMode == CommitBlob && cfg.Blob == nil {
		return nil, fmt.Errorf("cluster: CommitBlob requires a blob store")
	}
	c := newCluster(cfg)
	for pi, p := range c.masters {
		p.setMinSyncers(c.cfg.SyncReplicas)
		c.stagers[pi] = c.startStager(p)
	}
	for pi := range c.masters {
		for r := 0; r < c.cfg.SyncReplicas; r++ {
			f := &follower{part: c.newPartition(pi, RoleReplica, c.cfg.Table.Tenant)}
			c.followers[pi] = append(c.followers[pi], f)
			if err := c.attach(pi, f); err != nil {
				c.Close()
				return nil, err
			}
		}
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
	for _, fs := range c.followers {
		for _, f := range fs {
			if err := f.part.CreateTable(name, schema); err != nil {
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
		if err := p.WaitDurable(res.LSN, commitTimeout); err != nil {
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
		lsn, err := tbl.BulkLoad(batch)
		if err != nil {
			return err
		}
		if err := p.WaitDurable(lsn, commitTimeout); err != nil {
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
	w, err := core.ByUnique(schema, vals)
	if err != nil {
		return nil, false, err
	}
	var (
		row   types.Row
		found bool
	)
	err = c.eachPartition(c.owner(schema, w.Pins), func(pi int) (bool, error) {
		tbl, err := c.Master(pi).Table(table)
		if err != nil {
			return false, err
		}
		row, found, err = tbl.GetByUnique(vals)
		return found, err
	})
	return row, found, err
}

// UpdateWhere applies an update on the one partition w's pins place its
// rows in, else on every partition, and waits durable.
func (c *Cluster) UpdateWhere(table string, w core.Where, set func(types.Row) types.Row) (int, error) {
	return c.mutateWhere(table, w, set, false)
}

// DeleteWhere applies a delete on the one partition w's pins place its
// rows in, else on every partition, and waits durable.
func (c *Cluster) DeleteWhere(table string, w core.Where) (int, error) {
	return c.mutateWhere(table, w, nil, false)
}

// UpdateByUnique performs a routed point update and waits for durability.
func (c *Cluster) UpdateByUnique(table string, vals []types.Value, set func(types.Row) types.Row) (bool, error) {
	return c.mutateByKey(table, vals, set)
}

// DeleteByUnique performs a routed point delete and waits for durability.
func (c *Cluster) DeleteByUnique(table string, vals []types.Value) (bool, error) {
	return c.mutateByKey(table, vals, nil)
}

// mutateByKey writes the row with unique-key values vals through
// mutateWhere and reports whether it exists. A key that does not pin the
// shard key is tried partition by partition, up to the first that holds
// the row.
func (c *Cluster) mutateByKey(table string, vals []types.Value, set func(types.Row) types.Row) (bool, error) {
	schema, err := c.Schema(table)
	if err != nil {
		return false, err
	}
	w, err := core.ByUnique(schema, vals)
	if err != nil {
		return false, err
	}
	n, err := c.mutateWhere(table, w, set, true)
	return n > 0, err
}

// mutateWhere writes the rows w matches (core.Table.Write: set rewrites
// them, nil deletes them) on the partition w's pins place them in, else on
// every partition in order, and waits until each partition's record is
// durable. With first set it stops at the first partition that wrote a
// row.
func (c *Cluster) mutateWhere(table string, w core.Where, set func(types.Row) types.Row, first bool) (int, error) {
	schema, err := c.Schema(table)
	if err != nil {
		return 0, err
	}
	total := 0
	err = c.eachPartition(c.owner(schema, w.Pins), func(pi int) (bool, error) {
		p := c.Master(pi)
		tbl, err := p.Table(table)
		if err != nil {
			return false, err
		}
		n, lsn, err := tbl.Write(w, set)
		if err != nil || n == 0 {
			return false, err
		}
		total += n
		return first, p.WaitDurable(lsn, commitTimeout)
	})
	return total, err
}

// owner returns the one partition pins place a table's rows in, or -1
// when some shard column is unpinned.
func (c *Cluster) owner(schema *types.Schema, pins []types.Pin) int {
	if pi, ok := schema.Place(pins).Partition(c.cfg.Partitions); ok {
		return pi
	}
	return -1
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

// PinnedViews returns one consistent per-partition snapshot per master
// (§2.1.2: partition-local snapshot isolation), in partition order: the
// leaf fragments an aggregator fans a query out to (§2). When pins fix
// every shard column, only the owning partition is snapshotted: no other
// partition can hold a match.
func (c *Cluster) PinnedViews(table string, pins []types.Pin) ([]*core.View, error) {
	return pinnedViews(pins, c.cfg.Partitions, func(pi int) (*core.Table, error) {
		return c.Master(pi).Table(table)
	})
}

// Views returns every partition's snapshot of a table.
func (c *Cluster) Views(table string) ([]*core.View, error) {
	return c.PinnedViews(table, nil)
}

// pinnedViews snapshots the partitions of one of n partitioned tables:
// the single partition the pins route to, or all n. The primary cluster
// and workspaces both prune through it, so they fan out identically.
func pinnedViews(pins []types.Pin, n int, table func(pi int) (*core.Table, error)) ([]*core.View, error) {
	tbl, err := table(0)
	if err != nil {
		return nil, err
	}
	lo, hi := 0, n
	if pi, ok := tbl.Schema().Place(pins).Partition(n); ok {
		lo, hi = pi, pi+1
	}
	views := make([]*core.View, 0, hi-lo)
	for pi := lo; pi < hi; pi++ {
		if tbl, err = table(pi); err != nil {
			core.ReleaseAll(views)
			return nil, err
		}
		views = append(views, tbl.Snapshot())
	}
	return views, nil
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
// master and take over running queries"), and every other copy of pi, HA
// replica or workspace, re-attaches to it (attach). A copy that cannot is
// named in the returned error: an HA replica is then closed and dropped, a
// workspace keeps a link that is down with the reason. Commits need acks
// from as many HA replicas as re-attached, up to Config.SyncReplicas. It
// returns an error when no HA replica exists.
func (c *Cluster) FailMaster(pi int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *follower
	for _, f := range c.followers[pi] {
		if f.ws == nil && (best == nil || f.part.Applied() > best.part.Applied()) {
			best = f
		}
	}
	if best == nil {
		return fmt.Errorf("cluster: partition %d has no HA replica to promote", pi)
	}
	old := c.masters[pi]
	// Stop replication and staging out of the failed master.
	for _, f := range c.followers[pi] {
		f.link().Stop()
	}
	c.stagers[pi].Close()
	old.Close()
	promoted := best.part
	// Nothing is durable on the promoted master until its copies have
	// re-attached and the quorum is set from them, below.
	promoted.setMinSyncers(c.cfg.SyncReplicas)
	promoted.Promote(old)
	c.masters[pi] = promoted
	// Staging resumes out of the promoted master where blob ends, so
	// writes after the failover still reach blob storage.
	promoted.markUploaded(c.stagingResumeAt(pi, promoted))
	c.stagers[pi] = c.startStager(promoted)
	var kept []*follower
	var errs []error
	syncers := 0
	for _, f := range c.followers[pi] {
		if f == best {
			continue
		}
		if err := c.attach(pi, f); err != nil {
			errs = append(errs, fmt.Errorf("cluster: partition %d: %s not re-attached at failover: %w", pi, f.name(), err))
			if f.ws == nil {
				f.close()
				continue
			}
		} else if f.ws == nil {
			syncers++
		}
		kept = append(kept, f)
	}
	c.followers[pi] = kept
	promoted.setMinSyncers(min(c.cfg.SyncReplicas, syncers))
	promoted.NoteAppend()
	return errors.Join(errs...)
}

// stagingResumeAt is where a promoted master's stager starts: one past the
// last record in partition pi's newest blob log chunk. The promoted log
// holds it, because a sync replica keeps everything its master might not
// have uploaded (Link.keepFrom). Without a blob store, or when blob cannot
// be read, it is the promoted log's base: records from there that blob
// already holds are staged again, and catch-up skips the overlap.
func (c *Cluster) stagingResumeAt(pi int, promoted *Partition) uint64 {
	base := promoted.Log().Base()
	if c.cfg.Blob == nil {
		return base
	}
	chunks, err := c.cfg.Blob.List(c.blobPrefix(pi) + "log/")
	if err != nil || len(chunks) == 0 {
		return base
	}
	data, err := c.cfg.Blob.Get(chunks[len(chunks)-1])
	if err != nil {
		return base
	}
	pl, recs, err := wal.DecodeRecords(data)
	if err != nil || checkPlacement("log chunk", pl, c.cfg.Partitions) != nil || len(recs) == 0 {
		return base
	}
	return max(base, recs[len(recs)-1].LSN+1)
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
	for _, fs := range c.followers {
		for _, f := range fs {
			if f.ws != nil {
				continue
			}
			l := f.link()
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

// HeldLog is how much of its log one copy of a partition holds in memory.
type HeldLog struct {
	Partition int
	// Copy is "master", "replica <i>" (the i-th HA replica) or
	// "workspace <name>".
	Copy           string
	Records, Bytes int
}

// LogHeldDetail reports the log every copy holds in memory: each master,
// then the HA replicas and workspace partitions that follow it. Each copy
// truncates its own log; blob storage holds what they dropped (DESIGN.md
// §8).
func (c *Cluster) LogHeldDetail() []HeldLog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []HeldLog
	add := func(pi int, name string, p *Partition) {
		n, b := p.Log().Held()
		out = append(out, HeldLog{Partition: pi, Copy: name, Records: n, Bytes: b})
	}
	for pi, p := range c.masters {
		add(pi, "master", p)
		ha := 0
		for _, f := range c.followers[pi] {
			name := f.name()
			if f.ws == nil {
				name = fmt.Sprintf("replica %d", ha)
				ha++
			}
			add(pi, name, f.part)
		}
	}
	return out
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
	for pi, fs := range c.followers {
		for _, f := range fs {
			l := f.link()
			if err := l.Err(); err != nil {
				errs = append(errs, fmt.Errorf("partition %d %s link %d: %w", pi, f.name(), l.id, err))
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
	for _, fs := range c.followers {
		for _, f := range fs {
			total += f.link().Reconnects()
		}
	}
	return total
}

// Close stops everything.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, fs := range c.followers {
		for _, f := range fs {
			f.close()
		}
	}
	for _, s := range c.stagers {
		s.Close()
	}
	for _, p := range c.masters {
		p.Close()
	}
	c.cfg.Transport.Close()
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
