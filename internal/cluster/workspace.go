package cluster

import (
	"errors"
	"fmt"
	"time"

	"s2db/internal/core"
	"s2db/internal/qos"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// Workspace is a set of read-only replica partitions provisioned on their
// own "hosts" (§3.2): they replicate recent data asynchronously from the
// primary workspace without acking commits, and pull older data files from
// blob storage directly, so heavy analytics run on isolated compute.
type Workspace struct {
	Name  string
	parts []*Partition
	links []*Link
}

// CreateWorkspace provisions a read-only workspace. With a blob store
// configured, each replica bootstraps from the latest snapshot and log
// chunks in blob storage and only streams the log tail from the master
// ("new replica databases get the snapshots and logs they need from blob
// storage and replicate the tail of the log ... from the master", §3.1);
// without one it replays the master's full log.
func (c *Cluster) CreateWorkspace(name string) (*Workspace, error) {
	if name == "" {
		return nil, fmt.Errorf("cluster: workspace name cannot be empty")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.workspace[name]; dup {
		return nil, fmt.Errorf("cluster: workspace %s already exists", name)
	}
	// Provision the workspace's decoded-vector cache partition first, so
	// every replica table scans (and invalidates) through its own budget
	// rather than the primary's.
	var wsCache core.DecodedVectorCache
	if c.cfg.CachePartitions != nil {
		h, err := c.cfg.CachePartitions.Attach(name)
		if err != nil {
			return nil, fmt.Errorf("workspace %s: %w", name, err)
		}
		wsCache = h
	}
	// Register the workspace as a QoS tenant before any link starts, so
	// its replication stream bills a real budget from the first page.
	if c.cfg.Governor != nil {
		c.cfg.Governor.Register(name)
	}
	ws := &Workspace{Name: name}
	fail := func(err error) (*Workspace, error) {
		ws.close()
		if c.cfg.CachePartitions != nil {
			c.cfg.CachePartitions.Detach(name)
		}
		if c.cfg.Governor != nil {
			c.cfg.Governor.Unregister(name)
		}
		return nil, err
	}
	for pi, master := range c.masters {
		rep := c.newReplicaPartition(pi, wsCache, name)
		// DDL: materialize the catalog on the new partition.
		for tname, schema := range c.catalog {
			if err := rep.CreateTable(tname, schema); err != nil {
				rep.Close()
				return fail(err)
			}
		}
		from := uint64(0)
		if c.cfg.Blob != nil {
			// Make sure blob storage is caught up enough that the master's
			// retained log covers the rest.
			c.stagers[pi].Step()
			lsn, err := c.bootstrapFromBlob(rep, pi)
			if err != nil {
				rep.Close()
				return fail(fmt.Errorf("workspace %s: partition %d: %w", name, pi, err))
			}
			from = lsn
		}
		link := c.startWorkspaceLinkFrom(master, rep, from, name)
		if err := link.Err(); err != nil {
			rep.Close()
			return fail(fmt.Errorf("workspace %s: partition %d: %w", name, pi, err))
		}
		ws.parts = append(ws.parts, rep)
		ws.links = append(ws.links, link)
	}
	c.workspace[name] = ws
	return ws, nil
}

// bootstrapFromBlob restores a partition replica from blob snapshots and
// log chunks, returning the LSN to stream the tail from.
func (c *Cluster) bootstrapFromBlob(rep *Partition, pi int) (uint64, error) {
	prefix := c.blobPrefix(pi)
	store := c.cfg.Blob
	// Latest snapshot, if any.
	snaps, err := store.List(prefix + "snap/")
	if err != nil {
		return 0, err
	}
	from := uint64(0)
	if len(snaps) > 0 {
		key := snaps[len(snaps)-1]
		var lsn uint64
		var wall int64
		if _, err := fmt.Sscanf(key[len(prefix+"snap/"):], "%d-%d", &lsn, &wall); err != nil {
			return 0, fmt.Errorf("bad snapshot key %s: %w", key, err)
		}
		data, err := store.Get(key)
		if err != nil {
			return 0, err
		}
		if _, err := decodeSnapshotBundle(rep, data); err != nil {
			return 0, err
		}
		rep.Log().TruncateBefore(lsn)
		rep.markApplied(lsn) // the snapshot covers everything below lsn
		from = lsn
	}
	// Replay log chunks from the snapshot position.
	return c.replayBlobLog(rep, pi, from)
}

// replayBlobLog applies blob-staged log chunks with LSN >= from to rep and
// returns the next LSN the replica needs. Chunks align with sealed log
// pages, so a chunk may begin below from; those records are skipped.
func (c *Cluster) replayBlobLog(rep *Partition, pi int, from uint64) (uint64, error) {
	store := c.cfg.Blob
	prefix := c.blobPrefix(pi)
	chunks, err := store.List(prefix + "log/")
	if err != nil {
		return from, err
	}
	for _, key := range chunks {
		recs, err := decodeChunk(store, key)
		if err != nil {
			return from, err
		}
		for _, rec := range recs {
			if rec.LSN < from {
				continue
			}
			if rec.LSN > from {
				return from, fmt.Errorf("gap in blob log at LSN %d (want %d)", rec.LSN, from)
			}
			if err := rep.ApplyRecord(rec); err != nil {
				return from, err
			}
			from = rec.LSN + 1
		}
	}
	return from, nil
}

// resyncLink rebuilds a workspace link that ended terminally — detached
// as a slow consumer (wal.ErrSlowConsumer), or down after losing its
// resume point or exhausting reconnects (ErrLinkDown): the replica
// catches up from blob-staged log chunks until the master's retained log
// covers the rest, then re-subscribes from its applied position.
func (c *Cluster) resyncLink(ws *Workspace, pi int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	master := c.masters[pi]
	rep := ws.parts[pi]
	ws.links[pi].Stop()
	if c.cfg.Blob != nil {
		c.stagers[pi].Step() // stage anything the master may have truncated
		if _, err := c.replayBlobLog(rep, pi, rep.Applied()); err != nil {
			return err
		}
	}
	link := c.startWorkspaceLinkFrom(master, rep, rep.Applied(), ws.Name)
	if err := link.Err(); err != nil {
		return err
	}
	ws.links[pi] = link
	return nil
}

func decodeChunk(store interface {
	Get(string) ([]byte, error)
}, key string) ([]wal.Record, error) {
	data, err := store.Get(key)
	if err != nil {
		return nil, err
	}
	return wal.DecodeRecords(data)
}

// QueryTargets returns per-partition snapshots of a table on the
// workspace's isolated compute, tagged with their leaf partitions —
// workspace queries fan out (and prune by pins) exactly like
// primary-cluster queries (§3.2).
func (w *Workspace) QueryTargets(table string, pins []types.Pin) ([]LeafTarget, error) {
	return leafTargets(pins, len(w.parts), func(pi int) (*core.Table, error) {
		return w.parts[pi].Table(table)
	})
}

// Views returns the workspace's per-partition snapshots without partition
// tags.
func (w *Workspace) Views(table string) ([]*core.View, error) {
	targets, err := w.QueryTargets(table, nil)
	if err != nil {
		return nil, err
	}
	return targetViews(targets), nil
}

// resyncable reports whether a terminal link error heals by replaying
// blob-staged chunks and re-attaching: a slow-consumer detach, a link
// that went down (lost resume point, reconnect exhaustion), or a
// WAL-bandwidth shed — an over-budget workspace stream that re-attaches
// once it has caught up from blob chunks instead of the master's log.
func resyncable(err error) bool {
	return errors.Is(err, wal.ErrSlowConsumer) || errors.Is(err, ErrLinkDown) ||
		errors.Is(err, qos.ErrOverloaded)
}

// WaitCaughtUp blocks until every workspace partition has applied the
// master's current head. A link that ended terminally but recoverably —
// slow-consumer detach or ErrLinkDown — is resynced from blob-staged log
// chunks and re-attached before waiting.
func (c *Cluster) WaitCaughtUp(ws *Workspace, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for pi, p := range ws.parts {
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("workspace %s: partition %d: catch-up timed out", ws.Name, pi)
			}
			if resyncable(ws.links[pi].Err()) {
				if rerr := c.resyncLink(ws, pi); rerr != nil {
					return fmt.Errorf("workspace %s: partition %d: resync: %w", ws.Name, pi, rerr)
				}
			}
			head := c.Master(pi).Log().Head()
			err := p.WaitApplied(head, time.Until(deadline))
			if err == nil {
				break
			}
			if lerr := ws.links[pi].Err(); lerr != nil {
				if resyncable(lerr) {
					continue // resync at the top of the loop
				}
				return fmt.Errorf("%w (link error: %v)", err, lerr)
			}
			return err
		}
	}
	return nil
}

// Lag returns the maximum link lag (records pending) across the workspace.
func (w *Workspace) Lag() int {
	lag := 0
	for _, l := range w.links {
		if n := l.Lag(); n > lag {
			lag = n
		}
	}
	return lag
}

// DetachWorkspace stops and removes a workspace ("can be attached and
// detached to the workspace on demand", §1).
func (c *Cluster) DetachWorkspace(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workspace[name]
	if !ok {
		return fmt.Errorf("cluster: no workspace %s", name)
	}
	ws.close()
	delete(c.workspace, name)
	if c.cfg.CachePartitions != nil {
		// Release the workspace's cache partition: its entries are discarded
		// and its budget returns to the pool for the remaining partitions.
		c.cfg.CachePartitions.Detach(name)
	}
	if c.cfg.Governor != nil {
		// Retire the QoS tenant: waiters are released, outstanding leases
		// drain harmlessly, and its share returns to the surviving tenants.
		c.cfg.Governor.Unregister(name)
	}
	return nil
}

func (w *Workspace) close() {
	for _, l := range w.links {
		l.Stop()
	}
	for _, p := range w.parts {
		p.Close()
	}
}

// PointInTimeRestore rebuilds a database's state as of the target wall
// clock time purely from blob storage (§3.2): for each partition it finds
// the newest snapshot at or before the target and replays blob log chunks
// up to the last record appended before it — the per-partition
// transactionally consistent point LP that "maps as closely as possible to
// the given PITR target wall clock time". The restored database is a fresh
// cluster with no replicas or staging (a restore target, not a running
// primary).
func PointInTimeRestore(cfg Config, target time.Time) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Blob == nil {
		return nil, fmt.Errorf("cluster: PITR requires a blob store")
	}
	restored := &Cluster{
		cfg:       cfg,
		transport: cfg.Transport,
		catalog:   make(map[string]*types.Schema),
		workspace: make(map[string]*Workspace),
	}
	for pi := 0; pi < cfg.Partitions; pi++ {
		files := NewPartitionFiles(fmt.Sprintf("%s/%d/", cfg.Name, pi), cfg.Blob, cfg.CacheBytes)
		tcfg := cfg.Table
		tcfg.Background = false
		p := newPartition(cfg.Name, pi, RoleMaster, tcfg, files, CommitLocal, 0, cfg.pageConfig())
		p.setMinSyncers(0)
		restored.masters = append(restored.masters, p)
		restored.replicas = append(restored.replicas, nil)
		restored.links = append(restored.links, nil)
		restored.stagers = append(restored.stagers, NewStager(p, files, nil, 0, 0))
	}
	return restored, nil
}

// RestoreTables performs the PITR replay for the given catalog. The caller
// supplies schemas because blob storage holds data, not DDL (the paper's
// PITR restores a database whose definition the control plane knows).
func (c *Cluster) RestoreTables(catalog map[string]*types.Schema, target time.Time) error {
	targetWall := target.UnixNano()
	for name, schema := range catalog {
		c.mu.Lock()
		c.catalog[name] = schema
		c.mu.Unlock()
		for _, p := range c.masters {
			if err := p.CreateTable(name, schema); err != nil {
				return err
			}
		}
	}
	for pi, p := range c.masters {
		prefix := c.blobPrefix(pi)
		store := c.cfg.Blob
		snaps, err := store.List(prefix + "snap/")
		if err != nil {
			return err
		}
		from := uint64(0)
		// Pick the newest snapshot taken at or before the target wall time.
		for i := len(snaps) - 1; i >= 0; i-- {
			var lsn uint64
			var wall int64
			if _, err := fmt.Sscanf(snaps[i][len(prefix+"snap/"):], "%d-%d", &lsn, &wall); err != nil {
				return err
			}
			if wall <= targetWall {
				data, err := store.Get(snaps[i])
				if err != nil {
					return err
				}
				if _, err := decodeSnapshotBundle(p, data); err != nil {
					return err
				}
				p.Log().TruncateBefore(lsn)
				from = lsn
				break
			}
		}
		chunks, err := store.List(prefix + "log/")
		if err != nil {
			return err
		}
		for _, key := range chunks {
			recs, err := decodeChunk(store, key)
			if err != nil {
				return err
			}
			for _, rec := range recs {
				if rec.LSN < from {
					continue
				}
				if rec.Wall > targetWall {
					// The transactionally consistent point LP for this
					// partition (§3.2) has been reached.
					break
				}
				if rec.LSN > from {
					return fmt.Errorf("partition %d: gap in blob log at %d", pi, rec.LSN)
				}
				if err := p.ApplyRecord(rec); err != nil {
					return err
				}
				from = rec.LSN + 1
			}
		}
		p.NoteAppend()
	}
	return nil
}
