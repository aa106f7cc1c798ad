package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
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
	Name   string
	tenant core.Tenant
	parts  []*Partition
	links  []*Link
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
	// Attach the workspace's tenant first, so every replica table scans
	// (and invalidates) through its own cache partition and its replication
	// stream bills a real budget from the first page.
	tenant, err := c.cfg.Tenants.Attach(name)
	if err != nil {
		return nil, fmt.Errorf("workspace %s: %w", name, err)
	}
	ws := &Workspace{Name: name, tenant: tenant}
	fail := func(err error) (*Workspace, error) {
		ws.close()
		c.cfg.Tenants.Detach(name)
		return nil, err
	}
	for pi, master := range c.masters {
		rep := c.newPartition(pi, RoleReplica, tenant)
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
			var err error
			if from, err = c.catchUp(rep, pi, math.MaxInt64); err != nil {
				rep.Close()
				return fail(fmt.Errorf("workspace %s: partition %d: %w", name, pi, err))
			}
		}
		link := c.startWorkspaceLinkFrom(master, rep, from, tenant)
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

// catchUp is the one way a partition catches up from blob storage (§3.1:
// "new replica databases get the snapshots and logs they need from blob
// storage"): workspace attach, link resync and point-in-time restore all
// call it. A partition that has applied nothing first restores the newest
// snapshot taken at or before asOf; a live replica never does, because
// RestoreState needs an empty table. It then fetches the staged log
// chunks from the last one that starts at or below its next LSN, applies
// their records in order and stops at the first record written after
// asOf — PITR's per-partition consistent point LP (§3.2). It returns the
// next LSN p needs.
func (c *Cluster) catchUp(p *Partition, pi int, asOf int64) (next uint64, err error) {
	store, prefix := c.cfg.Blob, c.blobPrefix(pi)
	next = p.Applied()
	if next == 0 {
		snaps, err := store.List(prefix + "snap/")
		if err != nil {
			return 0, err
		}
		for i := len(snaps) - 1; i >= 0; i-- {
			lsn, wall, err := parseSnapKey(strings.TrimPrefix(snaps[i], prefix))
			if err != nil {
				return 0, err
			}
			if wall > asOf {
				continue
			}
			if lsn > 0 { // a snapshot at LSN 0 covers no log record
				data, err := store.Get(snaps[i])
				if err != nil {
					return 0, err
				}
				if _, err := decodeSnapshotBundle(p, data, c.cfg.Partitions); err != nil {
					return 0, err
				}
				p.Log().TruncateBefore(lsn)
				p.markApplied(lsn)
				next = lsn
			}
			break
		}
	}
	chunks, err := store.List(prefix + "log/")
	if err != nil {
		return next, err
	}
	// Chunk keys are zero-padded first LSNs, so they sort by LSN: start at
	// the last chunk that begins at or below next.
	from := prefix + logKey(next)
	after := sort.Search(len(chunks), func(i int) bool { return chunks[i] > from })
	for _, key := range chunks[max(after-1, 0):] {
		data, err := store.Get(key)
		if err != nil {
			return next, err
		}
		pl, recs, err := wal.DecodeRecords(data)
		if err != nil {
			return next, err
		}
		if err := checkPlacement("log chunk", pl, c.cfg.Partitions); err != nil {
			return next, err
		}
		for _, rec := range recs {
			if rec.LSN < next {
				continue
			}
			if rec.Wall > asOf {
				return next, nil
			}
			if rec.LSN > next {
				return next, fmt.Errorf("gap in blob log at LSN %d (want %d)", rec.LSN, next)
			}
			if err := p.ApplyRecord(rec); err != nil {
				return next, err
			}
			next = rec.LSN + 1
		}
	}
	return next, nil
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
		if _, err := c.catchUp(rep, pi, math.MaxInt64); err != nil {
			return err
		}
	}
	link := c.startWorkspaceLinkFrom(master, rep, rep.Applied(), ws.tenant)
	if err := link.Err(); err != nil {
		return err
	}
	ws.links[pi] = link
	return nil
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
	// Retire the tenant: its cache entries are discarded, its QoS waiters
	// released, and its budgets return to the surviving tenants.
	c.cfg.Tenants.Detach(name)
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
// clock time purely from blob storage (§3.2): every partition catches up
// from the newest snapshot at or before the target to the last record
// appended before it — the per-partition transactionally consistent point
// LP that "maps as closely as possible to the given PITR target wall clock
// time". The caller supplies the catalog because blob storage holds data,
// not DDL. The restored database is a fresh cluster with no replicas or
// staging (a restore target, not a running primary).
func PointInTimeRestore(cfg Config, catalog map[string]*types.Schema, target time.Time) (*Cluster, error) {
	if cfg.Blob == nil {
		return nil, fmt.Errorf("cluster: PITR requires a blob store")
	}
	cfg.CommitMode = CommitLocal
	cfg.Table.Background = false
	c := newCluster(cfg)
	for pi, p := range c.masters {
		c.stagers[pi] = NewStager(p, p.files, nil, c.cfg.Partitions, 0, 0)
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	for name, schema := range catalog {
		if err := c.CreateTable(name, schema); err != nil {
			return fail(err)
		}
	}
	for pi, p := range c.masters {
		if _, err := c.catchUp(p, pi, target.UnixNano()); err != nil {
			return fail(fmt.Errorf("cluster: PITR partition %d: %w", pi, err))
		}
		p.NoteAppend()
	}
	return c, nil
}
