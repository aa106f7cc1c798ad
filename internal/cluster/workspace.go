package cluster

import (
	"errors"
	"fmt"
	"slices"
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
	// followers[pi] is the workspace's copy of partition pi, the same
	// record that Cluster.followers[pi] lists.
	followers []*follower
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
	for pi := range c.masters {
		f := &follower{part: c.newPartition(pi, RoleReplica, tenant), ws: ws}
		ws.followers = append(ws.followers, f)
		// DDL: materialize the catalog on the new partition.
		for tname, schema := range c.catalog {
			if err := f.part.CreateTable(tname, schema); err != nil {
				return fail(err)
			}
		}
		if err := c.attach(pi, f); err != nil {
			return fail(fmt.Errorf("workspace %s: partition %d: %w", name, pi, err))
		}
	}
	for pi, f := range ws.followers {
		c.followers[pi] = append(c.followers[pi], f)
	}
	c.workspace[name] = ws
	return ws, nil
}

// catchUp is the one way a partition catches up from blob storage (§3.1:
// "new replica databases get the snapshots and logs they need from blob
// storage"): attach and point-in-time restore call it. A partition that
// has applied nothing first restores the newest snapshot taken at or
// before asOf; a live replica never does, because RestoreState needs an
// empty table. It then fetches the staged log chunks from the last one
// that starts at or below its next LSN and applies each chunk's records
// from there as one page, stopping at the first record written after
// asOf — PITR's per-partition consistent point LP (§3.2). p.Applied() is
// where it got to.
func (c *Cluster) catchUp(p *Partition, pi int, asOf int64) error {
	store, prefix := c.cfg.Blob, c.blobPrefix(pi)
	next := p.Applied()
	if next == 0 {
		snaps, err := store.List(prefix + "snap/")
		if err != nil {
			return err
		}
		for i := len(snaps) - 1; i >= 0; i-- {
			lsn, wall, err := parseSnapKey(strings.TrimPrefix(snaps[i], prefix))
			if err != nil {
				return err
			}
			if wall > asOf {
				continue
			}
			if lsn > 0 { // a snapshot at LSN 0 covers no log record
				data, err := store.Get(snaps[i])
				if err != nil {
					return err
				}
				if _, err := decodeSnapshotBundle(p, data, c.cfg.Partitions); err != nil {
					return err
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
		return err
	}
	// Chunk keys are zero-padded first LSNs, so they sort by LSN: start at
	// the last chunk that begins at or below next.
	from := prefix + logKey(next)
	after := sort.Search(len(chunks), func(i int) bool { return chunks[i] > from })
	for _, key := range chunks[max(after-1, 0):] {
		data, err := store.Get(key)
		if err != nil {
			return err
		}
		pl, recs, err := wal.DecodeRecords(data)
		if err != nil {
			return err
		}
		if err := checkPlacement("log chunk", pl, c.cfg.Partitions); err != nil {
			return err
		}
		// The page is the run of records from next on that follow each
		// other without a gap and were written at or before asOf.
		first := 0
		for first < len(recs) && recs[first].LSN < next {
			first++
		}
		end := first
		for end < len(recs) && recs[end].LSN == next+uint64(end-first) && recs[end].Wall <= asOf {
			end++
		}
		if end > first {
			pg := wal.Page{FirstLSN: next, EndLSN: recs[end-1].LSN + 1, Records: recs[first:end]}
			if err := p.ApplyPage(pg); err != nil {
				return err
			}
			next = pg.EndLSN
		}
		if end < len(recs) {
			if recs[end].Wall > asOf {
				return nil
			}
			return fmt.Errorf("gap in blob log at LSN %d (want %d)", recs[end].LSN, next)
		}
	}
	return nil
}

// PinnedViews returns per-partition snapshots of a table on the
// workspace's isolated compute: workspace queries fan out (and prune by
// pins) exactly like primary-cluster queries (§3.2).
func (w *Workspace) PinnedViews(table string, pins []types.Pin) ([]*core.View, error) {
	return pinnedViews(pins, len(w.followers), func(pi int) (*core.Table, error) {
		return w.followers[pi].part.Table(table)
	})
}

// Views returns every partition's snapshot of a table on the workspace.
func (w *Workspace) Views(table string) ([]*core.View, error) {
	return w.PinnedViews(table, nil)
}

// resyncable reports whether a terminal link error heals by re-attaching,
// which replays blob-staged chunks first: a slow-consumer detach, a link
// that went down (lost resume point, reconnect exhaustion, failed
// catch-up), or a WAL-bandwidth shed — an over-budget workspace stream
// that re-attaches once it has caught up from blob chunks instead of the
// master's log. ErrDiverged is not: re-attaching from the copy's position
// would skip the new master's records at the LSNs the copy holds.
func resyncable(err error) bool {
	return errors.Is(err, wal.ErrSlowConsumer) || errors.Is(err, ErrLinkDown) ||
		errors.Is(err, qos.ErrOverloaded)
}

// WaitCaughtUp blocks until every workspace partition has applied the
// master's current head. A link that ended terminally but recoverably —
// slow-consumer detach, ErrLinkDown or a QoS shed — is re-attached (and
// so caught up from blob), before the wait or as soon as it ends during
// the wait, and the wait goes on until the same deadline; any other
// terminal link error, ErrDiverged among them, is returned at once.
func (c *Cluster) WaitCaughtUp(ws *Workspace, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for pi, f := range ws.followers {
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("workspace %s: partition %d: catch-up timed out", ws.Name, pi)
			}
			l := f.link()
			if lerr := l.Err(); resyncable(lerr) {
				if rerr := c.reattach(pi, f); rerr != nil {
					return fmt.Errorf("workspace %s: partition %d: resync: %w", ws.Name, pi, rerr)
				}
				l = f.link()
			} else if lerr != nil {
				return fmt.Errorf("workspace %s: partition %d: %w", ws.Name, pi, lerr)
			}
			head := c.Master(pi).Log().Head()
			err := f.part.waitApplied(head, l.ended, time.Until(deadline))
			if err == nil {
				break
			}
			if lerr := l.Err(); lerr != nil {
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

// reattach is attach under the cluster lock.
func (c *Cluster) reattach(pi int, f *follower) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attach(pi, f)
}

// Lag returns the maximum link lag (records pending) across the workspace.
func (w *Workspace) Lag() int {
	lag := 0
	for _, f := range w.followers {
		if n := f.link().Lag(); n > lag {
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
	for pi := range c.followers {
		c.followers[pi] = slices.DeleteFunc(c.followers[pi], func(f *follower) bool { return f.ws == ws })
	}
	delete(c.workspace, name)
	// Retire the tenant: its cache entries are discarded, its QoS waiters
	// released, and its budgets return to the surviving tenants.
	c.cfg.Tenants.Detach(name)
	return nil
}

func (w *Workspace) close() {
	for _, f := range w.followers {
		f.close()
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
		if err := c.catchUp(p, pi, target.UnixNano()); err != nil {
			return fail(fmt.Errorf("cluster: PITR partition %d: %w", pi, err))
		}
		p.NoteAppend()
	}
	return c, nil
}
