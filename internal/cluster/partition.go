// Package cluster implements the distributed substrate of §2 and §3: hash
// partitioning over leaf nodes, synchronous in-cluster replication with
// early log shipping, separation of storage and compute via asynchronous
// blob staging, read-only workspaces, failover, and point-in-time restore.
// Nodes are in-process objects connected by simulated links; the latency
// and durability contracts match the paper's architecture (see DESIGN.md
// for the substitution table).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// CommitMode selects what must happen before a write is acknowledged.
type CommitMode uint8

const (
	// CommitLocal acknowledges once the log records are replicated
	// in-memory to the sync replicas — S2DB's design (§3): "no blob store
	// writes are required to commit a transaction".
	CommitLocal CommitMode = iota
	// CommitBlob acknowledges only after the records are uploaded to blob
	// storage — the cloud-data-warehouse design the paper contrasts
	// against (§3.1), used by the CDW baseline and the commit-path
	// ablation.
	CommitBlob
)

// Role distinguishes masters from replicas.
type Role uint8

const (
	// RoleMaster serves reads and writes.
	RoleMaster Role = iota
	// RoleReplica applies the master's log; HA replicas ack for
	// durability, workspace replicas do not (§3.2).
	RoleReplica
)

// Partition is one shard of a database: a log, a timestamp domain and one
// core.Table per logical table.
type Partition struct {
	ID   int
	DB   string
	role Role

	committer *core.Committer
	log       *wal.Log
	files     *PartitionFiles

	mu     sync.RWMutex
	tables map[string]*core.Table

	tableCfg core.Config

	// Durability machinery (master only). durable mirrors the log's
	// durable watermark for waiters; durableMu guards the acks it is
	// computed from.
	commitMode    CommitMode
	durableMu     sync.Mutex
	durable       watermark
	durableNotify chan struct{} // capacity-1 edge trigger for the stager
	acks          map[int]uint64
	ackScratch    []uint64 // reused by recomputeDurableLocked
	minSyncers    int

	uploaded watermark // advances as log chunks reach blob storage
	applied  watermark // the next LSN a replica needs

	closed chan struct{}
	wg     sync.WaitGroup
}

// newPartition builds partition pi in the given role, its tables working
// for tenant; everything else comes from the cluster's config. A replica
// runs no background maintenance: it replays its master's flush and merge
// records instead.
func (c *Cluster) newPartition(pi int, role Role, tenant core.Tenant) *Partition {
	tableCfg := c.cfg.Table
	tableCfg.Tenant = tenant
	if role == RoleReplica {
		tableCfg.Background = false
	}
	return &Partition{
		ID: pi, DB: c.cfg.Name, role: role,
		committer:     core.NewCommitter(),
		log:           wal.NewLogWith(c.cfg.Log),
		files:         NewPartitionFiles(c.blobPrefix(pi), c.cfg.Blob, c.cfg.CacheBytes),
		tables:        make(map[string]*core.Table),
		tableCfg:      tableCfg,
		commitMode:    c.cfg.CommitMode,
		durableNotify: make(chan struct{}, 1),
		acks:          make(map[int]uint64),
		closed:        make(chan struct{}),
	}
}

// Log exposes the partition log (replication, staging).
func (p *Partition) Log() *wal.Log { return p.log }

// Role returns the current role.
func (p *Partition) Role() Role {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.role
}

// CreateTable instantiates a table on this partition.
func (p *Partition) CreateTable(name string, schema *types.Schema) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.tables[name]; exists {
		return fmt.Errorf("partition %d: table %s already exists", p.ID, name)
	}
	tbl, err := core.NewTable(name, schema, p.tableCfg, p.committer, p.log, p.files)
	if err != nil {
		return err
	}
	tbl.Start()
	p.tables[name] = tbl
	return nil
}

// Table returns the named table.
func (p *Partition) Table(name string) (*core.Table, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.tables[name]
	if !ok {
		return nil, fmt.Errorf("partition %d: no table %s", p.ID, name)
	}
	return t, nil
}

// Tables snapshots the table map.
func (p *Partition) Tables() map[string]*core.Table {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]*core.Table, len(p.tables))
	for k, v := range p.tables {
		out[k] = v
	}
	return out
}

// setMinSyncers configures how many sync-replica acks a commit needs.
func (p *Partition) setMinSyncers(n int) {
	p.durableMu.Lock()
	p.minSyncers = n
	p.recomputeDurableLocked()
	p.durableMu.Unlock()
}

// Ack records a sync replica's received-LSN and advances the durable
// watermark ("data is considered committed when it is replicated in-memory
// to at least one replica partition", §3). Links ack once per shipped page,
// so one recompute covers every record in the page. An ack means the page
// reached the replica process over the transport — not that it was applied
// or persisted — and it is never withdrawn: if the replica later fails to
// apply, the watermark may exceed what that replica can serve, which is
// why apply failures kill the link loudly (Link.Err, Cluster.LinkErrors)
// instead of quietly shrinking the durability margin.
func (p *Partition) Ack(replicaID int, lsn uint64) {
	p.durableMu.Lock()
	if lsn > p.acks[replicaID] {
		p.acks[replicaID] = lsn
		p.recomputeDurableLocked()
	}
	p.durableMu.Unlock()
}

// recomputeDurableLocked advances the log durable watermark to the
// minSyncers-th highest ack (or the head when no sync replicas exist).
func (p *Partition) recomputeDurableLocked() {
	var newDurable uint64
	if p.minSyncers <= 0 {
		newDurable = p.log.Head()
	} else {
		if len(p.acks) < p.minSyncers {
			return
		}
		acked := p.ackScratch[:0]
		for _, l := range p.acks {
			acked = append(acked, l)
		}
		p.ackScratch = acked
		sort.Slice(acked, func(i, j int) bool { return acked[i] > acked[j] })
		newDurable = acked[p.minSyncers-1]
	}
	if newDurable > p.log.Durable() {
		p.log.MarkDurable(newDurable)
		p.durable.advance(newDurable)
		select {
		case p.durableNotify <- struct{}{}:
		default:
		}
	}
}

// DurableNotify returns a capacity-1 channel that receives (at least) one
// token per durable-watermark advance; the stager blocks on it instead of
// polling.
func (p *Partition) DurableNotify() <-chan struct{} { return p.durableNotify }

// NoteAppend is called after a local append when the partition has no sync
// replicas, so single-node durability advances immediately.
func (p *Partition) NoteAppend() {
	p.durableMu.Lock()
	p.recomputeDurableLocked()
	p.durableMu.Unlock()
}

// WaitDurable blocks until the record at lsn is durable under the
// partition's commit mode. It notes appends first: with no sync replica,
// a record is durable once appended, and that includes records background
// maintenance appended after the caller's own commit.
func (p *Partition) WaitDurable(lsn uint64, timeout time.Duration) error {
	p.NoteAppend()
	w, what := &p.durable, "replication"
	if p.commitMode == CommitBlob {
		w, what = &p.uploaded, "blob-commit"
	}
	if err := w.wait(lsn+1, p.closed, nil, timeout); err != nil {
		return fmt.Errorf("partition %d: %s wait at LSN %d: %w", p.ID, what, lsn, err)
	}
	return nil
}

// ErrPartitionClosed is returned to WaitDurable and WaitApplied callers
// whose partition closed before their LSN arrived (a failed-over master,
// a detached workspace): nothing will advance a closed partition's
// watermarks, so they fail now rather than at their timeout.
var ErrPartitionClosed = errors.New("cluster: partition closed")

var errWaitTimeout = errors.New("timed out")

// errWaitEnded is returned to a wait whose ended channel closed: the link
// that was to advance the watermark has ended.
var errWaitEnded = errors.New("link ended")

// watermark is an LSN that only advances, with waiters blocked on it. A
// waiter makes the channel that the next advance closes, so advances with
// nobody waiting — page-batched acks, mostly — allocate nothing.
type watermark struct {
	mu  sync.Mutex
	lsn uint64
	ch  chan struct{}
}

func (w *watermark) load() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

func (w *watermark) advance(lsn uint64) {
	w.mu.Lock()
	if lsn > w.lsn {
		w.lsn = lsn
		if w.ch != nil {
			close(w.ch)
			w.ch = nil
		}
	}
	w.mu.Unlock()
}

// next returns nil once the watermark has reached lsn, and otherwise the
// channel its next advance closes.
func (w *watermark) next(lsn uint64) chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lsn >= lsn {
		return nil
	}
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	return w.ch
}

// wait blocks until the watermark reaches lsn (nil), closed closes
// (ErrPartitionClosed), ended closes (errWaitEnded; a nil ended never
// does) or the timeout passes (errWaitTimeout).
func (w *watermark) wait(lsn uint64, closed, ended <-chan struct{}, timeout time.Duration) error {
	ch := w.next(lsn)
	if ch == nil {
		return nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for ; ch != nil; ch = w.next(lsn) {
		select {
		case <-ch:
		case <-closed:
			return ErrPartitionClosed
		case <-ended:
			return errWaitEnded
		case <-timer.C:
			return errWaitTimeout
		}
	}
	return nil
}

// markUploaded advances the blob-upload watermark.
func (p *Partition) markUploaded(lsn uint64) { p.uploaded.advance(lsn) }

// Uploaded returns the blob-upload watermark.
func (p *Partition) Uploaded() uint64 { return p.uploaded.load() }

// markApplied advances a replica's applied watermark.
func (p *Partition) markApplied(lsn uint64) { p.applied.advance(lsn) }

// Applied returns the replica's applied watermark.
func (p *Partition) Applied() uint64 { return p.applied.load() }

// WaitApplied blocks until the replica has applied up to lsn.
func (p *Partition) WaitApplied(lsn uint64, timeout time.Duration) error {
	return p.waitApplied(lsn, nil, timeout)
}

// waitApplied is WaitApplied that also gives up, with errWaitEnded, when
// ended closes.
func (p *Partition) waitApplied(lsn uint64, ended <-chan struct{}, timeout time.Duration) error {
	if err := p.applied.wait(lsn, p.closed, ended, timeout); err != nil {
		return fmt.Errorf("partition %d: apply wait at LSN %d: %w", p.ID, lsn, err)
	}
	return nil
}

// ApplyPage replays a page of master log records on a replica partition —
// one shipped by a link, or a run of a blob log chunk (catchUp): each
// record is appended to the local log (keeping LSNs aligned for future
// promotion) and applied to its table, and the applied watermark advances
// once for the whole page. A mid-page apply error still publishes the
// records applied so far.
func (p *Partition) ApplyPage(pg wal.Page) error {
	for i := range pg.Records {
		if err := p.applyOne(pg.Records[i]); err != nil {
			if i > 0 {
				p.markApplied(pg.Records[i-1].LSN + 1)
			}
			return err
		}
	}
	p.markApplied(pg.EndLSN)
	return nil
}

func (p *Partition) applyOne(rec wal.Record) error {
	if err := p.log.AppendRecord(rec); err != nil {
		return fmt.Errorf("partition %d: %w", p.ID, err)
	}
	name, err := core.TableOfRecord(rec)
	if err != nil {
		return err
	}
	tbl, err := p.Table(name)
	if err != nil {
		return err
	}
	return tbl.Apply(rec)
}

// Promote turns a replica into the master that replaces old (failover,
// §2): HA replicas are "hot copies ... such that a replica can pick up the
// query workload immediately". Background flush/merge, off while the
// replica replayed old's log, starts on each table whose namesake on old
// ran it, and tables created from now on are configured as old's were.
func (p *Partition) Promote(old *Partition) {
	old.mu.RLock()
	background := old.tableCfg.Background
	old.mu.RUnlock()
	oldTables := old.Tables()
	p.mu.Lock()
	p.role = RoleMaster
	p.tableCfg.Background = background
	p.mu.Unlock()
	for name, t := range p.Tables() {
		if ot, ok := oldTables[name]; ok && ot.Background() {
			t.EnableBackground()
		}
	}
}

// Close stops background table work.
func (p *Partition) Close() {
	select {
	case <-p.closed:
		return
	default:
		close(p.closed)
	}
	p.mu.RLock()
	for _, t := range p.tables {
		t.Close()
	}
	p.mu.RUnlock()
	p.wg.Wait()
}
