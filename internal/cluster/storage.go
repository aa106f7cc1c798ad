package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"s2db/internal/blob"
	"s2db/internal/codec"
	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// PartitionFiles implements core.FileStore over the local data-file cache
// with asynchronous blob staging (§3.1): newly written segment files are
// pinned locally and queued for upload; once uploaded they become evictable
// and cold reads fall through to the blob store.
type PartitionFiles struct {
	prefix string // blob key prefix, e.g. "files/db/0/"
	cache  *blob.FileCache
	store  blob.Store // nil when running without separated storage

	mu      sync.Mutex
	pending []string
	pendCh  chan struct{}
}

// NewPartitionFiles builds the file layer. store may be nil (shared-nothing
// mode: files stay local and pinned).
func NewPartitionFiles(prefix string, store blob.Store, cacheBytes int) *PartitionFiles {
	var backing blob.Store
	if store != nil {
		// Data files live under "<prefix>data/" in the blob store; cold
		// cache misses must read them back from the same namespace the
		// stager uploads to.
		backing = prefixedStore{store: store, prefix: prefix + "data/"}
	} else {
		backing = blob.NewMemory() // never hit: files stay pinned
	}
	if cacheBytes <= 0 {
		cacheBytes = 1 << 30
	}
	return &PartitionFiles{
		prefix: prefix,
		cache:  blob.NewFileCache(backing, cacheBytes),
		store:  store,
		pendCh: make(chan struct{}, 1),
	}
}

// prefixedStore namespaces a shared blob store per partition.
type prefixedStore struct {
	store  blob.Store
	prefix string
}

func (s prefixedStore) Put(key string, data []byte) error { return s.store.Put(s.prefix+key, data) }
func (s prefixedStore) Get(key string) ([]byte, error)    { return s.store.Get(s.prefix + key) }
func (s prefixedStore) Delete(key string) error           { return s.store.Delete(s.prefix + key) }
func (s prefixedStore) List(prefix string) ([]string, error) {
	keys, err := s.store.List(s.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = strings.TrimPrefix(k, s.prefix)
	}
	return out, nil
}

// SaveFile implements core.FileStore: the file is pinned in the local cache
// and queued for asynchronous upload.
func (f *PartitionFiles) SaveFile(name string, data []byte) error {
	f.cache.AddLocal(name, append([]byte(nil), data...))
	if f.store != nil {
		f.mu.Lock()
		f.pending = append(f.pending, name)
		f.mu.Unlock()
		select {
		case f.pendCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// LoadFile implements core.FileStore: local cache first, blob store on
// miss. A caller whose ctx dies while a cold read is in flight unblocks
// immediately; the shared fetch keeps running so other waiters (and the
// cache) still get the payload.
func (f *PartitionFiles) LoadFile(ctx context.Context, name string) ([]byte, error) {
	return f.cache.GetCtx(ctx, name)
}

// RemoveFile implements core.FileStore: drops the local copy and any
// upload still queued — blob history is retained for PITR (§3.2: "deleted
// data can be retained").
func (f *PartitionFiles) RemoveFile(name string) error {
	f.cache.Remove(name)
	f.mu.Lock()
	f.pending = slices.DeleteFunc(f.pending, func(p string) bool { return p == name })
	f.mu.Unlock()
	return nil
}

// Cache exposes the underlying file cache for stats.
func (f *PartitionFiles) Cache() *blob.FileCache { return f.cache }

// drainPending uploads queued files; returns the number uploaded.
func (f *PartitionFiles) drainPending() (int, error) {
	for n := 0; ; n++ {
		f.mu.Lock()
		if len(f.pending) == 0 {
			f.mu.Unlock()
			return n, nil
		}
		name := f.pending[0]
		f.pending = f.pending[1:]
		f.mu.Unlock()
		data, err := f.cache.Get(name)
		if err != nil {
			return n, err
		}
		if err := f.store.Put(f.prefix+"data/"+name, data); err != nil {
			// Requeue and surface: the stager retries (blob outages must
			// not affect the steady-state workload, §3.1).
			f.mu.Lock()
			f.pending = append([]string{name}, f.pending...)
			f.mu.Unlock()
			return n, err
		}
		f.cache.MarkUploaded(name)
	}
}

// Stager is the per-partition background process of §3.1: it uploads data
// files as soon as they are committed, ships log chunks below the durable
// watermark, and takes periodic snapshots to bound recovery.
type Stager struct {
	part  *Partition
	files *PartitionFiles
	store blob.Store

	partitions    int // recorded in each snapshot bundle
	chunkRecords  int
	snapshotEvery int

	// runMu serialises staging rounds and snapshots — the background loop,
	// Step and Snapshot — which all read and advance the uploaded log
	// position and lastSnapshotLSN.
	runMu           sync.Mutex
	lastSnapshotLSN uint64

	stop chan struct{}
	wg   sync.WaitGroup

	mu            sync.Mutex
	uploadedFiles int
	chunksPut     int
	snapshotsPut  int
	lastErr       error
}

// NewStager wires a stager for a master partition of a cluster of
// partitions partitions.
func NewStager(p *Partition, files *PartitionFiles, store blob.Store, partitions, chunkRecords, snapshotEvery int) *Stager {
	if chunkRecords <= 0 {
		chunkRecords = 256
	}
	if snapshotEvery <= 0 {
		snapshotEvery = 4096
	}
	return &Stager{
		part: p, files: files, store: store, partitions: partitions,
		chunkRecords: chunkRecords, snapshotEvery: snapshotEvery,
		stop: make(chan struct{}),
	}
}

// Backoff bounds for staging retries after a blob error (injected outages
// must not turn the stager into a hot retry loop, §3.1).
const (
	stagerBackoffMin = time.Millisecond
	stagerBackoffMax = 100 * time.Millisecond
)

// Start launches the staging loop. The loop is event-driven: it blocks on
// a pending-file signal or a durable-watermark advance instead of polling,
// and after a blob error it retries with exponential backoff (capped at
// stagerBackoffMax) until the store recovers.
func (s *Stager) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var backoff time.Duration
		retry := time.NewTimer(time.Hour)
		retry.Stop()
		defer retry.Stop()
		err := s.lockedStep() // catch up on anything staged before Start
		for {
			var retryC <-chan time.Time
			if err != nil {
				switch {
				case backoff < stagerBackoffMin:
					backoff = stagerBackoffMin
				case backoff < stagerBackoffMax:
					backoff *= 2
					if backoff > stagerBackoffMax {
						backoff = stagerBackoffMax
					}
				}
				retry.Reset(backoff)
				retryC = retry.C
			} else {
				backoff = 0
			}
			select {
			case <-s.stop:
				s.lockedStep() // final drain
				return
			case <-s.files.pendCh:
			case <-s.part.DurableNotify():
			case <-retryC:
				retryC = nil
			}
			if retryC != nil {
				// Woken by new work, not the timer: clear the pending retry
				// so the next Reset starts from an empty channel.
				if !retry.Stop() {
					<-retry.C
				}
			}
			err = s.lockedStep()
		}
	}()
}

// Step performs one staging round synchronously (exported for tests and
// deterministic harness runs).
func (s *Stager) Step() { _ = s.lockedStep() }

func (s *Stager) lockedStep() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.step()
}

// step is one staging round. Callers hold runMu.
func (s *Stager) step() error {
	if s.store == nil {
		return nil
	}
	var firstErr error
	if n, err := s.files.drainPending(); err != nil {
		s.note(err)
		firstErr = err
	} else if n > 0 {
		s.mu.Lock()
		s.uploadedFiles += n
		s.mu.Unlock()
	}
	// Ship log chunks below the durable watermark ("the tail of the log
	// newer than this position is still receiving active writes, thus
	// these newer log pages are never uploaded", §3.1). Chunks are cut on
	// the sealed-page boundaries replication shipped; only the final chunk
	// below the watermark may be a partial trailing page.
	for {
		uploaded := s.part.Uploaded()
		durable := s.part.Log().Durable()
		if durable <= uploaded {
			break
		}
		recs, end, err := s.part.Log().ChunkAt(uploaded, durable, s.chunkRecords)
		if err != nil {
			s.note(err)
			return err
		}
		if end <= uploaded {
			break
		}
		if err := s.store.Put(s.files.prefix+logKey(uploaded), wal.EncodeRecords(placement(s.partitions), recs)); err != nil {
			s.note(err)
			return err
		}
		s.part.markUploaded(end)
		s.mu.Lock()
		s.chunksPut++
		s.mu.Unlock()
	}
	// Periodic snapshot of rowstore state (§3.1: snapshots go straight to
	// blob storage).
	if s.part.Uploaded() >= s.lastSnapshotLSN+uint64(s.snapshotEvery) {
		if err := s.snapshot(); err != nil {
			s.note(err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Snapshot serializes every table at the current snapshot timestamp and
// uploads the bundle keyed by the log position it covers and the wall
// clock (PITR selects snapshots by wall time, §3.2).
func (s *Stager) Snapshot() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.snapshot()
}

// snapshot is Snapshot for callers that hold runMu.
func (s *Stager) snapshot() error {
	if s.store == nil {
		return nil
	}
	uploaded := s.part.Uploaded()
	cut := cutPartition(s.part)
	bundle := encodeSnapshotBundle(cut, s.partitions)
	cut.release()
	key := fmt.Sprintf("snap/%016d-%020d", cut.lsn, time.Now().UnixNano())
	if err := s.store.Put(s.files.prefix+key, bundle); err != nil {
		return err
	}
	s.lastSnapshotLSN = cut.lsn
	s.mu.Lock()
	s.snapshotsPut++
	s.mu.Unlock()
	// Blob holds the log below uploaded, and the snapshot just put bounds
	// how much of it a restore replays, so the master drops it: this is
	// the master's truncation, as Link.keepFrom is each replica's and
	// workspace's. A link whose resume point falls below the new base
	// cannot resubscribe and ends with ErrLinkDown. A workspace link heals
	// from the chunks staged here (WaitCaughtUp re-attaches it); an HA
	// replica's stays down, reported by LinkErrors, until a failover
	// catches the replica up from blob.
	s.part.Log().TruncateBefore(uploaded)
	return nil
}

func (s *Stager) note(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// Stats reports staging counters (files uploaded, chunks, snapshots, last
// error).
func (s *Stager) Stats() (files, chunks, snapshots int, lastErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.uploadedFiles, s.chunksPut, s.snapshotsPut, s.lastErr
}

// Close stops the stager after a final drain.
func (s *Stager) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wg.Wait()
}

// logKey names the blob log chunk whose first record is lsn. The LSN is
// zero-padded so that keys sort by it.
func logKey(lsn uint64) string { return fmt.Sprintf("log/%016d", lsn) }

// parseSnapKey reads the log position and wall time out of a snapshot key
// ("snap/<lsn>-<wall>", relative to the partition prefix).
func parseSnapKey(key string) (lsn uint64, wall int64, err error) {
	if _, err := fmt.Sscanf(key, "snap/%d-%d", &lsn, &wall); err != nil {
		return 0, 0, fmt.Errorf("bad snapshot key %s: %w", key, err)
	}
	return lsn, wall, nil
}

// bundleVersion is the snapshot bundle format version encodeSnapshotBundle
// writes and decodeSnapshotBundle reads.
const bundleVersion = 1

// ErrPlacementMismatch is returned for a snapshot bundle or log chunk
// written by a cluster that placed keys differently — another key hash
// version or partition count — which restoring would misroute.
var ErrPlacementMismatch = errors.New("cluster: blob data placed keys differently")

// placement is how a cluster of partitions partitions routes keys. Log
// chunks and snapshot bundles record it.
func placement(partitions int) wal.Placement {
	return wal.Placement{HashVersion: types.KeyHashVersion, Partitions: uint64(partitions)}
}

// checkPlacement refuses blob data (what) whose keys were placed under got
// when a cluster of partitions partitions would place them differently.
func checkPlacement(what string, got wal.Placement, partitions int) error {
	if want := placement(partitions); got != want {
		return fmt.Errorf("%w: %s uses key hash v%d over %d partitions, cluster v%d over %d",
			ErrPlacementMismatch, what, got.HashVersion, got.Partitions, want.HashVersion, want.Partitions)
	}
	return nil
}

// partitionCut is one consistent cut of a partition, taken under the
// commit mutex: the state at ts holds exactly the records below lsn, so a
// restore that replays from lsn applies each record once. lsn may run
// ahead of the staged log; later rounds stage [uploaded, lsn) and the
// local log keeps it until then. Each table has a view registered at ts,
// which keeps compaction from reclaiming what the cut reads until release.
type partitionCut struct {
	ts, lsn uint64
	tables  map[string]*core.Table
	views   map[string]*core.View
}

// cutPartition takes a partitionCut of every table of p. The tables are
// listed before the commit mutex is taken, so a table created meanwhile
// may hold commits below ts without a view in the cut; tables are never
// dropped, so when the list grew across the cut, the cut is taken again.
func cutPartition(p *Partition) *partitionCut {
	for {
		c := &partitionCut{tables: p.Tables()}
		c.views = make(map[string]*core.View, len(c.tables))
		p.committer.Quiesce(func(readTS uint64) {
			c.ts, c.lsn = readTS, p.Log().Head()
			for n, tbl := range c.tables {
				c.views[n] = tbl.SnapshotAt(readTS)
			}
		})
		if len(p.Tables()) == len(c.tables) {
			return c
		}
		c.release()
	}
}

// release releases the cut's views.
func (c *partitionCut) release() {
	for _, v := range c.views {
		v.Release()
	}
}

// encodeSnapshotBundle serializes every table of a cut at its timestamp.
// The header records how keys were placed: the key hash version and the
// cluster's partition count.
func encodeSnapshotBundle(c *partitionCut, partitions int) []byte {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	pl := placement(partitions)
	buf := codec.AppendHeader(nil, codec.ObjSnapshot, bundleVersion)
	buf = binary.AppendUvarint(buf, pl.HashVersion)
	buf = binary.AppendUvarint(buf, pl.Partitions)
	buf = binary.AppendUvarint(buf, c.ts)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = codec.AppendBytes(buf, n)
		buf = codec.AppendBytes(buf, c.tables[n].SerializeState(c.views[n]))
	}
	return buf
}

// decodeSnapshotBundle restores all tables of a partition of a cluster of
// partitions partitions from a bundle. Bundles come back from blob
// storage, so the whole bundle — every table's state included — parses
// before any table restores, and one whose keys were placed differently is
// refused: a corrupt bundle restores nothing.
func decodeSnapshotBundle(p *Partition, data []byte, partitions int) (ts uint64, err error) {
	r := codec.NewReader(data)
	if v := r.Header(codec.ObjSnapshot); v != bundleVersion {
		r.Unsupported(v)
	}
	pl := wal.Placement{HashVersion: r.Uvarint(), Partitions: r.Uvarint()}
	ts = r.Uvarint()
	// Every table takes at least two length bytes: its name and its state.
	n := r.Count(2)
	names, states := make([]string, n), make([][]byte, n)
	for i := range names {
		names[i], states[i] = string(r.Field()), r.Field()
	}
	if err := r.Done(); err != nil {
		return 0, fmt.Errorf("cluster: snapshot bundle: %w", err)
	}
	if err := checkPlacement("snapshot bundle", pl, partitions); err != nil {
		return 0, err
	}
	parsed := make([]*core.State, n)
	for i, name := range names {
		tbl, err := p.Table(name)
		if err != nil {
			return 0, err
		}
		if parsed[i], err = tbl.DecodeState(states[i]); err != nil {
			return 0, err
		}
	}
	for _, s := range parsed {
		if err := s.Install(ts); err != nil {
			return 0, err
		}
	}
	return ts, nil
}
