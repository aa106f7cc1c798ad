package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"s2db/internal/blob"
	"s2db/internal/codec"
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
// miss.
func (f *PartitionFiles) LoadFile(name string) ([]byte, error) {
	return f.cache.Get(name)
}

// LoadFileCtx implements core.FileLoaderCtx: a caller whose ctx dies while
// a cold read is in flight unblocks immediately; the shared fetch keeps
// running so other waiters (and the cache) still get the payload.
func (f *PartitionFiles) LoadFileCtx(ctx context.Context, name string) ([]byte, error) {
	return f.cache.GetCtx(ctx, name)
}

// RemoveFile implements core.FileStore: drops the local copy only — blob
// history is retained for PITR (§3.2: "deleted data can be retained").
func (f *PartitionFiles) RemoveFile(name string) error {
	f.cache.Remove(name)
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
		if err := s.store.Put(s.files.prefix+logKey(uploaded), wal.EncodeRecords(recs)); err != nil {
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
	// One cut, taken under the commit mutex: the state at ts holds exactly
	// the records below lsn, so a restore that replays from lsn applies
	// each record once. lsn may run ahead of the staged log; later rounds
	// stage [uploaded, lsn) and the local log keeps it until then.
	uploaded := s.part.Uploaded()
	var ts, lsn uint64
	s.part.committer.Quiesce(func(readTS uint64) { ts, lsn = readTS, s.part.Log().Head() })
	bundle := encodeSnapshotBundle(s.part, ts, s.partitions)
	key := fmt.Sprintf("snap/%016d-%020d", lsn, time.Now().UnixNano())
	if err := s.store.Put(s.files.prefix+key, bundle); err != nil {
		return err
	}
	s.lastSnapshotLSN = lsn
	s.mu.Lock()
	s.snapshotsPut++
	s.mu.Unlock()
	// The local log below the snapshotted-and-uploaded position is no
	// longer needed for recovery. Truncation can invalidate a downed
	// link's resume point: a reconnect that resubscribes below the new
	// base turns terminally ErrLinkDown, and the owner re-heals from the
	// blob chunks staged here (resyncLink).
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

// ErrPlacementMismatch is returned for a snapshot bundle written by a
// cluster that placed keys differently — another key hash version or
// partition count — which restoring would misroute.
var ErrPlacementMismatch = errors.New("cluster: snapshot placed keys differently")

// encodeSnapshotBundle serializes all tables of a partition at ts. The
// header records how keys were placed: the key hash version and the
// cluster's partition count.
func encodeSnapshotBundle(p *Partition, ts uint64, partitions int) []byte {
	tables := p.Tables()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := codec.AppendHeader(nil, codec.ObjSnapshot, bundleVersion)
	buf = binary.AppendUvarint(buf, types.KeyHashVersion)
	buf = binary.AppendUvarint(buf, uint64(partitions))
	buf = binary.AppendUvarint(buf, ts)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = codec.AppendBytes(buf, n)
		buf = codec.AppendBytes(buf, tables[n].SerializeState(ts))
	}
	return buf
}

// decodeSnapshotBundle restores all tables of a partition of a cluster of
// partitions partitions from a bundle. Bundles come back from blob
// storage, so the whole bundle parses before any table restores, and one
// whose keys were placed differently is refused.
func decodeSnapshotBundle(p *Partition, data []byte, partitions int) (ts uint64, err error) {
	r := codec.NewReader(data)
	if v := r.Header(codec.ObjSnapshot); v != bundleVersion {
		r.Unsupported(v)
	}
	hashVersion, parts := r.Uvarint(), r.Uvarint()
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
	if hashVersion != types.KeyHashVersion || parts != uint64(partitions) {
		return 0, fmt.Errorf("%w: bundle uses key hash v%d over %d partitions, cluster v%d over %d",
			ErrPlacementMismatch, hashVersion, parts, types.KeyHashVersion, partitions)
	}
	for i, name := range names {
		tbl, err := p.Table(name)
		if err != nil {
			return 0, err
		}
		if err := tbl.RestoreState(states[i], ts); err != nil {
			return 0, err
		}
	}
	return ts, nil
}
