package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"s2db/internal/bitmap"
	"s2db/internal/blob"
	"s2db/internal/codec"
	"s2db/internal/core"
	"s2db/internal/types"
)

// fetchCountingStore records the log chunks a catch-up fetches.
type fetchCountingStore struct {
	*blob.Memory
	mu      sync.Mutex
	fetched []string // log chunk keys, in fetch order
}

func (s *fetchCountingStore) Get(key string) ([]byte, error) {
	if strings.Contains(key, "/log/") {
		s.mu.Lock()
		s.fetched = append(s.fetched, key)
		s.mu.Unlock()
	}
	return s.Memory.Get(key)
}

// take returns and clears the chunk keys fetched from partition pi.
func (s *fetchCountingStore) take(t *testing.T, pi int) (firstLSNs []uint64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	prefix := "db/" + strconv.Itoa(pi) + "/log/"
	rest := s.fetched[:0]
	for _, key := range s.fetched {
		if !strings.HasPrefix(key, prefix) {
			rest = append(rest, key)
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimPrefix(key, prefix), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		firstLSNs = append(firstLSNs, lsn)
	}
	s.fetched = rest
	return firstLSNs
}

func (s *fetchCountingStore) reset() {
	s.mu.Lock()
	s.fetched = nil
	s.mu.Unlock()
}

// newestSnapLSN is the log position the newest snapshot of pi covers.
func newestSnapLSN(t *testing.T, store blob.Store, pi int) uint64 {
	t.Helper()
	prefix := "db/" + strconv.Itoa(pi) + "/"
	snaps, err := store.List(prefix + "snap/")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("partition %d: no snapshot (err %v)", pi, err)
	}
	lsn, _, err := parseSnapKey(strings.TrimPrefix(snaps[len(snaps)-1], prefix))
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// catchUpFixture loads 4 000 single-row commits into two partitions that
// snapshot every 512 staged records, so each partition's log is 2 000
// one-record chunks of which the newest snapshot covers most. early is a
// wall time after the first 1 000 commits.
func catchUpFixture(t *testing.T) (c *Cluster, store *fetchCountingStore, early time.Time) {
	t.Helper()
	store = &fetchCountingStore{Memory: blob.NewMemory()}
	c = newTestCluster(t, Config{Partitions: 2, Blob: store, SnapshotEvery: 512})
	for i := 0; i < 4000; i++ {
		if i == 1000 {
			time.Sleep(2 * time.Millisecond)
			early = time.Now()
			time.Sleep(2 * time.Millisecond)
		}
		if _, err := c.Insert("items", []types.Row{row(i, i, "t0")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for pi := 0; pi < 2; pi++ {
		c.Stager(pi).Step()
	}
	store.reset()
	return c, store, early
}

func TestCatchUpFetchesOnlyTheChunksItApplies(t *testing.T) {
	c, store, early := catchUpFixture(t)

	// Attach: the snapshot covers everything below its LSN, so at most the
	// one chunk straddling it may start below it.
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < 2; pi++ {
		snap := newestSnapLSN(t, store, pi)
		fetched, below := store.take(t, pi), 0
		for _, lsn := range fetched {
			if lsn < snap {
				below++
			}
		}
		t.Logf("attach partition %d: snapshot LSN %d, fetched %d chunks, %d below it", pi, snap, len(fetched), below)
		if below > 1 {
			t.Errorf("attach partition %d fetched %d chunks below snapshot LSN %d, want <= 1", pi, below, snap)
		}
	}
	if err := c.WaitCaughtUp(ws, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 4000 {
		t.Fatalf("workspace rows = %d, want 4000", got)
	}

	// Resync of a caught-up link: nothing to apply, at most one chunk to
	// find that out.
	store.reset()
	for pi := 0; pi < 2; pi++ {
		if err := c.resyncLink(ws, pi); err != nil {
			t.Fatal(err)
		}
		n := len(store.take(t, pi))
		t.Logf("resync partition %d: fetched %d chunks", pi, n)
		if n > 1 {
			t.Errorf("resync of caught-up partition %d fetched %d chunks, want <= 1", pi, n)
		}
	}

	// PITR to an early target: no chunk starts past the first record
	// after the target, whose wall time is what stops the replay.
	store.reset()
	restored, err := PointInTimeRestore(Config{Partitions: 2, Blob: store},
		map[string]*types.Schema{"items": testSchema()}, early)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for pi := 0; pi < 2; pi++ {
		next, fetched := restored.Master(pi).Applied(), store.take(t, pi)
		t.Logf("PITR partition %d: stopped at LSN %d, fetched %d chunks", pi, next, len(fetched))
		for _, lsn := range fetched {
			if lsn > next {
				t.Errorf("PITR partition %d fetched chunk at LSN %d past its stop at %d", pi, lsn, next)
			}
		}
	}
	views, err = restored.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 1000 {
		t.Fatalf("restored rows = %d, want the 1000 committed before the target", got)
	}
}

// TestStagingSurvivesFailover: the promoted master stages from where the
// failed one stopped, so a PITR to now and a workspace attach both see
// the writes made after the failover.
func TestStagingSurvivesFailover(t *testing.T) {
	store := blob.NewMemory()
	c := newTestCluster(t, Config{Partitions: 2, SyncReplicas: 1, Blob: store, ChunkRecords: 4, SnapshotEvery: 16})
	loadItems(t, c, 40)
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 80; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "t1")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for pi := 0; pi < 2; pi++ {
		c.Stager(pi).Step()
	}
	if c.Master(0).Uploaded() == 0 {
		t.Fatal("promoted master uploaded nothing")
	}

	restored, err := PointInTimeRestore(Config{Partitions: 2, Blob: store},
		map[string]*types.Schema{"items": testSchema()}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	views, err := restored.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 80 {
		t.Fatalf("PITR to now after failover restored %d rows, want 80", got)
	}

	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(ws, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if views, err = ws.Views("items"); err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 80 {
		t.Fatalf("workspace attached after failover sees %d rows, want 80", got)
	}
}

// TestCloseWakesWaiters: durability and apply waiters on a partition
// that closes under them return ErrPartitionClosed at once instead of
// sleeping out their timeout.
func TestCloseWakesWaiters(t *testing.T) {
	p := newPartition("db", 0, RoleMaster, core.Config{}, NewPartitionFiles("db/0/", nil, 0), CommitLocal, 0, Config{}.pageConfig())
	p.setMinSyncers(1) // no replica will ever ack
	errs := make(chan error, 2)
	start := time.Now()
	go func() { errs <- p.WaitDurable(0, time.Minute) }()
	go func() { errs <- p.WaitApplied(1, time.Minute) }()
	p.Close()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrPartitionClosed) {
			t.Fatalf("waiter returned %v, want ErrPartitionClosed", err)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("waiters woke after %v", took)
	}
}

// hostileBundles are snapshot bundles of one "items" table that a decoder
// without bounds or manifest checks accepts: length fields of 2^63 and
// above, which turn negative as int, and manifests whose stubs cannot serve
// their rows.
func hostileBundles() map[string][]byte {
	huge := binary.AppendUvarint(nil, 1<<63+17)
	cat := slices.Concat[[]byte]
	// head is a bundle header: key hash version, one partition, ts 1 and one
	// table.
	head := cat(codec.AppendHeader(nil, codec.ObjSnapshot, bundleVersion), []byte{types.KeyHashVersion, 1, 1, 1})
	withState := func(state []byte) []byte {
		return cat(head, codec.AppendBytes(nil, "items"), codec.AppendBytes(nil, state))
	}
	// manifest is a state with no buffer rows and segment 1 of rows rows in
	// file "f", run 0, with deleted bits del; tail follows it.
	manifest := func(rows []byte, del *bitmap.Bitmap, tail []byte) []byte {
		return cat([]byte{0, 1, 1}, rows, codec.AppendBytes(nil, "f"), []byte{0}, del.AppendBinary(nil), tail)
	}
	return map[string][]byte{
		"table name length": cat(head, huge, []byte("items")),
		"state length":      cat(head, []byte{5}, []byte("items"), huge, []byte{0}),
		"buffer key length": withState(cat([]byte{1}, huge, []byte("key"))), // one buffer row
		"segment rows 2^63": withState(manifest(binary.AppendUvarint(nil, 1<<63), bitmap.New(0), []byte{0})),
		// Get(99) on the stub's deleted bits indexes a missing word.
		"deleted bits shorter than the segment": withState(manifest([]byte{100}, bitmap.New(1), []byte{0})),
		"row id missing":                        withState(manifest([]byte{2}, bitmap.New(2), nil)),
		"state trailing bytes":                  withState(manifest([]byte{2}, bitmap.New(2), []byte{0, 0})),
	}
}

func TestDecodeSnapshotBundleRejectsHostile(t *testing.T) {
	real := realBundle(t)
	if _, err := decodeSnapshotBundle(fuzzPartition(t), real, 1); err != nil {
		t.Fatalf("real bundle: %v", err)
	}
	for name, data := range hostileBundles() {
		t.Run(name, func(t *testing.T) {
			p := fuzzPartition(t)
			if _, err := decodeSnapshotBundle(p, data, 1); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("hostile bundle decoded with err %v, want ErrCorrupt", err)
			}
			tbl, err := p.Table("items")
			if err != nil {
				t.Fatal(err)
			}
			if n := len(tbl.Snapshot().Segs); n != 0 {
				t.Fatalf("%d segments installed from a hostile bundle", n)
			}
		})
	}
	// A bundle of another format version, or placed by another key hash or
	// partition count, is refused with a typed error.
	edited := func(i int, b byte) []byte {
		data := slices.Clone(real)
		data[i] = b
		return data
	}
	for name, c := range map[string]struct {
		data       []byte
		partitions int
		want       error
	}{
		"unknown version":          {edited(1, bundleVersion+1), 1, codec.ErrVersion},
		"other key hash version":   {edited(2, types.KeyHashVersion+1), 1, ErrPlacementMismatch},
		"other partition count":    {real, 2, ErrPlacementMismatch},
		"partition count in bytes": {edited(3, 3), 1, ErrPlacementMismatch},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeSnapshotBundle(fuzzPartition(t), c.data, c.partitions); !errors.Is(err, c.want) {
				t.Fatalf("err %v, want %v", err, c.want)
			}
		})
	}
}

// TestRestoreRefusesOtherPartitionCount: a PITR, or a workspace attach,
// whose cluster has another partition count than the snapshot it would
// restore fails with ErrPlacementMismatch instead of misrouting keys.
func TestRestoreRefusesOtherPartitionCount(t *testing.T) {
	store := blob.NewMemory()
	c := newTestCluster(t, Config{Partitions: 2, Blob: store, SnapshotEvery: 1})
	loadItems(t, c, 8)
	for pi := 0; pi < 2; pi++ {
		c.Master(pi).NoteAppend()
		c.Stager(pi).Step()
		if err := c.Stager(pi).Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for _, parts := range []int{1, 3} {
		_, err := PointInTimeRestore(Config{Partitions: parts, Blob: store},
			map[string]*types.Schema{"items": testSchema()}, time.Now())
		if !errors.Is(err, ErrPlacementMismatch) {
			t.Fatalf("PITR over %d partitions: err %v, want ErrPlacementMismatch", parts, err)
		}
	}
	// A newer bundle for partition 0 placed over three partitions.
	p := c.Master(0)
	key := fmt.Sprintf("%ssnap/%016d-%020d", c.blobPrefix(0), p.Log().Head()+1, time.Now().UnixNano())
	if err := store.Put(key, encodeSnapshotBundle(p, p.Oracle().ReadTS(), 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateWorkspace("ws"); !errors.Is(err, ErrPlacementMismatch) {
		t.Fatalf("workspace attach: err %v, want ErrPlacementMismatch", err)
	}
}

// fuzzPartition is an empty partition holding an empty "items" table.
func fuzzPartition(t testing.TB) *Partition {
	p := newPartition("db", 0, RoleReplica, core.Config{MaxSegmentRows: 8}, NewPartitionFiles("db/0/", nil, 0), CommitLocal, 0, Config{}.pageConfig())
	if err := p.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// realBundle is the snapshot of a partition holding flushed segments,
// deleted rows and buffered rows.
func realBundle(t testing.TB) []byte {
	c, err := New(Config{Partitions: 1, Table: core.Config{MaxSegmentRows: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 20)
	for i := range rows {
		rows[i] = row(i, i, "t0")
	}
	if _, err := c.Insert("items", rows, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteByUnique("items", []types.Value{types.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("items", []types.Row{row(100, 1, "t1")}, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	p := c.Master(0)
	return encodeSnapshotBundle(p, p.Oracle().ReadTS(), 1)
}

func FuzzDecodeSnapshotBundle(f *testing.F) {
	f.Add(realBundle(f))
	for _, data := range hostileBundles() {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzPartition(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = decodeSnapshotBundle(p, data, 1)
		p.Close() // waits out the hydration the restore started
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}

// TestDurableWaitCoversMaintenanceRecords: with no sync replica, a record
// background maintenance appends after a writer's commit is durable once
// appended, so a wait on the log head does not sleep out its timeout.
func TestDurableWaitCoversMaintenanceRecords(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 1})
	loadItems(t, c, 4)
	p := c.Master(0)
	tbl, err := p.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Flush(); err != nil { // a maintenance record, no commit after it
		t.Fatal(err)
	}
	if err := p.WaitDurable(p.Log().Head()-1, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCutReplaysEachRecordOnce: a snapshot taken while committed
// records are not yet staged holds exactly the records below its key's
// LSN, so a restore that replays the staged log from that LSN applies each
// record once. Replaying a buffer insert twice is harmless (it rewrites the
// same key), but replaying flushes the bundle already holds puts rows in
// twice. A first, staged row keeps the snapshot's LSN above zero, where
// restore would skip the snapshot.
func TestSnapshotCutReplaysEachRecordOnce(t *testing.T) {
	store := blob.NewMemory()
	cfg := Config{Partitions: 1, Blob: store, Table: core.Config{MaxSegmentRows: 1 << 20}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	schema := testSchema()
	schema.UniqueKey = nil
	if err := c.CreateTable("items", schema); err != nil {
		t.Fatal(err)
	}
	tbl, err := c.Master(0).Table("items")
	if err != nil {
		t.Fatal(err)
	}
	insert := func(id int) {
		if _, err := c.Insert("items", []types.Row{row(id, id, "a")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	insert(1)
	st := c.Stager(0)
	st.Step()
	func() {
		st.runMu.Lock() // hold off the background staging rounds
		defer st.runMu.Unlock()
		for id := 2; id <= 3; id++ {
			insert(id)
			if _, err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.snapshot(); err != nil {
			t.Fatal(err)
		}
	}()
	st.Step()

	restored, err := PointInTimeRestore(Config{Partitions: 1, Blob: store, Table: cfg.Table},
		map[string]*types.Schema{"items": schema}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	views, err := restored.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 3 {
		t.Fatalf("restored %d rows, want each of the 3 rows once", got)
	}
}
