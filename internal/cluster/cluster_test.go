package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"s2db/internal/blob"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
)

func testSchema() *types.Schema {
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "val", Type: types.Int64},
		types.Column{Name: "tag", Type: types.String},
	)
	s.UniqueKey = []int{0}
	s.ShardKey = []int{0}
	s.SecondaryKeys = [][]int{{2}}
	return s
}

func row(id, val int, tag string) types.Row {
	return types.Row{types.NewInt(int64(id)), types.NewInt(int64(val)), types.NewString(tag)}
}

func countAll(t *testing.T, views []*core.View) int64 {
	t.Helper()
	var n int64
	for _, v := range views {
		n += exec.NewScan(v, nil).Count()
	}
	return n
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Table.MaxSegmentRows == 0 {
		cfg.Table.MaxSegmentRows = 32
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	return c
}

// haReplicas lists partition pi's HA replicas in the order they were made.
func haReplicas(c *Cluster, pi int) []*follower {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*follower
	for _, f := range c.followers[pi] {
		if f.ws == nil {
			out = append(out, f)
		}
	}
	return out
}

func loadItems(t *testing.T, c *Cluster, n int) {
	t.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = row(i, i*10, fmt.Sprintf("t%d", i%4))
	}
	if _, err := c.Insert("items", rows, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedInsertAndRead(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 4})
	loadItems(t, c, 200)
	views, err := c.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 200 {
		t.Fatalf("total rows = %d", got)
	}
	// Rows are spread across partitions (hash partitioning, §2).
	nonEmpty := 0
	for _, v := range views {
		if exec.NewScan(v, nil).Count() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("only %d partitions hold data", nonEmpty)
	}
	// Routed point read.
	r, ok, err := c.GetByUnique("items", []types.Value{types.NewInt(123)})
	if err != nil || !ok || r[1].I != 1230 {
		t.Fatalf("GetByUnique = %v %v %v", r, ok, err)
	}
}

func TestSyncReplicationDurabilityAndConvergence(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 2, SyncReplicas: 1})
	loadItems(t, c, 100)
	// Durable watermark advanced past every record.
	for pi := 0; pi < 2; pi++ {
		p := c.Master(pi)
		if p.Log().Durable() != p.Log().Head() {
			t.Fatalf("partition %d durable %d != head %d", pi, p.Log().Durable(), p.Log().Head())
		}
	}
	// Replicas converge to the same contents.
	for pi := 0; pi < 2; pi++ {
		rep := haReplicas(c, pi)[0].part
		if err := rep.WaitApplied(c.Master(pi).Log().Head(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		mt, _ := c.Master(pi).Table("items")
		rt, _ := rep.Table("items")
		if got, want := rt.Snapshot().NumRows(), mt.Snapshot().NumRows(); got != want {
			t.Fatalf("partition %d replica rows %d != master %d", pi, got, want)
		}
	}
}

func TestUpdateDeleteFanout(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 3})
	loadItems(t, c, 90)
	n, err := c.UpdateWhere("items", core.Eq(2, types.NewString("t1")), func(r types.Row) types.Row {
		r[1] = types.NewInt(-1)
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 23 { // ids with i%4==1 among 0..89: 22 plus? compute: 1,5,...,89 -> 23 values
		t.Fatalf("updated %d", n)
	}
	d, err := c.DeleteWhere("items", core.Eq(2, types.NewString("t2")))
	if err != nil {
		t.Fatal(err)
	}
	if d != 22 { // 2,6,...,86
		t.Fatalf("deleted %d", d)
	}
	views, _ := c.Views("items")
	if got := countAll(t, views); got != 68 {
		t.Fatalf("remaining = %d", got)
	}
}

func TestFailoverPromotesReplica(t *testing.T) {
	runFailoverSuite(t, nil)
}

// runFailoverSuite is the failover scenario, parameterized over transport
// and chaos knobs (mutate edits the base config); its assertions are the
// same for every transport.
func runFailoverSuite(t *testing.T, mutate func(*Config)) {
	t.Helper()
	cfg := Config{Partitions: 1, SyncReplicas: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	loadItems(t, c, 50)
	// Let replicas catch up, then fail the master.
	head := c.Master(0).Log().Head()
	for _, rep := range haReplicas(c, 0) {
		if err := rep.part.WaitApplied(head, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	// No acknowledged write lost.
	views, _ := c.Views("items")
	if got := countAll(t, views); got != 50 {
		t.Fatalf("after failover rows = %d", got)
	}
	// The promoted master accepts writes and replicates to the remaining
	// replica.
	if _, err := c.Insert("items", []types.Row{row(1000, 1, "t0")}, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	r, ok, _ := c.GetByUnique("items", []types.Value{types.NewInt(1000)})
	if !ok || r[1].I != 1 {
		t.Fatal("write after failover lost")
	}
}

// TestFailoverKeepsBackgroundMaintenance: on a cluster configured without
// background maintenance, a master whose tables were switched on with
// EnableBackground fails over to a replica whose tables flush too, and a
// table created after the failover follows the config.
func TestFailoverKeepsBackgroundMaintenance(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 1, SyncReplicas: 1, Table: core.Config{MaxSegmentRows: 8}})
	for _, tbl := range c.Master(0).Tables() {
		tbl.EnableBackground()
	}
	loadItems(t, c, 40)
	if err := haReplicas(c, 0)[0].part.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 40)
	for i := range rows {
		rows[i] = row(100+i, i, "t1")
	}
	if _, err := c.Insert("items", rows, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	tbl, err := c.Master(0).Table("items")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tbl.BufferLen() >= 8 {
		if time.Now().After(deadline) {
			t.Fatalf("promoted master still holds %d buffer rows (%d flushes): no background maintenance",
				tbl.BufferLen(), tbl.Stats.Flushes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.CreateTable("later", testSchema()); err != nil {
		t.Fatal(err)
	}
	later, err := c.Master(0).Table("later")
	if err != nil {
		t.Fatal(err)
	}
	if later.Background() {
		t.Fatal("a table created after failover runs maintenance the config switched off")
	}
}

// TestBulkLoadPartitionOrder: a cluster load visits partitions in index
// order, and the partition that refuses a live key installs nothing: the
// partitions before it keep their rows, the ones after it get none.
func TestBulkLoadPartitionOrder(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 3})
	schema := testSchema()
	var fresh []types.Row
	live := -1
	for id := 0; len(fresh) < 12 || live < 0; id++ {
		if r := row(id, 0, "load"); live < 0 && c.routeRow(schema, r) == 1 {
			live = id
		} else {
			fresh = append(fresh, r)
		}
	}
	if err := c.BulkLoad("items", []types.Row{row(live, 0, "live")}); err != nil {
		t.Fatal(err)
	}
	if err := c.BulkLoad("items", append(fresh, row(live, 1, "dup"))); !errors.Is(err, core.ErrDuplicateKey) {
		t.Fatalf("load of a live key = %v, want ErrDuplicateKey", err)
	}
	for _, r := range fresh {
		_, found, err := c.GetByUnique("items", []types.Value{r[0]})
		if want := c.routeRow(schema, r) == 0; err != nil || found != want {
			t.Fatalf("key %d on partition %d: found %v (%v), want %v", r[0].I, c.routeRow(schema, r), found, err, want)
		}
	}
}

// TestRemovedFileNotStaged: a data file removed before the stager reaches
// it (a refused bulk load's, an aborted merge's) leaves the upload queue
// too, so the next staging round neither uploads it nor fails on it.
func TestRemovedFileNotStaged(t *testing.T) {
	store := blob.NewMemory()
	f := NewPartitionFiles("db/0/", store, 0)
	for _, name := range []string{"t/seg-1", "t/seg-2"} {
		if err := f.SaveFile(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.RemoveFile("t/seg-1"); err != nil {
		t.Fatal(err)
	}
	if n, err := f.drainPending(); n != 1 || err != nil {
		t.Fatalf("drain = %d, %v; want 1 upload and no error", n, err)
	}
	if keys, _ := store.List("db/0/data/"); len(keys) != 1 || keys[0] != "db/0/data/t/seg-2" {
		t.Fatalf("blob holds %v, want only the kept file", keys)
	}
}

func TestBlobStagingUploadsAsync(t *testing.T) {
	store := blob.NewMemory()
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: store,
		Table:        core.Config{MaxSegmentRows: 16},
		ChunkRecords: 8, SnapshotEvery: 1 << 30,
	})
	loadItems(t, c, 64)
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	c.Master(0).NoteAppend()
	c.Stager(0).Step()
	files, chunks, _, err := c.Stager(0).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || chunks == 0 {
		t.Fatalf("staging did not upload: files=%d chunks=%d", files, chunks)
	}
	keys, _ := store.List("db/0/data/")
	if len(keys) == 0 {
		t.Fatal("no data files in blob store")
	}
	keys, _ = store.List("db/0/log/")
	if len(keys) == 0 {
		t.Fatal("no log chunks in blob store")
	}
}

func TestCommitDoesNotWaitForBlob(t *testing.T) {
	// With a very slow blob store, local-commit inserts stay fast (§3.1's
	// headline property).
	slow := blob.NewSimulator(blob.NewMemory(), 50*time.Millisecond, 0)
	c := newTestCluster(t, Config{Partitions: 1, Blob: slow})
	start := time.Now()
	loadItems(t, c, 20)
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("local commits took %v; they must not wait for the blob store", elapsed)
	}
}

func TestCommitBlobModeWaits(t *testing.T) {
	slow := blob.NewSimulator(blob.NewMemory(), 5*time.Millisecond, 0)
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: slow, CommitMode: CommitBlob,
		ChunkRecords: 1,
	})
	start := time.Now()
	loadItems(t, c, 4)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("blob-commit returned in %v; it must wait for uploads", elapsed)
	}
}

func TestWorkspaceProvisioningAndIsolation(t *testing.T) {
	store := blob.NewMemory()
	c := newTestCluster(t, Config{
		Partitions: 2, Blob: store,
		Table:        core.Config{MaxSegmentRows: 16},
		ChunkRecords: 8, SnapshotEvery: 16,
	})
	loadItems(t, c, 100)
	c.Flush("items")
	for pi := 0; pi < 2; pi++ {
		c.Master(pi).NoteAppend()
		c.Stager(pi).Step()
	}
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 100 {
		t.Fatalf("workspace rows = %d", got)
	}
	// New writes continue to flow to the workspace.
	if _, err := c.Insert("items", []types.Row{row(5000, 5, "t0")}, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	views, _ = ws.Views("items")
	if got := countAll(t, views); got != 101 {
		t.Fatalf("workspace rows after write = %d", got)
	}
	// Detach.
	if err := c.DetachWorkspace("analytics"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateWorkspace("analytics"); err != nil {
		t.Fatal(err)
	}
}

func TestPITRRestoresPastState(t *testing.T) {
	runPITRSuite(t, nil)
}

// runPITRSuite is the point-in-time-restore scenario, parameterized over
// transport and chaos knobs for the primary cluster (the restored cluster
// replays from blob and has no links); assertions are transport-agnostic.
func runPITRSuite(t *testing.T, mutate func(*Config)) {
	t.Helper()
	store := blob.NewMemory()
	cfg := Config{
		Partitions: 2, Blob: store,
		Table:        core.Config{MaxSegmentRows: 16},
		ChunkRecords: 4, SnapshotEvery: 8,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	loadItems(t, c, 40)
	// Capture "the past" as a wall-clock instant (PITR's target domain).
	pastTime := time.Now()
	time.Sleep(2 * time.Millisecond) // ensure later records get later wall times
	// More mutations after the restore point.
	if _, err := c.DeleteWhere("items", core.Eq(2, types.NewString("t0"))); err != nil {
		t.Fatal(err)
	}
	c.Insert("items", []types.Row{row(999, 9, "t9")}, core.InsertOptions{})
	c.Flush("items")
	for pi := 0; pi < 2; pi++ {
		c.Master(pi).NoteAppend()
		c.Stager(pi).Step()
	}

	restored, err := PointInTimeRestore(Config{
		Name: "db", Partitions: 2, Blob: store,
		Table: core.Config{MaxSegmentRows: 16},
	}, map[string]*types.Schema{"items": testSchema()}, pastTime)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	views, err := restored.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 40 {
		t.Fatalf("restored rows = %d, want the pre-delete 40", got)
	}
	// The post-restore-point row must not exist.
	if _, ok, _ := restored.GetByUnique("items", []types.Value{types.NewInt(999)}); ok {
		t.Fatal("PITR leaked a future row")
	}
	// And the deleted t0 rows must exist again.
	tbl, _ := restored.Master(0).Table("items")
	if tbl == nil {
		t.Fatal("missing restored table")
	}
}

func TestReplicationLagReported(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 1, SyncReplicas: 1, ReplicationLatency: time.Millisecond})
	loadItems(t, c, 10)
	// Lag is usually small; it must at least be a non-negative readable
	// metric and reach zero once the replica catches up.
	if err := haReplicas(c, 0)[0].part.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if lag := c.ReplicationLag(); lag != 0 {
		t.Fatalf("lag after catch-up = %d", lag)
	}
}

func TestBlobOutageDoesNotBlockWrites(t *testing.T) {
	sim := blob.NewSimulator(blob.NewMemory(), 0, 0)
	c := newTestCluster(t, Config{Partitions: 1, Blob: sim})
	sim.SetUnavailable(true)
	// Writes keep committing during the outage (§3.1: "short periods of
	// unavailability in the blob store doesn't affect the steady-state
	// workload").
	loadItems(t, c, 30)
	views, _ := c.Views("items")
	if got := countAll(t, views); got != 30 {
		t.Fatalf("rows during outage = %d", got)
	}
	sim.SetUnavailable(false)
	c.Master(0).NoteAppend()
	c.Stager(0).Step()
	if _, chunks, _, _ := c.Stager(0).Stats(); chunks == 0 {
		t.Fatal("staging did not resume after outage")
	}
}

func TestColdFileReadFallsBackToBlob(t *testing.T) {
	// A data file evicted from the local cache must be readable again from
	// blob storage (§3.1: cold data files are removed from local disk once
	// uploaded and fetched on demand).
	store := blob.NewMemory()
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: store,
		CacheBytes:   1, // evict everything unpinned immediately
		Table:        core.Config{MaxSegmentRows: 16},
		ChunkRecords: 8,
	})
	loadItems(t, c, 64)
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	c.Master(0).NoteAppend()
	c.Stager(0).Step() // uploads files, unpins them, cache evicts
	tbl, _ := c.Master(0).Table("items")
	view := tbl.Snapshot()
	if len(view.Segs) == 0 {
		t.Fatal("no segments flushed")
	}
	// Reload every segment payload through the file layer.
	for _, m := range view.Segs {
		p := c.Master(0)
		data, err := p.files.LoadFile(context.Background(), m.File)
		if err != nil {
			t.Fatalf("cold read of %s: %v", m.File, err)
		}
		if len(data) == 0 {
			t.Fatalf("cold read of %s returned empty payload", m.File)
		}
	}
	if _, misses, _ := c.Master(0).files.Cache().Stats(); misses == 0 {
		t.Fatal("expected at least one cache miss served from blob storage")
	}
}

func TestWorkspaceBootstrapFromSnapshotWithSegments(t *testing.T) {
	// Regression: workspace bootstrap must be able to fetch segment data
	// files referenced by a blob snapshot manifest (the snapshot-first
	// restore path, not just chunk replay).
	store := blob.NewMemory()
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: store,
		Table:        core.Config{MaxSegmentRows: 8},
		ChunkRecords: 2, SnapshotEvery: 1,
	})
	// Many single-row inserts so enough records exist for a snapshot.
	for i := 0; i < 40; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "t0")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	c.Master(0).NoteAppend()
	c.Stager(0).Step()
	if err := c.Stager(0).Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, _, snaps, _ := c.Stager(0).Stats()
	if snaps == 0 {
		t.Fatal("no snapshot taken")
	}
	ws, err := c.CreateWorkspace("snapws")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 40 {
		t.Fatalf("workspace rows = %d, want 40", got)
	}
}

func TestWorkspaceSnapshotBootstrapThenLiveWrites(t *testing.T) {
	// A workspace bootstrapped from a snapshot must keep applying live
	// records whose LSNs continue from the snapshot position.
	store := blob.NewMemory()
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: store,
		Table:        core.Config{MaxSegmentRows: 8},
		ChunkRecords: 2, SnapshotEvery: 1,
	})
	for i := 0; i < 20; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "t0")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c.Master(0).NoteAppend()
	c.Stager(0).Step()
	if err := c.Stager(0).Snapshot(); err != nil {
		t.Fatal(err)
	}
	ws, err := c.CreateWorkspace("livews")
	if err != nil {
		t.Fatal(err)
	}
	// Live writes after the snapshot bootstrap.
	for i := 100; i < 120; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "t1")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	views, _ := ws.Views("items")
	if got := countAll(t, views); got != 40 {
		t.Fatalf("workspace rows = %d, want 40", got)
	}
}

func TestFailoverUnderConcurrentWrites(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 1, SyncReplicas: 1})
	stop := make(chan struct{})
	acked := make(chan int64, 10000)
	var writerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := c.Insert("items", []types.Row{row(i, i, "t0")}, core.InsertOptions{})
			if err != nil {
				// Writes may fail during the failover window; that's
				// allowed — only *acknowledged* writes must survive.
				writerErr = err
				return
			}
			acked <- int64(i)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	failed := time.Now()
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	// A write waiting on the closed master fails at once (ErrPartitionClosed)
	// instead of sleeping out the 10 s CommitTimeout.
	if took := time.Since(failed); took > 2*time.Second {
		t.Fatalf("writer stopped %v after the failover", took)
	}
	_ = writerErr // failures during failover are acceptable
	close(acked)
	// Every acknowledged insert must be readable on the promoted master.
	for id := range acked {
		if _, ok, err := c.GetByUnique("items", []types.Value{types.NewInt(id)}); err != nil || !ok {
			t.Fatalf("acked row %d lost after failover (err=%v)", id, err)
		}
	}
}

func TestReplicationLatencyDelaysDurability(t *testing.T) {
	// With an injected replication latency, commit acknowledgement must
	// wait for the (slow) in-memory replication, not for anything else.
	c := newTestCluster(t, Config{
		Partitions: 1, SyncReplicas: 1,
		ReplicationLatency: 3 * time.Millisecond,
	})
	start := time.Now()
	if _, err := c.Insert("items", []types.Row{row(1, 1, "t0")}, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("commit returned in %v; must wait for sync replication", elapsed)
	}
}

func TestFailMasterWithoutReplicaFails(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 1})
	if err := c.FailMaster(0); err == nil {
		t.Fatal("failover without replicas should error")
	}
}

func TestPITRBeforeMergeUsesRetainedHistory(t *testing.T) {
	// Merges retire segments locally, but blob storage retains their data
	// files and log history ("deleted data can be retained", §3.2): a PITR
	// to a pre-merge instant must still reconstruct the old state.
	store := blob.NewMemory()
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: store,
		Table:        core.Config{MaxSegmentRows: 8, MergeFanout: 2},
		ChunkRecords: 4,
	})
	for i := 0; i < 32; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "t0")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush("items")
	c.Master(0).NoteAppend()
	c.Stager(0).Step()
	past := time.Now()
	time.Sleep(2 * time.Millisecond)

	// Merge away the original segments, then mutate.
	tbl, _ := c.Master(0).Table("items")
	if !tbl.Merge() {
		t.Fatal("merge expected")
	}
	if _, err := c.DeleteWhere("items", core.Eq(2, types.NewString("t0"))); err != nil {
		t.Fatal(err)
	}
	c.Master(0).NoteAppend()
	c.Stager(0).Step()

	restored, err := PointInTimeRestore(Config{
		Name: "db", Partitions: 1, Blob: store,
		Table: core.Config{MaxSegmentRows: 8},
	}, map[string]*types.Schema{"items": testSchema()}, past)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	views, _ := restored.Views("items")
	if got := countAll(t, views); got != 32 {
		t.Fatalf("restored rows = %d, want the pre-merge 32", got)
	}
}

func TestDiskBlobStoreEndToEnd(t *testing.T) {
	// The on-disk blob store carries a full write→stage→workspace cycle.
	d, err := blob.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: d,
		Table:        core.Config{MaxSegmentRows: 16},
		ChunkRecords: 8, SnapshotEvery: 1,
	})
	loadItems(t, c, 48)
	c.Flush("items")
	c.Master(0).NoteAppend()
	c.Stager(0).Step()
	if err := c.Stager(0).Snapshot(); err != nil {
		t.Fatal(err)
	}
	ws, err := c.CreateWorkspace("disk-ws")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	views, _ := ws.Views("items")
	if got := countAll(t, views); got != 48 {
		t.Fatalf("workspace rows via disk store = %d", got)
	}
}

func TestClusterPointOpsRouted(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 3})
	rows := make([]types.Row, 60)
	for i := range rows {
		rows[i] = row(i, i, "t0")
	}
	// BulkLoad through the cluster API (routes by shard key).
	if err := c.BulkLoad("items", rows); err != nil {
		t.Fatal(err)
	}
	views, _ := c.Views("items")
	if got := countAll(t, views); got != 60 {
		t.Fatalf("bulk loaded %d rows", got)
	}
	// Routed point update.
	ok, err := c.UpdateByUnique("items", []types.Value{types.NewInt(17)}, func(r types.Row) types.Row {
		r[1] = types.NewInt(-17)
		return r
	})
	if err != nil || !ok {
		t.Fatalf("UpdateByUnique = %v, %v", ok, err)
	}
	r, found, _ := c.GetByUnique("items", []types.Value{types.NewInt(17)})
	if !found || r[1].I != -17 {
		t.Fatalf("updated row = %v", r)
	}
	// Missing key.
	ok, err = c.UpdateByUnique("items", []types.Value{types.NewInt(999)}, func(r types.Row) types.Row { return r })
	if err != nil || ok {
		t.Fatalf("missing UpdateByUnique = %v, %v", ok, err)
	}
	// Routed point delete.
	ok, err = c.DeleteByUnique("items", []types.Value{types.NewInt(17)})
	if err != nil || !ok {
		t.Fatalf("DeleteByUnique = %v, %v", ok, err)
	}
	if _, found, _ := c.GetByUnique("items", []types.Value{types.NewInt(17)}); found {
		t.Fatal("deleted row visible")
	}
	ok, _ = c.DeleteByUnique("items", []types.Value{types.NewInt(17)})
	if ok {
		t.Fatal("double delete reported true")
	}
	// Accessors.
	if c.Partitions() != 3 {
		t.Fatalf("Partitions = %d", c.Partitions())
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "items" {
		t.Fatalf("TableNames = %v", names)
	}
	if c.Master(0).Role() != RoleMaster {
		t.Fatal("master role wrong")
	}
}

func TestPointOpsBroadcastWhenNotRoutable(t *testing.T) {
	// Shard key (val) is not part of the unique key (id): point ops must
	// broadcast to all partitions and still find the row.
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "val", Type: types.Int64},
	)
	s.UniqueKey = []int{0}
	s.ShardKey = []int{1}
	c, err := New(Config{Partitions: 3, Table: core.Config{MaxSegmentRows: 32}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTable("t", s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Insert("t", []types.Row{{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := c.UpdateByUnique("t", []types.Value{types.NewInt(11)}, func(r types.Row) types.Row {
		r[1] = types.NewInt(100)
		return r
	})
	if err != nil || !ok {
		t.Fatalf("broadcast update = %v, %v", ok, err)
	}
	r, found, _ := c.GetByUnique("t", []types.Value{types.NewInt(11)})
	if !found || r[1].I != 100 {
		t.Fatalf("broadcast get = %v", r)
	}
	ok, err = c.DeleteByUnique("t", []types.Value{types.NewInt(11)})
	if err != nil || !ok {
		t.Fatalf("broadcast delete = %v, %v", ok, err)
	}
}
