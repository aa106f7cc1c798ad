package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"s2db/internal/blob"
	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// TestGroupCommitConcurrentWriters drives concurrent writers through the
// group-commit path: records batch into shared pages, each page ships to
// both sync replicas in one latency hop, and the whole batch's durability
// waits release together.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	c := newTestCluster(t, Config{
		Partitions: 1, SyncReplicas: 2,
		ReplicationLatency: 500 * time.Microsecond,
		Log:                wal.PageConfig{FlushInterval: 200 * time.Microsecond, MaxBytes: 32 << 10},
	})
	const writers, per = 8, 10
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := w*per + i
				if _, err := c.Insert("items", []types.Row{row(id, id*10, "g")}, core.InsertOptions{}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	p := c.Master(0)
	head := p.Log().Head()
	if d := p.Log().Durable(); d != head {
		t.Fatalf("durable %d != head %d after all commits returned", d, head)
	}
	if sealed := p.Log().PagesSealed(); sealed >= writers*per {
		t.Fatalf("group commit never batched: %d pages for %d records", sealed, writers*per)
	}
	for _, rep := range haReplicas(c, 0) {
		if err := rep.part.WaitApplied(head, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	views, err := c.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != writers*per {
		t.Fatalf("rows = %d, want %d", got, writers*per)
	}
}

// TestFailoverWithGroupCommitPages checks that promotion preserves every
// acknowledged write when replication runs in page batches, and that the
// promoted master keeps accepting group-committed writes.
func TestFailoverWithGroupCommitPages(t *testing.T) {
	c := newTestCluster(t, Config{
		Partitions: 1, SyncReplicas: 2,
		ReplicationLatency: 200 * time.Microsecond,
		Log:                wal.PageConfig{FlushInterval: 200 * time.Microsecond},
	})
	loadItems(t, c, 50)
	head := c.Master(0).Log().Head()
	for _, rep := range haReplicas(c, 0) {
		if err := rep.part.WaitApplied(head, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	views, _ := c.Views("items")
	if got := countAll(t, views); got != 50 {
		t.Fatalf("after failover rows = %d, want 50", got)
	}
	for i := 100; i < 120; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "p")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	views, _ = c.Views("items")
	if got := countAll(t, views); got != 70 {
		t.Fatalf("after post-failover writes rows = %d, want 70", got)
	}
}

// pitrStateWith runs one deterministic workload under the given page
// configuration, stages the log to blob storage, restores it with PITR and
// returns each partition's serialized table state. Every configuration must
// produce byte-identical states: page boundaries are a transport detail,
// not a semantic one.
func pitrStateWith(t *testing.T, interval time.Duration, pageBytes int) [][]byte {
	return pitrStateUnder(t, interval, pageBytes, nil)
}

// pitrStateUnder is pitrStateWith with transport/chaos knobs applied to
// the primary cluster (mutate edits the base config): the restored state
// must be byte-identical no matter what the workload's replication rode
// over, because durability and staging consume the same master log.
func pitrStateUnder(t *testing.T, interval time.Duration, pageBytes int, mutate func(*Config)) [][]byte {
	t.Helper()
	store := blob.NewMemory()
	cfg := Config{
		Name: "eqv", Partitions: 2, Blob: store,
		ChunkRecords: 8, SnapshotEvery: 1 << 30,
		Log: wal.PageConfig{FlushInterval: interval, MaxBytes: pageBytes},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	// One row per Insert keeps the per-partition record sequence (and so
	// the commit-timestamp sequence) identical across configurations.
	for i := 0; i < 40; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i*10, fmt.Sprintf("t%d", i%4))}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateWhere("items", core.Eq(2, types.NewString("t1")), func(r types.Row) types.Row {
		r[1] = types.NewInt(-7)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteWhere("items", core.Eq(2, types.NewString("t2"))); err != nil {
		t.Fatal(err)
	}
	// Trailing unflushed inserts: with a large page size and no seal timer
	// these stay in the open page, so staging must cut a partial trailing
	// chunk below the durable watermark.
	for i := 100; i < 110; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "tail")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond) // all record wall times < target
	target := time.Now()
	for pi := 0; pi < 2; pi++ {
		c.Master(pi).NoteAppend()
		c.Stager(pi).Step()
		if _, chunks, _, err := c.Stager(pi).Stats(); err != nil || chunks == 0 {
			t.Fatalf("partition %d staged no chunks (err %v)", pi, err)
		}
	}
	if interval >= time.Hour {
		// Nothing ever sealed: every staged chunk came from the open page.
		for pi := 0; pi < 2; pi++ {
			if n := c.Master(pi).Log().PagesSealed(); n != 0 {
				t.Fatalf("partition %d sealed %d pages; the partial-page run must seal none", pi, n)
			}
		}
	}
	restored, err := PointInTimeRestore(Config{
		Name: "eqv", Partitions: 2, Blob: store,
		Table: core.Config{MaxSegmentRows: 32},
	}, map[string]*types.Schema{"items": testSchema()}, target)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	states := make([][]byte, 2)
	for pi := range states {
		tbl, err := restored.Master(pi).Table("items")
		if err != nil {
			t.Fatal(err)
		}
		states[pi] = serializeLatest(tbl)
	}
	return states
}

// TestPITRPageAlignedReplayEquivalence replays the same workload through
// three page configurations — per-record (the seed behavior), small
// group-commit pages, and one never-sealing page that forces every blob
// chunk to be a partial trailing page — and asserts byte-identical restored
// state.
func TestPITRPageAlignedReplayEquivalence(t *testing.T) {
	perRecord := pitrStateWith(t, 0, 0)
	paged := pitrStateWith(t, 250*time.Microsecond, 1<<14)
	partial := pitrStateWith(t, time.Hour, 1<<20)
	for pi := range perRecord {
		if !bytes.Equal(perRecord[pi], paged[pi]) {
			t.Fatalf("partition %d: paged replay state differs from per-record state", pi)
		}
		if !bytes.Equal(perRecord[pi], partial[pi]) {
			t.Fatalf("partition %d: partial-page replay state differs from per-record state", pi)
		}
	}
}

// TestWorkspaceSlowConsumerResyncsFromBlob stalls a workspace link behind a
// tiny subscription budget until the WAL detaches it, then checks that
// WaitCaughtUp heals the workspace from blob-staged log chunks.
func TestWorkspaceSlowConsumerResyncsFromBlob(t *testing.T) {
	runSlowConsumerResyncSuite(t, nil)
}

// runSlowConsumerResyncSuite is the workspace slow-consumer resync
// scenario, parameterized over transport knobs; assertions are the same
// for every transport.
func runSlowConsumerResyncSuite(t *testing.T, mutate func(*Config)) {
	t.Helper()
	store := blob.NewMemory()
	cfg := Config{
		Partitions: 1, Blob: store,
		ChunkRecords: 8, SnapshotEvery: 1 << 30,
		ReplicationLatency: 2 * time.Millisecond,
		Log:                wal.PageConfig{SubscriptionBudget: 256},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	// Per-record pages trickle through the 2ms link while the master
	// appends far faster than the budget allows to buffer.
	for i := 0; i < 80; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "w")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !errors.Is(ws.followers[0].link().Err(), wal.ErrSlowConsumer) {
		if time.Now().After(deadline) {
			t.Fatal("workspace link was never detached as a slow consumer")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.WaitCaughtUp(ws, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 80 {
		t.Fatalf("workspace rows after resync = %d, want 80", got)
	}
	if lag := ws.Lag(); lag != 0 {
		t.Fatalf("workspace lag after catch-up = %d", lag)
	}
}

// BenchmarkDurableRecompute measures the append + 4-sync-replica ack path
// that recomputes the durable watermark (the satellite fix replaced a
// selection sort plus per-advance channel churn with a sorted recompute
// gated on registered waiters).
func BenchmarkDurableRecompute(b *testing.B) {
	p := (&Cluster{cfg: Config{Name: "bench"}}).newPartition(0, RoleMaster, core.Tenant{})
	p.setMinSyncers(4)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn := p.Log().Append(wal.KindInsert, uint64(i+1), payload)
		for r := 1; r <= 4; r++ {
			p.Ack(r, lsn+1)
		}
	}
}
