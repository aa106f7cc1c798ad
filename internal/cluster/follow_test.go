package cluster

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/blob"
	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/wal"
)

func insertItem(t *testing.T, c *Cluster, id int) {
	t.Helper()
	if _, err := c.Insert("items", []types.Row{row(id, id, "f")}, core.InsertOptions{}); err != nil {
		t.Fatal(err)
	}
}

// runWorkspaceFollowsFailover attaches a workspace, fails the master over
// and writes once more: the workspace must follow the promoted master and
// see the write made after the failover.
func runWorkspaceFollowsFailover(t *testing.T, mutate func(*Config)) {
	cfg := Config{Partitions: 1, SyncReplicas: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		insertItem(t, c, i)
	}
	if err := haReplicas(c, 0)[0].part.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	insertItem(t, c, 10)
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 11 {
		t.Fatalf("workspace holds %d rows after the failover, want 11", got)
	}
	if l := ws.followers[0].link(); l.master != c.Master(0) {
		t.Fatal("the workspace's link does not follow the promoted master")
	}
	if errs := c.LinkErrors(); len(errs) != 0 {
		t.Fatalf("link errors: %v", errs)
	}
}

func TestWorkspaceFollowsFailover(t *testing.T) {
	t.Run("memory", func(t *testing.T) { runWorkspaceFollowsFailover(t, nil) })
	t.Run("blob", func(t *testing.T) {
		runWorkspaceFollowsFailover(t, func(cfg *Config) { cfg.Blob = blob.NewMemory() })
	})
}

func TestChaosWorkspaceFollowsFailover(t *testing.T) {
	runWorkspaceFollowsFailover(t, func(cfg *Config) {
		withChaosTCP(t, 19)(cfg)
		cfg.Blob = blob.NewMemory()
	})
}

// getGate is a blob store whose reads can fail while writes go on.
type getGate struct {
	*blob.Memory
	refuse atomic.Bool
}

func (s *getGate) Get(key string) ([]byte, error) {
	if s.refuse.Load() {
		return nil, errors.New("get refused: blob is unreachable")
	}
	return s.Memory.Get(key)
}

// TestFailoverQuorumCountsReattachedReplicas: of two sync replicas, one
// lags below the promoted log's base and cannot catch up, because blob
// reads fail during the failover. It is dropped, and the promoted master
// must not wait for its acks: the next write commits at once instead of
// timing out.
func TestFailoverQuorumCountsReattachedReplicas(t *testing.T) {
	store := &getGate{Memory: blob.NewMemory()}
	c := newTestCluster(t, Config{Partitions: 1, SyncReplicas: 2, Blob: store, ChunkRecords: 4, SnapshotEvery: 16})
	loadItems(t, c, 10)
	// The second replica stops hearing from its master, and commits go on
	// with the first one's acks while every copy truncates past it.
	lagging := haReplicas(c, 0)[1]
	lagging.link().Stop()
	c.Master(0).setMinSyncers(1)
	for i := 10; i < 90; i++ {
		insertItem(t, c, i)
		if i%10 == 9 {
			c.Stager(0).Step()
		}
	}
	insertItem(t, c, 90) // ships the last step's upload watermark
	first := haReplicas(c, 0)[0].part
	if err := first.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if base := first.Log().Base(); base <= lagging.part.Applied() {
		t.Fatalf("replica log base %d is not past the lagging replica's position %d", base, lagging.part.Applied())
	}
	store.refuse.Store(true)
	err := c.FailMaster(0)
	store.refuse.Store(false)
	if err == nil || !strings.Contains(err.Error(), "HA replica not re-attached") {
		t.Fatalf("FailMaster returned %v, want the lagging replica named", err)
	}
	if n := len(haReplicas(c, 0)); n != 0 {
		t.Fatalf("%d HA replicas after the failover, want the lagging one dropped", n)
	}
	start := time.Now()
	insertItem(t, c, 1000)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a write after the failover took %v to commit", took)
	}
}

// TestFailoverRefusesDivergedWorkspace: a workspace that applied records
// the promoted replica never received is ahead of the new master. It must
// not resume from its position, which would skip the new master's records
// at those LSNs: FailMaster names it, its link is down with ErrDiverged,
// and WaitCaughtUp returns that at once.
func TestFailoverRefusesDivergedWorkspace(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 1, SyncReplicas: 1})
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		insertItem(t, c, i)
	}
	ha := haReplicas(c, 0)[0]
	if err := ha.part.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The HA replica stops hearing from its master, and commits go on
	// without its acks: the workspace hears five records it never will.
	ha.link().Stop()
	c.Master(0).setMinSyncers(0)
	for i := 5; i < 10; i++ {
		insertItem(t, c, i)
	}
	if err := c.WaitCaughtUp(ws, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	applied := ws.followers[0].part.Applied()
	if head := ha.part.Log().Head(); applied <= head {
		t.Fatalf("workspace applied %d, replica head %d: not diverged", applied, head)
	}
	err = c.FailMaster(0)
	if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "workspace analytics") {
		t.Fatalf("FailMaster returned %v, want the workspace named with ErrDiverged", err)
	}
	insertItem(t, c, 100)
	start := time.Now()
	if err := c.WaitCaughtUp(ws, 10*time.Second); !errors.Is(err, ErrDiverged) {
		t.Fatalf("WaitCaughtUp returned %v, want ErrDiverged", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("WaitCaughtUp took %v to report the divergence", took)
	}
	if got := ws.followers[0].part.Applied(); got != applied {
		t.Fatalf("diverged workspace moved from %d to %d", applied, got)
	}
	if errs := c.LinkErrors(); len(errs) != 1 || !errors.Is(errs[0], ErrDiverged) {
		t.Fatalf("link errors %v, want the diverged workspace's alone", errs)
	}
}

// TestLinkReadsRaceFailoverAndResync reads every link's lag, errors and
// reconnects while failovers and resyncs replace the links; run it under
// -race.
func TestLinkReadsRaceFailoverAndResync(t *testing.T) {
	c := newTestCluster(t, Config{Partitions: 2, SyncReplicas: 2, Blob: blob.NewMemory()})
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = ws.Lag()
			_ = c.LinkErrors()
			_ = c.LinkReconnects()
			_, _, _ = c.ReplicationLagDetail()
			_ = c.LogHeldDetail()
			time.Sleep(10 * time.Microsecond)
		}
	}()
	defer func() { close(stop); <-done }()
	id := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			insertItem(t, c, id)
			id++
		}
		for pi := 0; pi < 2; pi++ {
			if err := c.FailMaster(pi); err != nil {
				t.Fatal(err)
			}
			if err := c.reattach(pi, ws.followers[pi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitCaughtUp(ws, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != int64(id) {
		t.Fatalf("workspace holds %d rows, want %d", got, id)
	}
}

// TestWaitCaughtUpOutlivesLinkEnd: a workspace link that the WAL detaches
// as a slow consumer while WaitCaughtUp waits on it wakes the wait, which
// re-attaches the workspace (catching it up from blob) and goes on waiting
// until the same deadline, instead of sleeping out its timeout.
func TestWaitCaughtUpOutlivesLinkEnd(t *testing.T) {
	c := newTestCluster(t, Config{
		Partitions: 1, Blob: blob.NewMemory(),
		ReplicationLatency: 20 * time.Millisecond,
		Log:                wal.PageConfig{SubscriptionBudget: 256},
	})
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		insertItem(t, c, i)
	}
	const timeout = 3 * time.Second
	start := time.Now()
	if err := c.WaitCaughtUp(ws, timeout); err != nil {
		t.Fatalf("WaitCaughtUp after %v: %v", time.Since(start), err)
	}
	if took := time.Since(start); took > timeout/2 {
		t.Fatalf("WaitCaughtUp took %v of its %v timeout", took, timeout)
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != 80 {
		t.Fatalf("workspace holds %d rows, want 80", got)
	}
}
