package cluster

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/blob"
	"s2db/internal/core"
	"s2db/internal/types"
)

// checkHeldBound checks the held-log invariant once the cluster has
// settled: every stager has staged what is durable, then write commits a
// record to every partition, so the page each copy applies last carries
// the settled upload watermark. Each copy then holds at most what blob
// does not — the records from the master's watermark to its head — plus
// one chunk and one snapshot interval (the master drops its log only when
// it snapshots).
func checkHeldBound(t *testing.T, c *Cluster, write func()) {
	t.Helper()
	for pi := 0; pi < c.Partitions(); pi++ {
		c.Stager(pi).Step()
	}
	write()
	for pi := 0; pi < c.Partitions(); pi++ {
		for _, r := range haReplicas(c, pi) {
			if err := r.part.WaitApplied(c.Master(pi).Log().Head(), 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ws := range c.workspace {
		if err := c.WaitCaughtUp(ws, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range c.LogHeldDetail() {
		m, s := c.Master(h.Partition), c.Stager(h.Partition)
		bound := int(m.Log().Head()-m.Uploaded()) + s.chunkRecords + s.snapshotEvery
		t.Logf("settled: partition %d %s holds %d records (%d bytes), bound %d", h.Partition, h.Copy, h.Records, h.Bytes, bound)
		if h.Records > bound {
			t.Errorf("settled: partition %d %s holds %d records, more than %d", h.Partition, h.Copy, h.Records, bound)
		}
	}
}

// runHeldLogBound is the scenario of ROADMAP item 23: one partition with a
// sync replica, a workspace and a blob store snapshotting every 50 staged
// records takes inserts, with a stager step every 40. Before each copy
// truncated its own log, the master held 50 records and the replica and
// the workspace every record (2 000 of 2 000).
func runHeldLogBound(t *testing.T, inserts int, mutate func(*Config)) {
	cfg := Config{Partitions: 1, SyncReplicas: 1, Blob: blob.NewMemory(), SnapshotEvery: 50}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	ws, err := c.CreateWorkspace("analytics")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inserts; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "h")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
		if i%40 == 39 {
			c.Stager(0).Step()
		}
	}
	if err := haReplicas(c, 0)[0].part.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(ws, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	views, err := ws.Views("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAll(t, views); got != int64(inserts) {
		t.Fatalf("workspace rows = %d, want %d", got, inserts)
	}
	bound := c.Stager(0).chunkRecords + cfg.SnapshotEvery
	for _, h := range c.LogHeldDetail() {
		t.Logf("%s holds %d records (%d bytes)", h.Copy, h.Records, h.Bytes)
		if h.Copy != "master" && h.Records > bound {
			t.Errorf("%s holds %d records, want at most ChunkRecords + SnapshotEvery = %d", h.Copy, h.Records, bound)
		}
	}
	checkHeldBound(t, c, func() {
		if _, err := c.Insert("items", []types.Row{row(inserts, inserts, "h")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if errs := c.LinkErrors(); len(errs) != 0 {
		t.Fatalf("link errors: %v", errs)
	}
}

func TestEveryCopyTruncatesItsLog(t *testing.T) { runHeldLogBound(t, 2000, nil) }

func TestChaosEveryCopyTruncatesItsLog(t *testing.T) { runHeldLogBound(t, 400, withChaosTCP(t, 13)) }

// shadowTable is the model of the items table a test's acknowledged
// writes leave: id → val.
type shadowTable map[int]int

// write applies one random insert, update or delete through the cluster
// and, once it is acknowledged, to the shadow.
func (s shadowTable) write(t *testing.T, c *Cluster, rng *rand.Rand, nextID *int) {
	t.Helper()
	key := func(id int) []types.Value { return []types.Value{types.NewInt(int64(id))} }
	switch op := rng.Intn(10); {
	case op < 6 || len(s) == 0:
		id := *nextID
		*nextID++
		if _, err := c.Insert("items", []types.Row{row(id, id, "s")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
		s[id] = id
	case op < 8:
		id := rng.Intn(*nextID)
		val := rng.Intn(1000)
		ok, err := c.UpdateByUnique("items", key(id), func(r types.Row) types.Row {
			r = append(types.Row(nil), r...)
			r[1] = types.NewInt(int64(val))
			return r
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, had := s[id]; ok != had {
			t.Fatalf("update of id %d found=%v, shadow has it: %v", id, ok, had)
		}
		if ok {
			s[id] = val
		}
	default:
		id := rng.Intn(*nextID)
		ok, err := c.DeleteByUnique("items", key(id))
		if err != nil {
			t.Fatal(err)
		}
		if _, had := s[id]; ok != had {
			t.Fatalf("delete of id %d found=%v, shadow has it: %v", id, ok, had)
		}
		delete(s, id)
	}
}

// check compares one copy's table against the shadow: every id below
// nextID is present with its value exactly when the shadow holds it, and
// the table holds nothing else.
func (s shadowTable) check(t *testing.T, what string, tbl *core.Table, nextID int) {
	t.Helper()
	for id := 0; id < nextID; id++ {
		r, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(int64(id))})
		if err != nil {
			t.Fatal(err)
		}
		want, had := s[id]
		if ok != had || (ok && r[1].I != int64(want)) {
			t.Fatalf("%s: id %d found=%v row %v, shadow has it: %v val %d", what, id, ok, r, had, want)
		}
	}
	v := tbl.Snapshot()
	defer v.Release()
	if got := countAll(t, []*core.View{v}); got != int64(len(s)) {
		t.Fatalf("%s holds %d rows, shadow %d", what, got, len(s))
	}
}

// putGate is a blob store that can refuse puts while reads go on, as blob
// looks to a master that has failed: what it had not uploaded never
// arrives.
type putGate struct {
	*blob.Memory
	refuse atomic.Bool
}

func (s *putGate) Put(key string, data []byte) error {
	if s.refuse.Load() {
		return errors.New("put refused: the master is gone")
	}
	return s.Memory.Put(key, data)
}

// runFailoverAfterTruncation fails a master over right after its sync
// replica truncated its log, with a tail of writes the master never
// uploaded, while a second sync replica lags below the promoted log's
// base. The promoted master must serve every acknowledged write, stage on
// from where blob ends, and rebuild the lagging replica from blob instead
// of dropping it; every copy must then equal the shadow table.
func runFailoverAfterTruncation(t *testing.T, mutate func(*Config)) {
	store := &putGate{Memory: blob.NewMemory()}
	cfg := Config{Partitions: 1, SyncReplicas: 2, Blob: store, ChunkRecords: 4, SnapshotEvery: 16}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	rng := rand.New(rand.NewSource(43))
	shadow, nextID := shadowTable{}, 0
	for i := 0; i < 40; i++ {
		shadow.write(t, c, rng, &nextID)
	}
	// The second replica stops hearing from its master and commits go on
	// with the first one's acks alone.
	lagging := haReplicas(c, 0)[1].part
	haReplicas(c, 0)[1].link().Stop()
	c.Master(0).setMinSyncers(1)
	for i := 0; i < 80; i++ {
		shadow.write(t, c, rng, &nextID)
		if i%10 == 9 {
			c.Stager(0).Step()
		}
	}
	// The next write ships a page that carries the last step's upload
	// watermark; applying it truncates the first replica's log. From then
	// on the master uploads nothing.
	store.refuse.Store(true)
	for i := 0; i < 10; i++ {
		shadow.write(t, c, rng, &nextID)
	}
	first := haReplicas(c, 0)[0].part
	if err := first.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if base := first.Log().Base(); base <= lagging.Applied() {
		t.Fatalf("replica log base %d is not past the lagging replica's position %d: nothing to rebuild from blob", base, lagging.Applied())
	}
	if up, head := c.Master(0).Uploaded(), c.Master(0).Log().Head(); up >= head {
		t.Fatalf("master uploaded %d of %d records: no tail that only the replica holds", up, head)
	}
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	store.refuse.Store(false)
	if c.Master(0) != first {
		t.Fatal("the replica that applied the most was not promoted")
	}
	if reps := haReplicas(c, 0); len(reps) != 1 || reps[0].part != lagging {
		t.Fatalf("after failover partition 0 has %d replicas; the lagging one must be rebuilt, not dropped", len(reps))
	}
	for i := 0; i < 40; i++ {
		shadow.write(t, c, rng, &nextID)
	}
	if err := lagging.WaitApplied(c.Master(0).Log().Head(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		what string
		part *Partition
	}{{"promoted master", c.Master(0)}, {"rebuilt replica", lagging}} {
		tbl, err := p.part.Table("items")
		if err != nil {
			t.Fatal(err)
		}
		shadow.check(t, p.what, tbl, nextID)
	}
	if errs := c.LinkErrors(); len(errs) != 0 {
		t.Fatalf("link errors: %v", errs)
	}
	checkHeldBound(t, c, func() { shadow.write(t, c, rng, &nextID) })

	// Staging resumed where blob ended: a restore to now replays every
	// write, across the failover, without a gap.
	c.Stager(0).Step()
	restored, err := PointInTimeRestore(Config{Partitions: 1, Blob: store},
		map[string]*types.Schema{"items": testSchema()}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	tbl, err := restored.Master(0).Table("items")
	if err != nil {
		t.Fatal(err)
	}
	shadow.check(t, "restore to now", tbl, nextID)
}

func TestFailoverAfterTruncation(t *testing.T) { runFailoverAfterTruncation(t, nil) }

func TestChaosFailoverAfterTruncation(t *testing.T) {
	runFailoverAfterTruncation(t, withChaosTCP(t, 17))
}
