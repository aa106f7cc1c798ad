package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/types"
	"s2db/internal/wal"
)

// failFiles wraps a FileStore and fails the Nth SaveFile call, tracking
// which files are currently persisted so tests can assert orphan cleanup.
type failFiles struct {
	inner FileStore

	mu      sync.Mutex
	saves   int
	failAt  int // fail the failAt-th save (1-based); 0 disables
	present map[string]bool
}

func newFailFiles(inner FileStore) *failFiles {
	return &failFiles{inner: inner, present: make(map[string]bool)}
}

func (f *failFiles) SaveFile(name string, data []byte) error {
	f.mu.Lock()
	f.saves++
	fail := f.failAt != 0 && f.saves == f.failAt
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("injected save failure for %s", name)
	}
	if err := f.inner.SaveFile(name, data); err != nil {
		return err
	}
	f.mu.Lock()
	f.present[name] = true
	f.mu.Unlock()
	return nil
}

func (f *failFiles) LoadFile(ctx context.Context, name string) ([]byte, error) {
	return f.inner.LoadFile(ctx, name)
}

func (f *failFiles) RemoveFile(name string) error {
	f.mu.Lock()
	delete(f.present, name)
	f.mu.Unlock()
	return f.inner.RemoveFile(name)
}

func (f *failFiles) fileCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.present)
}

// TestMergeAbortCleansOrphans: when a mid-plan SaveFile fails, outputs that
// were already persisted must be deleted, the error surfaced in Stats, the
// inputs left untouched, and a later retry must succeed.
func TestMergeAbortCleansOrphans(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	files := newFailFiles(NewMemFiles())
	log := wal.NewLog()
	// MergeWorkers=1 makes the save order deterministic so "fail the 2nd
	// merge save" reliably leaves one orphan candidate behind.
	tbl, err := NewTable("t", schema, Config{MaxSegmentRows: 8, MergeFanout: 2, MergeWorkers: 1},
		NewCommitter(), log, files)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 8; i++ {
			tbl.Insert(urow(batch*8+i, batch, "x"))
		}
		if _, err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := files.fileCount() // the two flush outputs
	beforeRows := mustCount(t, tbl)

	// 16 live rows at MaxSegmentRows=8 → two merge outputs; fail the second.
	files.mu.Lock()
	files.failAt = files.saves + 2
	files.mu.Unlock()
	if tbl.Merge() {
		t.Fatal("merge should have aborted")
	}
	if got := files.fileCount(); got != before {
		t.Fatalf("aborted merge leaked files: %d present, want %d", got, before)
	}
	if tbl.Stats.MergeAborts.Load() != 1 {
		t.Fatalf("MergeAborts = %d, want 1", tbl.Stats.MergeAborts.Load())
	}
	if err := tbl.Stats.LastMergeError(); err == nil {
		t.Fatal("merge abort left no error in Stats")
	}
	if tbl.Stats.Merges.Load() != 0 {
		t.Fatalf("aborted merge counted as success: Merges = %d", tbl.Stats.Merges.Load())
	}
	if got := mustCount(t, tbl); got != beforeRows {
		t.Fatalf("aborted merge changed contents: %d -> %d rows", beforeRows, got)
	}

	// Retry with the fault cleared: the merge must go through.
	if !tbl.Merge() {
		t.Fatal("retry merge should succeed")
	}
	if got := mustCount(t, tbl); got != beforeRows {
		t.Fatalf("retried merge changed contents: %d -> %d rows", beforeRows, got)
	}
	for i := 0; i < 16; i++ {
		if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(i))}); !ok {
			t.Fatalf("row %d lost after abort+retry", i)
		}
	}
}

// TestApplySegDeletesChainedRemaps: a delete addressed at a segment retired
// three merges ago must chase the remap chain across every generation and
// land in the final segment.
func TestApplySegDeletesChainedRemaps(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	tbl, _ := newTestTable(t, schema, Config{MaxSegmentRows: 64, MergeFanout: 2})
	nextID := 0
	flushRun := func() {
		for i := 0; i < 8; i++ {
			tbl.Insert(urow(nextID, nextID, "x"))
			nextID++
		}
		if _, err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// First pair of runs; remember where row id=0 lives pre-merge.
	flushRun()
	flushRun()
	view := tbl.Snapshot()
	var origSeg uint64
	var origOff int32 = -1
	for _, m := range view.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			if m.Seg.ValueAt(i, 0).I == 0 {
				origSeg, origOff = m.Seg.ID, int32(i)
			}
		}
	}
	if origOff < 0 {
		t.Fatal("row 0 not found in any segment")
	}
	// Cascade merges: each pass merges the two smallest same-tier runs, so
	// repeated flush+drain produces M(A,B) → M(M1,M2) → M(M3,M6)…
	drain := func() {
		for tbl.Merge() {
		}
	}
	drain()
	for pair := 0; pair < 3; pair++ {
		flushRun()
		flushRun()
		drain()
	}
	// Count the chase depth from the original location to prove the chain
	// really is ≥3 merges deep.
	depth := 0
	seg, off := origSeg, origOff
	for {
		tbl.segMu.RLock()
		e := tbl.segs[seg]
		tbl.segMu.RUnlock()
		if e == nil || e.dropTS.Load() == 0 {
			break
		}
		rm := e.remap.Load()
		if rm == nil {
			t.Fatalf("segment %d dropped without remap", seg)
		}
		tgt := (*rm)[off]
		if tgt.off < 0 {
			t.Fatalf("row 0 vanished while chasing remaps at segment %d", seg)
		}
		seg, off = tgt.seg, tgt.off
		depth++
	}
	if depth < 3 {
		t.Fatalf("remap chain depth = %d, want >= 3", depth)
	}

	before := mustCount(t, tbl)
	tbl.committer.Commit(func(ts uint64) {
		tbl.applySegDeletes(ts, map[uint64][]int32{origSeg: {origOff}})
	})
	if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(0)}); ok {
		t.Fatal("delete at 3-merges-old location did not take effect")
	}
	if got := mustCount(t, tbl); got != before-1 {
		t.Fatalf("NumRows = %d, want %d", got, before-1)
	}
}

// TestApplySegDeletesCycleGuard: a corrupt remap graph with a cycle must
// terminate instead of looping (the guard drops the unresolvable offsets).
func TestApplySegDeletesCycleGuard(t *testing.T) {
	schema := uniqSchema()
	tbl, _ := newTestTable(t, schema, Config{MaxSegmentRows: 8})
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 4; i++ {
			tbl.Insert(urow(batch*4+i, 0, "x"))
		}
		tbl.Flush()
	}
	view := tbl.Snapshot()
	a, b := view.Segs[0].Seg.ID, view.Segs[1].Seg.ID
	tbl.segMu.RLock()
	ea, eb := tbl.segs[a], tbl.segs[b]
	tbl.segMu.RUnlock()
	// Hand-corrupt the graph: both segments "retired", remapping offset 0
	// at each other forever.
	ea.dropTS.Store(tbl.committer.ReadTS())
	eb.dropTS.Store(tbl.committer.ReadTS())
	rmA := []remapTarget{{seg: b, off: 0}, {off: -1}, {off: -1}, {off: -1}}
	rmB := []remapTarget{{seg: a, off: 0}, {off: -1}, {off: -1}, {off: -1}}
	ea.remap.Store(&rmA)
	eb.remap.Store(&rmB)

	done := make(chan struct{})
	go func() {
		defer close(done)
		tbl.committer.Commit(func(ts uint64) {
			tbl.applySegDeletes(ts, map[uint64][]int32{a: {0}})
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("applySegDeletes did not terminate on a cyclic remap graph")
	}
}

// TestMergeConcurrentWithWritesAndScans is the -race storm: merges run
// against concurrent inserts, unique-key deletes, flushes (each of which
// may compact), and scans of an old snapshot that a held view keeps
// readable. Afterwards the logical contents must match the tracked
// expectation exactly, the old snapshot must have stayed stable, and a WAL
// replay must reproduce the merged state byte for byte.
func TestMergeConcurrentWithWritesAndScans(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	tbl, log := newTestTable(t, schema, Config{
		MaxSegmentRows: 32,
		MergeFanout:    2,
		MergeWorkers:   4,
	})

	const total = 1500
	// Seed a prefix, flush part of it, hold a view, and record its row
	// count: deletes of the seed segment's rows, the merges that retire it,
	// flushes and compactions must never change what this timestamp sees,
	// through the held view or a fresh view at its timestamp.
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(urow(i, i, "seed")); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush()
	pinned := tbl.Snapshot()
	defer pinned.Release()
	pinTS, pinRows := pinned.TS, pinned.NumRows()

	var (
		inserted atomic.Int64 // ids < inserted are all present (pre-delete)
		deleted  sync.Map     // id -> true once its DeleteWhere returned 1
		mark     *shadowMark  // a snapshot cut mid-storm, for the replay check
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	inserted.Store(100)

	wg.Add(1)
	go func() { // inserter
		defer wg.Done()
		for i := 100; i < total; i++ {
			if i == total/2 {
				mark = markShadow(tbl, log)
			}
			if err := tbl.Insert(urow(i, i, fmt.Sprintf("t%d", i%7))); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			inserted.Store(int64(i + 1))
		}
	}()
	wg.Add(1)
	go func() { // deleter: every 5th id, once it exists
		defer wg.Done()
		next := 0
		for int64(next) < int64(total) {
			hi := inserted.Load()
			for ; int64(next) < hi; next += 5 {
				n, err := tbl.DeleteWhere(Eq(0, types.NewInt(int64(next))))
				if err != nil {
					t.Errorf("delete %d: %v", next, err)
					return
				}
				if n == 1 {
					deleted.Store(next, true)
				} else {
					t.Errorf("delete %d removed %d rows", next, n)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // flusher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tbl.Flush() //nolint:errcheck // exercised for races; errors surface via contents check
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	wg.Add(1)
	go func() { // merger
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tbl.Merge()
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	wg.Add(1)
	go func() { // old-snapshot scanner
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				v := tbl.SnapshotAt(pinTS)
				got := v.NumRows()
				v.Release()
				if held := pinned.NumRows(); got != pinRows || held != pinRows {
					t.Errorf("pinned snapshot changed: %d rows (held view %d), want %d", got, held, pinRows)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Wait for the writers, then stop the background loops.
	waitWriters := make(chan struct{})
	go func() {
		for inserted.Load() < total {
			time.Sleep(time.Millisecond)
		}
		// Give the deleter time to catch up with the tail.
		for {
			if _, ok := deleted.Load(total - 5); ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(waitWriters)
	}()
	select {
	case <-waitWriters:
	case <-time.After(30 * time.Second):
		t.Fatal("writers did not finish")
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: drain the buffer and the merge tree.
	for tbl.BufferLen() > 0 {
		if _, err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for tbl.Merge() {
	}

	// Exact contents: every non-deleted id present, every deleted id gone.
	want := 0
	for i := 0; i < total; i++ {
		_, isDel := deleted.Load(i)
		_, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if isDel && ok {
			t.Fatalf("deleted id %d still present", i)
		}
		if !isDel && !ok {
			t.Fatalf("id %d lost", i)
		}
		if !isDel {
			want++
		}
	}
	if got := mustCount(t, tbl); got != want {
		t.Fatalf("NumRows = %d, want %d", got, want)
	}

	// The WAL must reproduce the merged state on a fresh replica, and on
	// one restored from the snapshot cut mid-storm.
	assertShadowEqual(t, tbl, log, nil)
	assertShadowEqual(t, tbl, log, mark)
}

// gateFiles blocks the first SaveFile call after arm() until release() is
// called, so a test can hold a merge mid-save and observe what else makes
// progress meanwhile.
type gateFiles struct {
	inner   FileStore
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateFiles(inner FileStore) *gateFiles {
	return &gateFiles{inner: inner, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFiles) SaveFile(name string, data []byte) error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.inner.SaveFile(name, data)
}

func (g *gateFiles) LoadFile(ctx context.Context, name string) ([]byte, error) {
	return g.inner.LoadFile(ctx, name)
}
func (g *gateFiles) RemoveFile(name string) error { return g.inner.RemoveFile(name) }

// TestFlushProceedsWhileMergeSaves: with the install-only lock scope, a
// merge stuck in a (slow) blob write must not block a foreground flush —
// the regression this PR's restructure exists to prevent.
func TestFlushProceedsWhileMergeSaves(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	files := newGateFiles(NewMemFiles())
	tbl, err := NewTable("t", schema, Config{MaxSegmentRows: 16, MergeFanout: 2},
		NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 8; i++ {
			tbl.Insert(urow(batch*8+i, batch, "x"))
		}
		if _, err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Arm the gate and start the merge: its first output save blocks.
	files.armed.Store(true)
	mergeDone := make(chan bool, 1)
	go func() { mergeDone <- tbl.Merge() }()
	select {
	case <-files.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("merge never reached SaveFile")
	}

	// With the merge parked inside the blob write, a flush must complete.
	for i := 16; i < 24; i++ {
		if err := tbl.Insert(urow(i, 2, "y")); err != nil {
			t.Fatal(err)
		}
	}
	flushDone := make(chan error, 1)
	go func() {
		_, err := tbl.Flush()
		flushDone <- err
	}()
	select {
	case err := <-flushDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush blocked behind an in-flight merge save")
	}

	close(files.release)
	select {
	case ok := <-mergeDone:
		if !ok {
			t.Fatal("merge failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("merge did not finish after release")
	}
	for i := 0; i < 24; i++ {
		if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(i))}); !ok {
			t.Fatalf("row %d lost", i)
		}
	}
}

// TestMergeParallelWorkersPreserveOrder: a merge fanning output builds
// across several workers must still produce key-ordered, id-ordered
// segments with intact contents.
func TestMergeParallelWorkersPreserveOrder(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	tbl, _ := newTestTable(t, schema, Config{MaxSegmentRows: 8, MergeFanout: 4, MergeWorkers: 4})
	// 4 interleaved runs of 16 rows → one merge with 8 output segments.
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 16; i++ {
			tbl.Insert(urow(i*4+batch, batch, "x"))
		}
		for tbl.BufferLen() > 0 {
			if _, err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !tbl.Merge() {
		t.Fatal("merge expected")
	}
	view := tbl.Snapshot()
	if len(view.Segs) != 8 {
		t.Fatalf("got %d segments, want 8", len(view.Segs))
	}
	// view.Segs is sorted by segment ID; the same order must be the sort-key
	// order or deterministic scans break.
	prev := int64(-1)
	for _, m := range view.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			v := m.Seg.ValueAt(i, 0).I
			if v < prev {
				t.Fatalf("rows out of order across outputs: %d after %d", v, prev)
			}
			prev = v
		}
	}
	for i := 0; i < 64; i++ {
		if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(i))}); !ok {
			t.Fatalf("row %d lost in parallel merge", i)
		}
	}
}

// TestBulkLoadVersusMergeStorm: a merge that commits while BulkLoad probes
// for duplicates has indexed its outputs, which the load's snapshot does
// not hold, and then drops its inputs' index entries, so a probe of that
// snapshot alone misses a key that is live. Every load here re-inserts a
// live key and must be refused, however it interleaves with the merge.
func TestBulkLoadVersusMergeStorm(t *testing.T) {
	const rounds, runs, runRows = 3000, 4, 8
	accepted := 0
	for round := 0; round < rounds; round++ {
		schema := uniqSchema()
		schema.SortKey = 0
		tbl, _ := newTestTable(t, schema, Config{MaxSegmentRows: runRows, MergeFanout: runs})
		for run := 0; run < runs; run++ {
			batch := make([]types.Row, runRows)
			for i := range batch {
				batch[i] = urow(run*runRows+i, 0, "b")
			}
			if _, err := tbl.BulkLoad(batch); err != nil {
				t.Fatal(err)
			}
		}
		merged := make(chan bool)
		go func() { merged <- tbl.Merge() }()
		for id := 0; id < runs*runRows; id++ {
			_, err := tbl.BulkLoad([]types.Row{urow(id, 1, "dup")})
			if err == nil {
				accepted++
			} else if !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("round %d key %d: %v", round, id, err)
			}
		}
		if !<-merged {
			t.Fatalf("round %d: merge did not run", round)
		}
	}
	if accepted > 0 {
		t.Fatalf("%d of %d loads of a live key were accepted", accepted, rounds*runs*runRows)
	}
}
