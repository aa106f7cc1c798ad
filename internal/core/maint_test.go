package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"s2db/internal/colstore"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// waitUntil polls cond until it holds, failing the test after a deadline
// far shorter than any retry timer the tests below arm.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveRunSizes is the live row count per run at the latest snapshot: the
// input Merge plans from.
func liveRunSizes(tbl *Table) map[int]int {
	sizes := map[int]int{}
	v := tbl.Snapshot()
	defer v.Release()
	for _, m := range v.Segs {
		sizes[m.Run] += m.LiveRows()
	}
	return sizes
}

func bulkRows(from, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = urow(from+i, from+i, "b")
	}
	return rows
}

// A table nobody writes runs its first round and then parks: no ticker,
// and no timer, since nothing is pending.
func TestMaintenanceIdleTableParks(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{Background: true})
	tbl.Start()
	defer tbl.Close()
	waitUntil(t, "the first round ran", func() bool { return tbl.Stats.BackgroundRounds.Load() >= 1 })
	time.Sleep(200 * time.Millisecond) // the window in which no round may run
	if n := tbl.Stats.BackgroundRounds.Load(); n != 1 {
		t.Fatalf("idle table ran %d rounds, want 1", n)
	}
}

// A written table keeps its retry timer only until the garbage its writes
// left in the buffer is compacted, then parks.
func TestMaintenanceParksAfterCompactingGarbage(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{Background: true})
	tbl.Start()
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(urow(i, i, "g")); err != nil {
			t.Fatal(err)
		}
	}
	tbl.DeleteWhere(Eq(0, types.NewInt(3)))
	tbl.UpdateWhere(Eq(0, types.NewInt(4)), func(r types.Row) types.Row {
		r[1] = types.NewInt(40)
		return r
	})
	// Parked: no round for over two periods of the retry timer.
	last, quietSince := tbl.Stats.BackgroundRounds.Load(), time.Now()
	waitUntil(t, "the loop parked", func() bool {
		if n := tbl.Stats.BackgroundRounds.Load(); n != last {
			last, quietSince = n, time.Now()
		}
		return time.Since(quietSince) >= 2*compactPeriod+100*time.Millisecond
	})
	tbl.Close() // NodeCount must not race a compaction
	if nodes, live := tbl.buffer.NodeCount(), tbl.BufferLen(); nodes != live {
		t.Fatalf("parked with %d buffer nodes for %d live rows: garbage left uncompacted", nodes, live)
	}
	if got := mustCount(t, tbl); got != 9 {
		t.Fatalf("NumRows = %d, want 9", got)
	}
}

// The commit that brings the buffer to FlushThreshold wakes the flusher;
// the retry timer (15 s here) plays no part.
func TestMaintenanceFlushesAtThreshold(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{
		MaxSegmentRows: 8, FlushThreshold: 8, Background: true,
	})
	tbl.Start()
	defer tbl.Close()
	for i := 0; i < 7; i++ {
		if err := tbl.Insert(urow(i, i, "f")); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.Stats.Flushes.Load(); n != 0 {
		t.Fatalf("flushed %d times below the threshold", n)
	}
	if err := tbl.Insert(urow(7, 7, "f")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the full buffer was flushed", func() bool {
		return tbl.Stats.Flushes.Load() == 1 && tbl.BufferLen() == 0
	})
	if got := mustCount(t, tbl); got != 8 {
		t.Fatalf("NumRows = %d, want 8", got)
	}
}

// A BulkLoad's runs wake the merger, which collapses them until the plan
// is empty, with no further write and no timer.
func TestMaintenanceBulkLoadCollapses(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	tbl, _ := newTestTable(t, schema, Config{
		MaxSegmentRows: 8, MergeFanout: 2, Background: true,
	})
	tbl.Start()
	defer tbl.Close()
	waitUntil(t, "the first round ran", func() bool { return tbl.Stats.BackgroundRounds.Load() >= 1 })
	if _, err := tbl.BulkLoad(bulkRows(0, 72)); err != nil { // 9 runs of 8 rows
		t.Fatal(err)
	}
	waitUntil(t, "the runs collapsed", func() bool {
		return tbl.Stats.Merges.Load() > 0 && colstore.PickMerge(liveRunSizes(tbl), 2, nil) == nil
	})
	if got := mustCount(t, tbl); got != 72 {
		t.Fatalf("NumRows = %d, want 72", got)
	}
}

// EnableBackground on a replica-style table whose buffer is already over
// the threshold flushes it in the loop's first round.
func TestMaintenanceEnableBackgroundFlushesFullBuffer(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{
		MaxSegmentRows: 8, FlushThreshold: 8,
	})
	defer tbl.Close()
	for i := 0; i < 20; i++ {
		if err := tbl.Insert(urow(i, i, "e")); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.Stats.Flushes.Load(); n != 0 {
		t.Fatalf("flushed %d times without background", n)
	}
	tbl.EnableBackground()
	waitUntil(t, "the buffer dropped below the threshold", func() bool { return tbl.BufferLen() < 8 })
	if n := tbl.Stats.Flushes.Load(); n != 2 {
		t.Fatalf("Flushes = %d, want 2 (20 rows, 8 per flush, stop under 8)", n)
	}
	if got := mustCount(t, tbl); got != 20 {
		t.Fatalf("NumRows = %d, want 20", got)
	}
}

// A merge that aborts is retried by the timer, with no further write.
func TestMaintenanceRetriesAbortedMerge(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	files := newFailFiles(NewMemFiles())
	tbl, err := NewTable("t", schema, Config{
		MaxSegmentRows: 8, MergeFanout: 2, MergeWorkers: 1,
		Background: true,
	}, NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if _, err := tbl.BulkLoad(bulkRows(0, 16)); err != nil {
		t.Fatal(err)
	}
	files.mu.Lock()
	files.failAt = files.saves + 1 // the merge's first output
	files.mu.Unlock()
	tbl.Start()
	waitUntil(t, "the aborted merge was retried", func() bool { return tbl.Stats.Merges.Load() == 1 })
	if n := tbl.Stats.MergeAborts.Load(); n != 1 {
		t.Fatalf("MergeAborts = %d, want 1", n)
	}
	if got := mustCount(t, tbl); got != 16 {
		t.Fatalf("NumRows = %d, want 16", got)
	}
}

// Close during a round waits for the merge in flight and returns; the
// round starts no further flush or merge.
func TestMaintenanceCloseDuringRound(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	files := newGateFiles(NewMemFiles())
	tbl, err := NewTable("t", schema, Config{
		MaxSegmentRows: 8, MergeFanout: 2, MergeWorkers: 1,
		Background: true,
	}, NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	// One run of 16 rows, then two of 8: collapsing takes two merges, 8+8
	// and then 16+16.
	if _, err := tbl.BulkLoad(bulkRows(0, 16)); err != nil {
		t.Fatal(err)
	}
	if !tbl.Merge() {
		t.Fatal("setup merge did not run")
	}
	if _, err := tbl.BulkLoad(bulkRows(16, 16)); err != nil {
		t.Fatal(err)
	}
	files.armed.Store(true)
	tbl.Start()
	<-files.entered // the round's first merge is persisting its outputs
	closed := make(chan struct{})
	go func() {
		tbl.Close()
		close(closed)
	}()
	waitUntil(t, "Close canceled the loop", func() bool { return tbl.bg.ctx.Err() != nil })
	close(files.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if n := tbl.Stats.Merges.Load(); n != 2 {
		t.Fatalf("Merges = %d, want 2 (the setup merge and the one in flight)", n)
	}
	if got := mustCount(t, tbl); got != 32 {
		t.Fatalf("NumRows = %d, want 32", got)
	}
}

// planMerge equals PickMerge with the full heat map, and asks for heat only
// when a plan exists and its tier holds more than fanout runs — and then
// only for that tier's runs.
func TestPlanMergeMatchesFullHeat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		fanout := 2 + rng.Intn(3)
		sizes, heat := map[int]int{}, map[int]int64{}
		for run, n := 0, rng.Intn(14); run < n; run++ {
			sizes[run] = rng.Intn(100)
			if rng.Intn(3) > 0 {
				heat[run] = rng.Int63n(4) // ties and zeros matter
			}
		}
		want := colstore.PickMerge(sizes, fanout, heat)
		var asked []int
		got := planMerge(sizes, fanout, func(run int) int64 {
			asked = append(asked, run)
			return heat[run]
		})
		if (got == nil) != (want == nil) || got != nil && !slices.Equal(got.Runs, want.Runs) {
			t.Fatalf("sizes %v heat %v fanout %d: planMerge %v, PickMerge %v", sizes, heat, fanout, got, want)
		}
		if len(asked) == 0 {
			continue
		}
		tier := colstore.PickMerge(sizes, fanout, nil)
		slices.Sort(asked)
		if tier == nil || len(tier.Runs) <= fanout || !slices.Equal(asked, tier.Runs) {
			t.Fatalf("sizes %v fanout %d: heat fetched for runs %v, plan without heat %v", sizes, fanout, asked, tier)
		}
	}
}

// chainLen counts a segment's metadata versions.
func chainLen(tbl *Table, id uint64) int {
	tbl.segMu.RLock()
	e := tbl.segs[id]
	tbl.segMu.RUnlock()
	n := 0
	for v := e.versions.Load(); v != nil; v = v.prev.Load() {
		n++
	}
	return n
}

// compactNow runs a compaction at once, whatever the rate limit.
func compactNow(tbl *Table) {
	tbl.structMu.Lock()
	defer tbl.structMu.Unlock()
	tbl.lastCompact = time.Time{}
	tbl.maybeCompact()
}

// Every update of a segment-resident row installs a metadata version with
// its own deleted bits. While a view taken before the updates is open,
// compaction keeps the whole chain, and the view keeps the bits it
// resolved; once it is released, compaction cuts the chain to the newest
// version. Snapshots taken throughout walk the chains the compaction cuts
// (the race detector checks the cut); one of them may hold the horizon
// below the last update, so the final count is taken after they stop.
func TestCompactionTrimsSegmentVersions(t *testing.T) {
	const rows = 32
	tbl, _ := newTestTable(t, uniqSchema(), Config{})
	if _, err := tbl.InsertBatch(bulkRows(0, rows), InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	before := tbl.Snapshot()
	if len(before.Segs) != 1 {
		t.Fatalf("flush made %d segments, want 1", len(before.Segs))
	}
	segID := before.Segs[0].Seg.ID
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				tbl.Snapshot().Release()
			}
		}
	}()
	for i := 0; i < rows; i++ {
		tbl.UpdateWhere(Eq(0, types.NewInt(int64(i))), func(r types.Row) types.Row {
			r[1] = types.NewInt(-1)
			return r
		})
	}
	held := chainLen(tbl, segID)
	if held < rows/2 {
		t.Fatalf("chain holds %d versions before compaction, want one per update", held)
	}
	compactNow(tbl)
	if n := chainLen(tbl, segID); n != held {
		t.Fatalf("compaction under an open view cut the chain from %d to %d versions", held, n)
	}
	if d := before.Segs[0].Deleted.Count(); d != 0 {
		t.Fatalf("view taken before the updates sees %d deleted rows, want 0", d)
	}
	if got := before.NumRows(); got != rows {
		t.Fatalf("view taken before the updates counts %d rows, want %d", got, rows)
	}
	before.Release()
	compactNow(tbl) // cuts the chain under the snapshots walking it
	close(stop)
	<-done
	compactNow(tbl) // with no reader left, at the published timestamp
	if n := chainLen(tbl, segID); n != 1 {
		t.Fatalf("chain holds %d versions after the view's release and a compaction, want 1", n)
	}
	after := tbl.Snapshot()
	defer after.Release()
	if d := after.Segs[0].Deleted.Count(); d != rows {
		t.Fatalf("latest view sees %d deleted rows, want %d", d, rows)
	}
	if got := after.NumRows(); got != rows {
		t.Fatalf("latest view counts %d rows, want %d", got, rows)
	}
}
