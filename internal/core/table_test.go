package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"s2db/internal/types"
	"s2db/internal/wal"
)

// newTestTable builds a standalone table with its own partition machinery.
func newTestTable(t *testing.T, schema *types.Schema, cfg Config) (*Table, *wal.Log) {
	t.Helper()
	log := wal.NewLog()
	tbl, err := NewTable("t", schema, cfg, NewCommitter(), log, NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	return tbl, log
}

func uniqSchema() *types.Schema {
	s := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "val", Type: types.Int64},
		types.Column{Name: "tag", Type: types.String},
	)
	s.UniqueKey = []int{0}
	s.SecondaryKeys = [][]int{{2}}
	return s
}

func plainSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Int64},
	)
}

func urow(id, val int, tag string) types.Row {
	return types.Row{types.NewInt(int64(id)), types.NewInt(int64(val)), types.NewString(tag)}
}

func mustCount(t *testing.T, tbl *Table) int {
	t.Helper()
	v := tbl.Snapshot()
	defer v.Release()
	return v.NumRows()
}

func TestInsertAndGetByUnique(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{})
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(urow(i, i*10, "x")); err != nil {
			t.Fatal(err)
		}
	}
	r, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(7)})
	if err != nil || !ok || r[1].I != 70 {
		t.Fatalf("GetByUnique = %v, %v, %v", r, ok, err)
	}
	if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(99)}); ok {
		t.Fatal("phantom row")
	}
	if got := mustCount(t, tbl); got != 10 {
		t.Fatalf("NumRows = %d", got)
	}
}

func TestDuplicateKeyPolicies(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{})
	if err := tbl.Insert(urow(1, 10, "a")); err != nil {
		t.Fatal(err)
	}
	// DupError.
	if err := tbl.Insert(urow(1, 20, "b")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup insert = %v", err)
	}
	// DupSkip.
	res, err := tbl.InsertBatch([]types.Row{urow(1, 20, "b"), urow(2, 30, "c")}, InsertOptions{OnDup: DupSkip})
	if err != nil || res.Skipped != 1 || res.Inserted != 1 {
		t.Fatalf("skip batch = %+v, %v", res, err)
	}
	r, _, _ := tbl.GetByUnique([]types.Value{types.NewInt(1)})
	if r[1].I != 10 {
		t.Fatal("skip overwrote the row")
	}
	// DupReplace.
	res, err = tbl.InsertBatch([]types.Row{urow(1, 99, "z")}, InsertOptions{OnDup: DupReplace})
	if err != nil || res.Replaced != 1 {
		t.Fatalf("replace = %+v, %v", res, err)
	}
	r, _, _ = tbl.GetByUnique([]types.Value{types.NewInt(1)})
	if r[1].I != 99 {
		t.Fatal("replace did not take effect")
	}
	// DupUpdate with a merge callback.
	res, err = tbl.InsertBatch([]types.Row{urow(1, 1, "u")}, InsertOptions{
		OnDup: DupUpdate,
		Update: func(old, in types.Row) types.Row {
			out := old.Clone()
			out[1] = types.NewInt(old[1].I + in[1].I)
			return out
		},
	})
	if err != nil || res.Updated != 1 {
		t.Fatalf("upsert = %+v, %v", res, err)
	}
	r, _, _ = tbl.GetByUnique([]types.Value{types.NewInt(1)})
	if r[1].I != 100 {
		t.Fatalf("upsert value = %d, want 100", r[1].I)
	}
	if got := mustCount(t, tbl); got != 2 {
		t.Fatalf("NumRows = %d", got)
	}
}

func TestUniqueEnforcedAcrossFlush(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 4})
	for i := 0; i < 8; i++ {
		if err := tbl.Insert(urow(i, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if tbl.SegmentCount() == 0 {
		t.Fatal("flush produced no segment")
	}
	// Duplicate against a row now living in a segment.
	if err := tbl.Insert(urow(3, 0, "y")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup vs segment = %v", err)
	}
	// Replace against a segment row claims it from its segment (§4.2).
	moves := tbl.Stats.Moves.Load()
	res, err := tbl.InsertBatch([]types.Row{urow(3, 333, "y")}, InsertOptions{OnDup: DupReplace})
	if err != nil || res.Replaced != 1 {
		t.Fatalf("replace vs segment = %+v, %v", res, err)
	}
	if tbl.Stats.Moves.Load() <= moves {
		t.Fatal("replace of a segment row should claim it")
	}
	r, _, _ := tbl.GetByUnique([]types.Value{types.NewInt(3)})
	if r[1].I != 333 {
		t.Fatalf("replaced value = %d", r[1].I)
	}
	if got := mustCount(t, tbl); got != 8 {
		t.Fatalf("NumRows = %d after replace", got)
	}
}

func TestFlushPreservesContents(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 100})
	want := map[int64]int64{}
	var old *View
	for i := 0; i < 50; i++ {
		tbl.Insert(urow(i, i*2, fmt.Sprintf("t%d", i%5)))
		want[int64(i)] = int64(i * 2)
		if i == 0 {
			old = tbl.Snapshot()
			defer old.Release()
		}
	}
	n, err := tbl.Flush()
	if err != nil || n != 50 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	if tbl.BufferLen() != 0 {
		t.Fatalf("buffer still has %d rows", tbl.BufferLen())
	}
	view := tbl.Snapshot()
	got := map[int64]int64{}
	for _, m := range view.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			if !m.Deleted.Get(i) {
				r := m.Seg.RowAt(i)
				got[r[0].I] = r[1].I
			}
		}
	}
	view.ScanBuffer(func(r types.Row) bool { got[r[0].I] = r[1].I; return true })
	if len(got) != len(want) {
		t.Fatalf("row count %d != %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("row %d = %d, want %d", k, got[k], v)
		}
	}
	// An old view, held since the first insert, still sees the buffer
	// layout.
	cnt := 0
	old.ScanBuffer(func(types.Row) bool { cnt++; return true })
	if cnt != 1 || len(old.Segs) != 0 {
		t.Fatalf("snapshot at ts=1: %d buffer rows, %d segs", cnt, len(old.Segs))
	}
}

func TestUpdateWhereBufferAndSegment(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 10})
	for i := 0; i < 10; i++ {
		tbl.Insert(urow(i, 0, "x"))
	}
	tbl.Flush()
	for i := 10; i < 15; i++ {
		tbl.Insert(urow(i, 0, "x")) // these stay in the buffer
	}
	n, err := tbl.UpdateWhere(
		Where{Pred: func(r types.Row) bool { return r[0].I%2 == 0 }},
		func(r types.Row) types.Row { r[1] = types.NewInt(777); return r },
	)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 { // 0,2,4,6,8 in segment + 10,12,14 in buffer
		t.Fatalf("updated %d rows, want 8", n)
	}
	for i := 0; i < 15; i++ {
		r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(i))})
		if !ok {
			t.Fatalf("row %d lost", i)
		}
		want := int64(0)
		if i%2 == 0 {
			want = 777
		}
		if r[1].I != want {
			t.Fatalf("row %d val = %d, want %d", i, r[1].I, want)
		}
	}
	if got := mustCount(t, tbl); got != 15 {
		t.Fatalf("NumRows = %d", got)
	}
}

func TestDeleteWhere(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 10})
	for i := 0; i < 10; i++ {
		tbl.Insert(urow(i, i, "x"))
	}
	tbl.Flush()
	n, err := tbl.DeleteWhere(Where{Pred: func(r types.Row) bool { return r[0].I < 4 }})
	if err != nil || n != 4 {
		t.Fatalf("DeleteWhere = %d, %v", n, err)
	}
	if got := mustCount(t, tbl); got != 6 {
		t.Fatalf("NumRows = %d", got)
	}
	if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(2)}); ok {
		t.Fatal("deleted row still visible")
	}
	// Reinsert a deleted key.
	if err := tbl.Insert(urow(2, 22, "x")); err != nil {
		t.Fatal(err)
	}
	r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(2)})
	if !ok || r[1].I != 22 {
		t.Fatalf("reinserted row = %v, %v", r, ok)
	}
}

func TestDeleteByIndexedColumn(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 10})
	for i := 0; i < 10; i++ {
		tag := "keep"
		if i%3 == 0 {
			tag = "drop"
		}
		tbl.Insert(urow(i, i, tag))
	}
	tbl.Flush()
	n, err := tbl.DeleteWhere(Eq(2, types.NewString("drop")))
	if err != nil || n != 4 {
		t.Fatalf("DeleteWhere(tag=drop) = %d, %v", n, err)
	}
	rows := tbl.LookupEqual(2, types.NewString("drop"))
	if len(rows) != 0 {
		t.Fatalf("LookupEqual after delete = %v", rows)
	}
	if len(tbl.LookupEqual(2, types.NewString("keep"))) != 6 {
		t.Fatal("keep rows wrong")
	}
}

func TestMergePreservesContentsAndAppliesConcurrentDeletes(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 0
	tbl, _ := newTestTable(t, schema, Config{MaxSegmentRows: 16, MergeFanout: 2})
	// Create several runs via repeated flushes.
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 8; i++ {
			tbl.Insert(urow(batch*8+i, batch, "x"))
		}
		if _, err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := mustCount(t, tbl)
	if !tbl.Merge() {
		t.Fatal("merge should have run")
	}
	if got := mustCount(t, tbl); got != before {
		t.Fatalf("merge changed row count: %d -> %d", before, got)
	}
	// Verify all rows still reachable by unique key.
	for i := 0; i < 32; i++ {
		if _, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(i))}); !ok {
			t.Fatalf("row %d lost after merge", i)
		}
	}
	if tbl.Stats.Merges.Load() != 1 {
		t.Fatalf("Merges = %d", tbl.Stats.Merges.Load())
	}
}

func TestMoveRemapAfterMerge(t *testing.T) {
	// A delete that targets a segment which has been merged away must chase
	// the remap and land on the merged segment.
	schema := uniqSchema()
	tbl, _ := newTestTable(t, schema, Config{MaxSegmentRows: 16, MergeFanout: 2})
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 8; i++ {
			tbl.Insert(urow(batch*8+i, batch, "x"))
		}
		tbl.Flush()
	}
	// Record old segment ids, then merge.
	view := tbl.Snapshot()
	oldSeg := view.Segs[0].Seg.ID
	oldOff := int32(0)
	oldRow := view.Segs[0].Seg.RowAt(0)
	if !tbl.Merge() {
		t.Fatal("merge expected")
	}
	// Apply a delete addressed at the *old* location, as a racing move
	// would after losing the reorder race.
	tbl.committer.Commit(func(ts uint64) {
		tbl.applySegDeletes(ts, map[uint64][]int32{oldSeg: {oldOff}})
	})
	if _, ok, _ := tbl.GetByUnique([]types.Value{oldRow[0]}); ok {
		t.Fatal("remapped delete did not take effect")
	}
	if got := mustCount(t, tbl); got != 15 {
		t.Fatalf("NumRows = %d, want 15", got)
	}
}

// TestBulkLoad: a load lands in segments, and its unique keys are checked
// as an insert's are. A refused load — a live key, a NULL key, a failed
// save — installs nothing and leaves none of the files it saved.
func TestBulkLoad(t *testing.T) {
	files := newFailFiles(NewMemFiles())
	tbl, err := NewTable("t", uniqSchema(), Config{MaxSegmentRows: 8}, NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 20)
	for i := range rows {
		rows[i] = urow(i, i, "bulk")
	}
	if _, err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.BufferLen() != 0 {
		t.Fatal("bulk load must bypass the buffer")
	}
	if tbl.SegmentCount() != 3 { // ceil(20/8)
		t.Fatalf("SegmentCount = %d", tbl.SegmentCount())
	}
	if got := mustCount(t, tbl); got != 20 {
		t.Fatalf("NumRows = %d", got)
	}
	unchanged := func(what string) {
		t.Helper()
		if n, segs, saved := mustCount(t, tbl), tbl.SegmentCount(), files.fileCount(); n != 20 || segs != 3 || saved != 3 {
			t.Fatalf("after %s: %d rows, %d segments, %d files; want 20, 3, 3", what, n, segs, saved)
		}
	}
	// Unique keys enforced against bulk-loaded data.
	if err := tbl.Insert(urow(5, 0, "dup")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup vs bulk = %v", err)
	}
	if _, err := tbl.BulkLoad([]types.Row{urow(100, 0, "new"), urow(5, 0, "dup")}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("bulk dup = %v", err)
	}
	unchanged("a load of a live key")
	// A NULL unique key is refused with an insert's error, however often
	// it is loaded.
	null := types.Row{types.Null(types.Int64), types.NewInt(0), types.NewString("null")}
	insErr := tbl.Insert(null)
	for i := 0; i < 2; i++ {
		_, err := tbl.BulkLoad([]types.Row{urow(100, 0, "new"), null})
		if err == nil || insErr == nil || fmt.Sprint(errors.Unwrap(err)) != fmt.Sprint(errors.Unwrap(insErr)) {
			t.Fatalf("load %d of a NULL key = %v, want the insert's %v", i, err, insErr)
		}
		unchanged("a load of a NULL key")
	}
	// A load whose second save fails installs nothing and removes the
	// first file it saved.
	files.failAt = files.saves + 2
	more := make([]types.Row, 12)
	for i := range more {
		more[i] = urow(100+i, i, "more")
	}
	if _, err := tbl.BulkLoad(more); err == nil {
		t.Fatal("a load whose save failed was accepted")
	}
	unchanged("a failed save")
}

func TestHiddenRowIDTables(t *testing.T) {
	tbl, _ := newTestTable(t, plainSchema(), Config{MaxSegmentRows: 8})
	for i := 0; i < 10; i++ {
		tbl.Insert(types.Row{types.NewInt(int64(i % 3)), types.NewInt(int64(i))})
	}
	tbl.Flush()
	// Delete by predicate on a non-indexed column.
	n, err := tbl.DeleteWhere(Where{Pred: func(r types.Row) bool { return r[0].I == 1 }})
	if err != nil || n != 3 {
		t.Fatalf("DeleteWhere = %d, %v", n, err)
	}
	if got := mustCount(t, tbl); got != 7 {
		t.Fatalf("NumRows = %d", got)
	}
}

// TestHiddenRowIDUpdateWhere: UpdateWhere on a hidden-row-id table claims
// each matched segment row (its deleted bit) and writes the new row under
// a fresh row id, once per row, beside the buffer rows it rewrites in
// place; a shadow replayed from the log equals the primary.
func TestHiddenRowIDUpdateWhere(t *testing.T) {
	tbl, log := newTestTable(t, plainSchema(), Config{MaxSegmentRows: 8})
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(types.Row{types.NewInt(int64(i % 3)), types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if _, err := tbl.Flush(); err != nil { // rows 0..5 in a segment
				t.Fatal(err)
			}
		}
	}
	is2 := Where{Pred: func(r types.Row) bool { return r[0].I == 2 }}
	bump := func(r types.Row) types.Row { r[1] = types.NewInt(r[1].I + 100); return r }
	for round := 1; round <= 2; round++ {
		// Rows 2 and 5 live in the segment, row 8 in the buffer; the second
		// round finds all three in the buffer.
		n, err := tbl.UpdateWhere(is2, bump)
		if err != nil || n != 3 {
			t.Fatalf("round %d: UpdateWhere = %d, %v", round, n, err)
		}
		var got []int64
		for _, r := range tbl.LookupEqual(0, types.NewInt(2)) {
			got = append(got, r[1].I)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := []int64{2 + 100*int64(round), 5 + 100*int64(round), 8 + 100*int64(round)}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: rows with c0=2 hold %v, want %v", round, got, want)
		}
		if got := mustCount(t, tbl); got != 10 {
			t.Fatalf("round %d: NumRows = %d", round, got)
		}
	}
	if got := tbl.Stats.Moves.Load(); got != 2 {
		t.Fatalf("Moves = %d, want 2", got)
	}
	assertShadowEqual(t, tbl, log, nil)
}

func TestConcurrentInsertsUniqueKeys(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 64})
	const writers = 8
	const per = 100
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := tbl.Insert(urow(w*per+i, i, "c")); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := mustCount(t, tbl); got != writers*per {
		t.Fatalf("NumRows = %d, want %d", got, writers*per)
	}
}

func TestConcurrentUpsertSameKey(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{})
	tbl.Insert(urow(1, 0, "x"))
	const workers, iters = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, err := tbl.InsertBatch([]types.Row{urow(1, 1, "x")}, InsertOptions{
					OnDup:  DupUpdate,
					Update: func(old, in types.Row) types.Row { out := old.Clone(); out[1] = types.NewInt(old[1].I + 1); return out },
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(1)})
	if !ok || r[1].I != workers*iters {
		t.Fatalf("counter = %v, want %d", r, workers*iters)
	}
}

func TestConcurrentWritesWithBackgroundFlushAndMerge(t *testing.T) {
	schema := uniqSchema()
	tbl, _ := newTestTable(t, schema, Config{
		MaxSegmentRows: 32, FlushThreshold: 32, MergeFanout: 2,
		Background: true,
	})
	tbl.Start()
	defer tbl.Close()
	const writers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := w*per + i
				if err := tbl.Insert(urow(id, id, "bg")); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				if i%10 == 0 {
					// Point update through the unique key.
					tbl.UpdateWhere(Eq(0, types.NewInt(int64(id))), func(r types.Row) types.Row {
						r[1] = types.NewInt(r[1].I + 1000000)
						return r
					})
				}
			}
		}(w)
	}
	wg.Wait()
	if got := mustCount(t, tbl); got != writers*per {
		t.Fatalf("NumRows = %d, want %d", got, writers*per)
	}
	// Every row reachable and updated rows have the bump.
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			id := w*per + i
			r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(id))})
			if !ok {
				t.Fatalf("row %d lost", id)
			}
			want := int64(id)
			if i%10 == 0 {
				want += 1000000
			}
			if r[1].I != want {
				t.Fatalf("row %d = %d, want %d", id, r[1].I, want)
			}
		}
	}
}

func TestReplayReconstructsTable(t *testing.T) {
	schema := uniqSchema()
	tbl, log := newTestTable(t, schema, Config{MaxSegmentRows: 8, MergeFanout: 2})
	for i := 0; i < 30; i++ {
		tbl.Insert(urow(i, i, fmt.Sprintf("t%d", i%3)))
		if i%8 == 7 {
			tbl.Flush()
		}
	}
	tbl.Merge()
	tbl.DeleteWhere(Eq(2, types.NewString("t0")))
	tbl.UpdateWhere(Eq(2, types.NewString("t1")), func(r types.Row) types.Row {
		r[1] = types.NewInt(-1)
		return r
	})

	// Replay the full log into a fresh table.
	assertShadowEqual(t, tbl, log, nil)
}

func assertSameContents(t *testing.T, a, b *Table) {
	t.Helper()
	for _, tbl := range []*Table{a, b} {
		// rowCounts' raw RowAt reads bypass the scan layer's
		// demand-hydration gate, so force full hydration first (no-op on
		// never-restored tables).
		if err := tbl.WaitHydrated(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	da, db := rowCounts(t, a), rowCounts(t, b)
	if len(da) != len(db) {
		t.Fatalf("contents differ: %d vs %d distinct rows", len(da), len(db))
	}
	for k, v := range da {
		if db[k] != v {
			t.Fatalf("row %s: count %d vs %d", k, v, db[k])
		}
	}
}

// serializeAt serializes tbl's state at ts through a view held for the
// call.
func serializeAt(tbl *Table, ts uint64) []byte {
	v := tbl.SnapshotAt(ts)
	defer v.Release()
	return tbl.SerializeState(v)
}

func TestSnapshotStateRoundTrip(t *testing.T) {
	schema := uniqSchema()
	tbl, _ := newTestTable(t, schema, Config{MaxSegmentRows: 8})
	for i := 0; i < 20; i++ {
		tbl.Insert(urow(i, i, "s"))
		if i == 9 {
			tbl.Flush()
		}
	}
	ts := tbl.committer.ReadTS()
	state := serializeAt(tbl, ts)

	restored, err := NewTable("t", schema, Config{MaxSegmentRows: 8}, NewCommitter(), wal.NewLog(), tbl.files)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(state, ts); err != nil {
		t.Fatal(err)
	}
	assertSameContents(t, tbl, restored)
	// Restored table accepts new writes without key collisions.
	if err := restored.Insert(urow(100, 1, "post")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolationDuringMutation(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 8})
	for i := 0; i < 8; i++ {
		tbl.Insert(urow(i, 0, "x"))
	}
	tbl.Flush()
	view := tbl.Snapshot() // snapshot before the delete
	n, _ := tbl.DeleteWhere(All())
	if n != 8 {
		t.Fatalf("deleted %d", n)
	}
	// The old view still sees all rows.
	cnt := 0
	for _, m := range view.Segs {
		cnt += m.LiveRows()
	}
	view.ScanBuffer(func(types.Row) bool { cnt++; return true })
	if cnt != 8 {
		t.Fatalf("old snapshot sees %d rows, want 8", cnt)
	}
	if got := mustCount(t, tbl); got != 0 {
		t.Fatalf("latest snapshot sees %d rows", got)
	}
}
