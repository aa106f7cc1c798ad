package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/types"
)

func TestUpdateByUniqueBufferAndSegment(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 8})
	for i := 0; i < 8; i++ {
		tbl.Insert(urow(i, 0, "x"))
	}
	tbl.Flush() // rows 0..7 now live in a segment
	tbl.Insert(urow(100, 0, "x"))

	// Buffer-resident row.
	ok, err := tbl.UpdateByUnique([]types.Value{types.NewInt(100)}, func(r types.Row) types.Row {
		r[1] = types.NewInt(1)
		return r
	})
	if err != nil || !ok {
		t.Fatalf("buffer update = %v, %v", ok, err)
	}
	// Segment-resident row: the update claims it from its segment (§4.2).
	moves := tbl.Stats.Moves.Load()
	ok, err = tbl.UpdateByUnique([]types.Value{types.NewInt(3)}, func(r types.Row) types.Row {
		r[1] = types.NewInt(33)
		return r
	})
	if err != nil || !ok {
		t.Fatalf("segment update = %v, %v", ok, err)
	}
	if tbl.Stats.Moves.Load() == moves {
		t.Fatal("segment update should move the row to the buffer")
	}
	r, _, _ := tbl.GetByUnique([]types.Value{types.NewInt(3)})
	if r[1].I != 33 {
		t.Fatalf("updated value = %d", r[1].I)
	}
	// Missing row.
	ok, err = tbl.UpdateByUnique([]types.Value{types.NewInt(999)}, func(r types.Row) types.Row { return r })
	if err != nil || ok {
		t.Fatalf("missing update = %v, %v", ok, err)
	}
	// Changing the unique key is rejected.
	_, err = tbl.UpdateByUnique([]types.Value{types.NewInt(3)}, func(r types.Row) types.Row {
		r[0] = types.NewInt(4)
		return r
	})
	if err == nil {
		t.Fatal("unique-key change accepted")
	}
}

func TestDeleteByUnique(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 8})
	for i := 0; i < 8; i++ {
		tbl.Insert(urow(i, i, "x"))
	}
	tbl.Flush()
	tbl.Insert(urow(50, 50, "x"))

	for _, id := range []int64{3, 50} { // segment row, buffer row
		ok, err := tbl.DeleteByUnique([]types.Value{types.NewInt(id)})
		if err != nil || !ok {
			t.Fatalf("delete %d = %v, %v", id, ok, err)
		}
		if _, found, _ := tbl.GetByUnique([]types.Value{types.NewInt(id)}); found {
			t.Fatalf("row %d still visible", id)
		}
	}
	// Idempotence: a second delete reports not-found.
	ok, err := tbl.DeleteByUnique([]types.Value{types.NewInt(3)})
	if err != nil || ok {
		t.Fatalf("double delete = %v, %v", ok, err)
	}
	if got := mustCount(t, tbl); got != 7 {
		t.Fatalf("NumRows = %d", got)
	}
}

// TestModelBasedRandomOps runs a random sequence of point operations
// against the unified table and an in-memory map model, interleaved with
// flushes and merges, and requires the visible contents to match exactly.
func TestModelBasedRandomOps(t *testing.T) {
	schema := uniqSchema()
	schema.SortKey = 1
	tbl, log := newTestTable(t, schema, Config{MaxSegmentRows: 16, MergeFanout: 2})
	model := map[int64]int64{} // id -> val
	rng := rand.New(rand.NewSource(99))

	const ops = 3000
	var mark *shadowMark
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			mark = markShadow(tbl, log)
		}
		id := int64(rng.Intn(200))
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // upsert
			val := rng.Int63n(1000)
			_, err := tbl.InsertBatch([]types.Row{urow(int(id), int(val), "m")}, InsertOptions{
				OnDup:  DupUpdate,
				Update: func(_, in types.Row) types.Row { return in },
			})
			if err != nil {
				t.Fatalf("op %d upsert: %v", op, err)
			}
			model[id] = val
		case 4, 5: // delete
			ok, err := tbl.DeleteByUnique([]types.Value{types.NewInt(id)})
			if err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			if _, exists := model[id]; exists != ok {
				t.Fatalf("op %d delete mismatch: model=%v table=%v", op, exists, ok)
			}
			delete(model, id)
		case 6, 7: // point read
			r, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(id)})
			if err != nil {
				t.Fatalf("op %d get: %v", op, err)
			}
			want, exists := model[id]
			if exists != ok {
				t.Fatalf("op %d get existence mismatch (id=%d): model=%v table=%v", op, id, exists, ok)
			}
			if ok && r[1].I != want {
				t.Fatalf("op %d get value mismatch: %d != %d", op, r[1].I, want)
			}
		case 8: // structural: flush
			if _, err := tbl.Flush(); err != nil {
				t.Fatalf("op %d flush: %v", op, err)
			}
		case 9: // structural: merge
			tbl.Merge()
		}
	}
	// Final full comparison.
	view := tbl.Snapshot()
	got := map[int64]int64{}
	view.ScanBuffer(func(r types.Row) bool { got[r[0].I] = r[1].I; return true })
	for _, m := range view.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			if !m.Deleted.Get(i) {
				r := m.Seg.RowAt(i)
				if _, dup := got[r[0].I]; dup {
					t.Fatalf("row %d visible in two places", r[0].I)
				}
				got[r[0].I] = r[1].I
			}
		}
	}
	if len(got) != len(model) {
		t.Fatalf("final row count %d, model %d", len(got), len(model))
	}
	for id, want := range model {
		if got[id] != want {
			t.Fatalf("row %d = %d, model %d", id, got[id], want)
		}
	}
	assertShadowEqual(t, tbl, log, nil)
	assertShadowEqual(t, tbl, log, mark)
}

func TestLookupEqualOnNonIndexedColumn(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 8})
	for i := 0; i < 16; i++ {
		tbl.Insert(urow(i, i%4, fmt.Sprintf("t%d", i%2)))
	}
	tbl.Flush()
	// Column 1 (val) has no index: zone-map-assisted scan path.
	rows := tbl.LookupEqual(1, types.NewInt(2))
	if len(rows) != 4 {
		t.Fatalf("LookupEqual(val=2) = %d rows", len(rows))
	}
}

// untilFlushed runs op on workers goroutines, each at least iters times
// and then on until a flush has completed since the workers started,
// failing the test when none completes within a generous deadline. It
// returns how many ops ran.
func untilFlushed(t *testing.T, tbl *Table, workers, iters int, op func() error) int64 {
	t.Helper()
	flushes := tbl.Stats.Flushes.Load()
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	var ran atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters || tbl.Stats.Flushes.Load() == flushes; i++ {
				if time.Now().After(deadline) {
					t.Errorf("worker %d: no flush completed beside %d ops: every commit at FlushThreshold 1 must wake the flusher", w, i)
					return
				}
				if err := op(); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				ran.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return ran.Load()
}

func TestUpsertCounterUnderAggressiveFlushing(t *testing.T) {
	// Regression for the flush-vs-upsert race: with the flusher constantly
	// moving rows into segments, concurrent counter upserts must still be
	// exactly-once.
	tbl, _ := newTestTable(t, uniqSchema(), Config{
		MaxSegmentRows: 4, FlushThreshold: 1, MergeFanout: 2, Background: true,
	})
	tbl.Start()
	defer tbl.Close()
	const keys = 3
	for k := 0; k < keys; k++ {
		if err := tbl.Insert(urow(k, 0, "c")); err != nil {
			t.Fatal(err)
		}
	}
	var next atomic.Int64
	upserts := untilFlushed(t, tbl, 4, 150, func() error {
		_, err := tbl.InsertBatch([]types.Row{urow(int(next.Add(1))%keys, 1, "c")}, InsertOptions{
			OnDup: DupUpdate,
			Update: func(old, in types.Row) types.Row {
				out := old.Clone()
				out[1] = types.NewInt(old[1].I + 1)
				return out
			},
		})
		return err
	})
	var total int64
	for k := 0; k < keys; k++ {
		r, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(int64(k))})
		if err != nil || !ok {
			t.Fatalf("key %d lost: %v", k, err)
		}
		total += r[1].I
	}
	if total != upserts {
		t.Fatalf("counter total = %d, want %d (lost or doubled updates)", total, upserts)
	}
	if got := mustCount(t, tbl); got != keys {
		t.Fatalf("NumRows = %d, want %d (duplicate rows?)", got, keys)
	}
}

func TestPointUpdateUnderAggressiveFlushing(t *testing.T) {
	// Same regression through UpdateByUnique.
	tbl, _ := newTestTable(t, uniqSchema(), Config{
		MaxSegmentRows: 4, FlushThreshold: 1, MergeFanout: 2, Background: true,
	})
	tbl.Start()
	defer tbl.Close()
	if err := tbl.Insert(urow(0, 0, "c")); err != nil {
		t.Fatal(err)
	}
	var applied atomic.Int64
	updates := untilFlushed(t, tbl, 4, 150, func() error {
		ok, err := tbl.UpdateByUnique([]types.Value{types.NewInt(0)}, func(r types.Row) types.Row {
			r[1] = types.NewInt(r[1].I + 1)
			return r
		})
		if ok {
			applied.Add(1)
		}
		return err
	})
	r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(0)})
	if !ok {
		t.Fatal("row lost")
	}
	if r[1].I != applied.Load() {
		t.Fatalf("counter = %d, applied = %d", r[1].I, applied.Load())
	}
	if applied.Load() != updates {
		t.Fatalf("applied = %d, want %d (row reported missing under flush race)", applied.Load(), updates)
	}
}

// TestWhereOnLeadingKeyColumnSeeks runs UpdateWhere/DeleteWhere pinned on
// the leading column of a composite unique key, with matches both in the
// buffer and in segments (which the move brings back to the buffer), and
// checks them against the same statements expressed as a bare predicate,
// which walks the whole buffer.
func TestWhereOnLeadingKeyColumnSeeks(t *testing.T) {
	schema := func() *types.Schema {
		s := types.NewSchema(
			types.Column{Name: "a", Type: types.Int64},
			types.Column{Name: "b", Type: types.String},
			types.Column{Name: "v", Type: types.Int64},
		)
		s.UniqueKey = []int{0, 1}
		return s
	}
	load := func() *Table {
		tbl, _ := newTestTable(t, schema(), Config{MaxSegmentRows: 8})
		for i := 0; i < 60; i++ {
			r := types.Row{types.NewInt(int64(i%6 - 3)), types.NewString(fmt.Sprintf("b\x00%d", i)), types.NewInt(int64(i))}
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
			if i == 29 {
				if _, err := tbl.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tbl
	}
	bump := func(r types.Row) types.Row { r[2] = types.NewInt(r[2].I + 1000); return r }
	pinned := Eq(0, types.NewInt(-2))
	bare := Where{Pred: func(r types.Row) bool { return r[0].I == -2 }}

	seek, walk := load(), load()
	n1, err := seek.UpdateWhere(pinned, bump)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := walk.UpdateWhere(bare, bump)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 10 || n2 != 10 {
		t.Fatalf("updated %d (seek) and %d (walk), want 10", n1, n2)
	}
	if d1, err := seek.DeleteWhere(Eq(0, types.NewInt(1))); err != nil || d1 != 10 {
		t.Fatalf("seek delete = %d, %v", d1, err)
	}
	if d2, err := walk.DeleteWhere(Where{Pred: func(r types.Row) bool { return r[0].I == 1 }}); err != nil || d2 != 10 {
		t.Fatalf("walk delete = %d, %v", d2, err)
	}
	contents := func(tbl *Table) []string {
		var out []string
		view := tbl.Snapshot()
		view.ScanBuffer(func(r types.Row) bool { out = append(out, fmt.Sprint(r)); return true })
		for _, m := range view.Segs {
			for i := 0; i < m.Seg.NumRows; i++ {
				if !m.Deleted.Get(i) {
					out = append(out, fmt.Sprint(m.Seg.RowAt(i)))
				}
			}
		}
		sort.Strings(out)
		return out
	}
	if got, want := contents(seek), contents(walk); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("seek and walk disagree:\n%v\n%v", got, want)
	}
}

// TestOneRecordPerWriteStatement: every writer that reaches a segment row
// claims it inside its own transaction (§4.2), so the statement appends
// exactly one log record, on a unique-key table and on a hidden-row-id
// table alike, and a shadow replayed from the log equals the primary.
func TestOneRecordPerWriteStatement(t *testing.T) {
	key3 := []types.Value{types.NewInt(3)}
	is3 := Where{Pred: func(r types.Row) bool { return r[0].I == 3 }}
	bump := func(r types.Row) types.Row { r[1] = types.NewInt(r[1].I + 100); return r }
	type writer struct {
		name   string
		hidden bool
		write  func(tbl *Table) (int, error)
		rows   int // live rows after the write, of 8
	}
	one := func(ok bool, err error) (int, error) {
		if ok {
			return 1, err
		}
		return 0, err
	}
	insert := func(opts InsertOptions) func(*Table) (int, error) {
		return func(tbl *Table) (int, error) {
			res, err := tbl.InsertBatch([]types.Row{urow(3, 300, "n")}, opts)
			return res.Replaced + res.Updated, err
		}
	}
	writers := []writer{
		{"UpdateWhere", false, func(tbl *Table) (int, error) { return tbl.UpdateWhere(is3, bump) }, 8},
		{"UpdateWhere/indexed", false, func(tbl *Table) (int, error) { return tbl.UpdateWhere(Eq(0, key3[0]), bump) }, 8},
		{"DeleteWhere", false, func(tbl *Table) (int, error) { return tbl.DeleteWhere(is3) }, 7},
		{"DupReplace", false, insert(InsertOptions{OnDup: DupReplace}), 8},
		{"DupUpdate", false, insert(InsertOptions{OnDup: DupUpdate, Update: func(old, _ types.Row) types.Row { return bump(old.Clone()) }}), 8},
		{"UpdateByUnique", false, func(tbl *Table) (int, error) { return one(tbl.UpdateByUnique(key3, bump)) }, 8},
		{"DeleteByUnique", false, func(tbl *Table) (int, error) { return one(tbl.DeleteByUnique(key3)) }, 7},
		{"UpdateWhere", true, func(tbl *Table) (int, error) { return tbl.UpdateWhere(is3, bump) }, 8},
		{"DeleteWhere", true, func(tbl *Table) (int, error) { return tbl.DeleteWhere(is3) }, 7},
	}
	for _, w := range writers {
		kind := "unique"
		if w.hidden {
			kind = "hidden"
		}
		t.Run(kind+"/"+w.name, func(t *testing.T) {
			schema := uniqSchema()
			if w.hidden {
				schema = plainSchema()
			}
			tbl, log := newTestTable(t, schema, Config{MaxSegmentRows: 8})
			for i := 0; i < 8; i++ {
				r := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))}
				if !w.hidden {
					r = urow(i, i, "x")
				}
				if err := tbl.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
			head := log.Head()
			n, err := w.write(tbl)
			if err != nil || n != 1 {
				t.Fatalf("write = %d, %v; want 1 row", n, err)
			}
			if got := log.Head() - head; got != 1 {
				t.Fatalf("the write appended %d log records, want 1", got)
			}
			if got := tbl.Stats.Moves.Load(); got != 1 {
				t.Fatalf("Moves = %d, want 1", got)
			}
			if got := mustCount(t, tbl); got != w.rows {
				t.Fatalf("%d live rows, want %d", got, w.rows)
			}
			assertShadowEqual(t, tbl, log, nil)
		})
	}
}
