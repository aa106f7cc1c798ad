package core

import (
	"context"
	"strings"
	"testing"

	"s2db/internal/types"
	"s2db/internal/wal"
)

// TestFigure1Walkthrough replays the paper's Figure 1 step by step and
// checks the durable structures it illustrates:
//
//	(a) inserting rows 1,2,3 in two transactions → log records, rows in
//	    the in-memory rowstore;
//	(b) flushing converts rows 1,2,3 into segment 1 — the data file is
//	    named after the log page it was created at, and the same
//	    transaction removes the rows from the rowstore;
//	(c) deleting row 2 only logs a metadata change (the deleted bit
//	    vector); the data file itself is immutable.
func TestFigure1Walkthrough(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.String},
	)
	schema.UniqueKey = []int{0}
	log := wal.NewLog()
	files := NewMemFiles()
	tbl, err := NewTable("t", schema, Config{MaxSegmentRows: 16}, NewCommitter(), log, files)
	if err != nil {
		t.Fatal(err)
	}

	// (a) Two insert transactions.
	if _, err := tbl.InsertBatch([]types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("b")},
	}, InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(types.Row{types.NewInt(3), types.NewString("c")}); err != nil {
		t.Fatal(err)
	}
	recs, _ := log.Records(0, log.Head())
	if len(recs) != 2 || recs[0].Kind != wal.KindInsert || recs[1].Kind != wal.KindInsert {
		t.Fatalf("step (a): log = %+v, want two insert records", recs)
	}
	if tbl.BufferLen() != 3 || tbl.SegmentCount() != 0 {
		t.Fatalf("step (a): buffer=%d segments=%d", tbl.BufferLen(), tbl.SegmentCount())
	}
	flushLP := log.Head() // the log page the flush will be named after

	// (b) Flush: rows become segment 1; rowstore emptied in the same
	// transaction; the data file logically exists at its log position.
	n, err := tbl.Flush()
	if err != nil || n != 3 {
		t.Fatalf("step (b): flush = %d, %v", n, err)
	}
	if tbl.BufferLen() != 0 || tbl.SegmentCount() != 1 {
		t.Fatalf("step (b): buffer=%d segments=%d", tbl.BufferLen(), tbl.SegmentCount())
	}
	view := tbl.Snapshot()
	fileName := view.Segs[0].File
	if !strings.Contains(fileName, "lp") {
		t.Fatalf("step (b): data file %q not named after a log page", fileName)
	}
	wantLP := []byte(strings.Split(fileName, "lp")[1])
	_ = wantLP
	if !strings.HasSuffix(fileName, formatLP(flushLP)) {
		t.Fatalf("step (b): file %q should carry log page %d", fileName, flushLP)
	}
	payloadBefore, err := files.LoadFile(context.Background(), fileName)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ = log.Records(0, log.Head())
	if recs[len(recs)-1].Kind != wal.KindFlush {
		t.Fatalf("step (b): last record kind = %v, want flush", recs[len(recs)-1].Kind)
	}

	// (c) Delete row 2: a metadata-only change.
	headBefore := log.Head()
	deleted, err := tbl.DeleteByUnique([]types.Value{types.NewInt(2)})
	if err != nil || !deleted {
		t.Fatalf("step (c): delete = %v, %v", deleted, err)
	}
	// The data file is byte-identical (immutable, §3).
	payloadAfter, _ := files.LoadFile(context.Background(), fileName)
	if string(payloadBefore) != string(payloadAfter) {
		t.Fatal("step (c): data file mutated by a delete")
	}
	// The change is visible through the segment metadata's deleted bits.
	view = tbl.Snapshot()
	if view.Segs[0].Deleted.Count() != 1 || !view.Segs[0].Deleted.Get(deletedOffset(view, 2)) {
		t.Fatalf("step (c): deleted bits = %v", view.Segs[0].Deleted)
	}
	// And it was logged as (at least one) new record without any new
	// segment payload.
	recs, _ = log.Records(headBefore, log.Head())
	if len(recs) == 0 {
		t.Fatal("step (c): delete not logged")
	}
	for _, rec := range recs {
		m, err := decodeMutation(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.NewSegs) != 0 {
			t.Fatal("step (c): delete should not write segment payloads")
		}
	}
	// Logical contents: rows 1 and 3 remain.
	if got := view.NumRows(); got != 2 {
		t.Fatalf("step (c): %d live rows, want 2", got)
	}
}

// formatLP matches the data-file naming convention in maint.go.
func formatLP(lp uint64) string {
	const digits = "0123456789"
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = digits[lp%10]
		lp /= 10
	}
	return "lp" + string(out)
}

// deletedOffset finds the row offset of id within the first segment.
func deletedOffset(v *View, id int64) int {
	seg := v.Segs[0].Seg
	for i := 0; i < seg.NumRows; i++ {
		if seg.ValueAt(i, 0).I == id {
			return i
		}
	}
	return -1
}
