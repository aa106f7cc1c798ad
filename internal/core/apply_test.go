package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"s2db/internal/types"
	"s2db/internal/wal"
)

// loggedRecords puts a table through every writer — inserts, flushes, a
// claim of a segment row that commits after a merge retired the segment,
// an upsert that claims a segment row, filtered and keyed updates and
// deletes, and a bulk load — and returns its log.
func loggedRecords(tb testing.TB) []wal.Record {
	tb.Helper()
	schema := uniqSchema()
	schema.SortKey = 0
	log := wal.NewLog()
	tbl, err := NewTable("t", schema, Config{MaxSegmentRows: 8, MergeFanout: 2}, NewCommitter(), log, NewMemFiles())
	if err != nil {
		tb.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 8; i++ {
			if err := tbl.Insert(urow(batch*8+i, i, "x")); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := tbl.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	claimThenCommit(tb, tbl, func() { tbl.Merge() }, 1)
	if err := tbl.Upsert(urow(9, -9, "y")); err != nil {
		tb.Fatal(err)
	}
	if _, err := tbl.UpdateWhere(Eq(2, types.NewString("x")), func(r types.Row) types.Row { r[1] = types.NewInt(7); return r }); err != nil {
		tb.Fatal(err)
	}
	if _, err := tbl.DeleteByUnique([]types.Value{types.NewInt(12)}); err != nil {
		tb.Fatal(err)
	}
	if _, err := tbl.DeleteWhere(Eq(0, types.NewInt(13))); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.BulkLoad([]types.Row{urow(100, 1, "b"), urow(101, 2, "b")}); err != nil {
		tb.Fatal(err)
	}
	recs, err := log.Records(0, log.Head())
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

// TestDecodeMutationRejectsHostileRecords: every logged record round-trips
// byte for byte, and truncated records, lengths and counts past the end and
// trailing bytes are errors rather than panics.
func TestDecodeMutationRejectsHostileRecords(t *testing.T) {
	for _, rec := range loggedRecords(t) {
		m, err := decodeMutation(rec.Data)
		if err != nil {
			t.Fatalf("LSN %d: %v", rec.LSN, err)
		}
		if got := m.appendSegDeletes(m.encodeHead()); !bytes.Equal(got, rec.Data) {
			t.Fatalf("LSN %d does not round-trip", rec.LSN)
		}
		for n := 0; n < len(rec.Data); n++ {
			if _, err := decodeMutation(rec.Data[:n]); err == nil {
				t.Fatalf("LSN %d truncated to %d bytes accepted", rec.LSN, n)
			}
		}
		if _, err := decodeMutation(append(append([]byte(nil), rec.Data...), 0)); err == nil {
			t.Fatalf("LSN %d with a trailing byte accepted", rec.LSN)
		}
	}
	// A table-name length of 2^63 turns negative as an int.
	huge := binary.AppendUvarint(nil, 1<<63)
	if _, err := decodeMutation(huge); err == nil {
		t.Fatal("name length 2^63 accepted")
	}
	if _, err := TableOfRecord(wal.Record{Data: huge}); err == nil {
		t.Fatal("TableOfRecord accepted name length 2^63")
	}
	if _, err := decodeMutation(hugeSegDeletes()); err == nil {
		t.Fatal("segment-delete count 2^40 accepted")
	}
}

// hugeSegDeletes is an empty mutation claiming 2^40 offsets for one segment.
func hugeSegDeletes() []byte {
	b := (&mutation{}).encodeHead()
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 7)
	return binary.AppendUvarint(b, 1<<40)
}

// FuzzDecodeMutation asserts that decodeMutation never panics, allocates at
// most O(len(data)), and that whatever it accepts re-encodes to a record
// that decodes to the same mutation (compared by its encoding, which is
// NaN-safe).
func FuzzDecodeMutation(f *testing.F) {
	for _, rec := range loggedRecords(f) {
		f.Add(rec.Data)
	}
	f.Add(binary.AppendUvarint(nil, 1<<63))
	f.Add(hugeSegDeletes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := decodeMutation(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := m.appendSegDeletes(m.encodeHead())
		again, err := decodeMutation(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted record failed: %v", err)
		}
		if !bytes.Equal(again.appendSegDeletes(again.encodeHead()), enc) {
			t.Fatal("unstable round trip")
		}
	})
}
