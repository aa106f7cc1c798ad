package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"s2db/internal/codec"
	"s2db/internal/wal"
)

// FuzzRestoreState holds RestoreState to the decoder contract: a state
// comes back from blob storage inside a snapshot bundle, so hostile bytes
// are rejected with codec.ErrCorrupt, without panicking or allocating
// beyond 128 bytes per input byte plus 1 MiB. An accepted state re-encodes
// to bytes that decode and re-encode to themselves, and restores into an
// empty table without an error: decoding has already refused a repeated
// buffer key.
func FuzzRestoreState(f *testing.F) {
	_, state, _ := buildSegmentedTable(f, NewMemFiles())
	f.Add(state)
	f.Add(state[:len(state)-3])
	f.Add(encodeState(&mutation{}, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		schema := uniqSchema()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, rowID, err := decodeState(data, schema)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		enc := encodeState(m, rowID)
		again, againRowID, err := decodeState(enc, schema)
		if err != nil {
			t.Fatalf("re-decode of an accepted state: %v", err)
		}
		if !bytes.Equal(encodeState(again, againRowID), enc) {
			t.Fatal("unstable round trip")
		}
		tbl, err := NewTable("t", schema, Config{MaxSegmentRows: 8}, NewCommitter(), wal.NewLog(), NewMemFiles())
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		if err := tbl.RestoreState(data, 1); err != nil {
			t.Fatalf("restore of an accepted state: %v", err)
		}
	})
}
