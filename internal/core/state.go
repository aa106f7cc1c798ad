package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"s2db/internal/bitmap"
	"s2db/internal/codec"
	"s2db/internal/colstore"
	"s2db/internal/types"
)

// SerializeState captures the table's state at ts: the buffer rows plus the
// segment manifest (file names, runs, deleted bits). Segment payloads are
// not embedded — they live as immutable data files in the FileStore/blob
// store — which matches the paper's snapshot design ("snapshots of rowstore
// data", §3.1: column data files are already durable on their own).
func (t *Table) SerializeState(ts uint64) []byte {
	var m mutation
	t.buffer.Scan(nil, nil, ts, func(k []byte, r types.Row) bool {
		m.Inserts = append(m.Inserts, kv{Key: k, Row: r})
		return true
	})
	for _, s := range t.SnapshotAt(ts).Segs {
		m.NewSegs = append(m.NewSegs, segInstall{File: s.File, Run: s.Run, seg: s.Seg, deleted: s.Deleted})
	}
	return encodeState(&m, t.rowID.Load())
}

// encodeState serializes a table state: its buffer rows as m.Inserts, its
// segment manifest as m.NewSegs — segments with their deleted bits — and
// the hidden row-id allocator's position.
func encodeState(m *mutation, rowID uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(m.Inserts)))
	for _, e := range m.Inserts {
		buf = codec.AppendBytes(buf, e.Key)
		buf = types.EncodeRow(buf, e.Row)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.NewSegs)))
	for _, s := range m.NewSegs {
		buf = binary.AppendUvarint(buf, s.seg.ID)
		buf = binary.AppendUvarint(buf, uint64(s.seg.NumRows))
		buf = codec.AppendBytes(buf, s.File)
		buf = binary.AppendVarint(buf, int64(s.Run))
		buf = s.deleted.AppendBinary(buf)
	}
	return binary.AppendUvarint(buf, rowID)
}

// decodeState parses a state written by encodeState, whole, before
// anything installs; its segments are metadata-only stubs. Every buffer
// row fits the schema, and every stub serves its rows: at most
// math.MaxInt32 of them, with deleted bits of exactly that length.
func decodeState(data []byte, schema *types.Schema) (m *mutation, rowID uint64, err error) {
	r := codec.NewReader(data)
	m = &mutation{}
	// A buffer row takes at least a key length and a row arity; a manifest
	// entry an id, a row count, a name length, a run and a bitmap length.
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		key, row := bytes.Clone(r.Field()), types.DecodeRow(r)
		if row != nil {
			if err := schema.CheckRow(row); err != nil {
				r.Fail("buffer row: %v", err)
			}
		}
		m.Inserts = append(m.Inserts, kv{Key: key, Row: row})
	}
	for i, n := 0, r.Count(5); i < n && r.Err() == nil; i++ {
		id, rows := r.Uvarint(), r.Uvarint()
		file, run := string(r.Field()), r.Varint()
		if rows > math.MaxInt32 {
			r.Fail("segment %d claims %d rows", id, rows)
		}
		del := bitmap.Decode(r)
		if del != nil && uint64(del.Len()) != rows {
			r.Fail("segment %d has %d deleted bits for %d rows", id, del.Len(), rows)
		}
		m.NewSegs = append(m.NewSegs, segInstall{File: file, Run: int(run), seg: colstore.NewStub(id, int(rows), schema), deleted: del})
	}
	rowID = r.Uvarint()
	if err := r.Done(); err != nil {
		return nil, 0, err
	}
	return m, rowID, nil
}

// RestoreState loads a serialized state into an empty table at timestamp
// ts. Segments install as metadata-only stubs straight from the manifest —
// the call returns in O(manifest) — and the hydration worker pool fetches
// payloads from the FileStore (which pulls from blob storage on a replica
// or during PITR) in the background, readahead in view order, with scans
// demand-fetching ahead of it. A restore that fails installs nothing.
func (t *Table) RestoreState(data []byte, ts uint64) error {
	m, rowID, err := decodeState(data, t.schema)
	if err != nil {
		return fmt.Errorf("restore %s: %w", t.name, err)
	}
	tx := t.buffer.Begin(0)
	for _, e := range m.Inserts {
		if _, err := tx.Insert(e.Key, e.Row); err != nil {
			tx.Abort()
			return err
		}
		t.noteRowID(e.Key)
	}
	if rowID > t.rowID.Load() {
		t.rowID.Store(rowID)
	}
	// Install metadata-only stubs — the restore returns in O(manifest) —
	// and let the hydrator's readahead pull payloads in view order behind
	// it. Scans that outrun the readahead demand-fetch the segment they
	// need and block only on it.
	t.committer.ReplayAt(ts, func() { t.apply(ts, tx, m) })
	if len(m.NewSegs) > 0 {
		h := t.hydrator()
		view := t.SnapshotAt(ts)
		for _, m := range view.Segs {
			h.prefetch(m)
		}
	}
	return nil
}
