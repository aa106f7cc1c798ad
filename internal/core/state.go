package core

import (
	"encoding/binary"
	"fmt"

	"s2db/internal/bitmap"
	"s2db/internal/colstore"
	"s2db/internal/types"
)

// SerializeState captures the table's state at ts: the buffer rows plus the
// segment manifest (file names, runs, deleted bits). Segment payloads are
// not embedded — they live as immutable data files in the FileStore/blob
// store — which matches the paper's snapshot design ("snapshots of rowstore
// data", §3.1: column data files are already durable on their own).
func (t *Table) SerializeState(ts uint64) []byte {
	var buf []byte
	// Buffer rows.
	var n uint64
	lenPos := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	t.buffer.Scan(nil, nil, ts, func(k []byte, r types.Row) bool {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = types.EncodeRow(buf, r)
		n++
		return true
	})
	binary.LittleEndian.PutUint64(buf[lenPos:], n)
	// Segment manifest at ts.
	view := t.SnapshotAt(ts)
	buf = binary.AppendUvarint(buf, uint64(len(view.Segs)))
	for _, m := range view.Segs {
		buf = binary.AppendUvarint(buf, m.Seg.ID)
		buf = binary.AppendUvarint(buf, uint64(m.Seg.NumRows))
		buf = binary.AppendUvarint(buf, uint64(len(m.File)))
		buf = append(buf, m.File...)
		buf = binary.AppendVarint(buf, int64(m.Run))
		buf = m.Deleted.AppendBinary(buf)
	}
	buf = binary.AppendUvarint(buf, t.rowID.Load())
	return buf
}

// RestoreState loads a serialized state into an empty table at timestamp
// ts. Segments install as metadata-only stubs straight from the manifest —
// the call returns in O(manifest) — and the hydration worker pool fetches
// payloads from the FileStore (which pulls from blob storage on a replica
// or during PITR) in the background, readahead in view order, with scans
// demand-fetching ahead of it. A restore that fails installs nothing.
func (t *Table) RestoreState(data []byte, ts uint64) error {
	if len(data) < 8 {
		return fmt.Errorf("restore %s: truncated state", t.name)
	}
	n := binary.LittleEndian.Uint64(data)
	p := 8
	tx := t.buffer.Begin(0)
	for i := uint64(0); i < n; i++ {
		kl, k := binary.Uvarint(data[p:])
		if k <= 0 || kl > uint64(len(data)-p-k) {
			tx.Abort()
			return fmt.Errorf("restore %s: bad buffer key", t.name)
		}
		key := append([]byte(nil), data[p+k:p+k+int(kl)]...)
		p += k + int(kl)
		row, used, err := types.DecodeRow(data[p:])
		if err != nil {
			tx.Abort()
			return fmt.Errorf("restore %s: %w", t.name, err)
		}
		p += used
		if _, err := tx.Insert(key, row); err != nil {
			tx.Abort()
			return err
		}
		t.noteRowID(key)
	}
	ns, k := binary.Uvarint(data[p:])
	if k <= 0 {
		tx.Abort()
		return fmt.Errorf("restore %s: bad segment count", t.name)
	}
	p += k
	// The whole manifest parses before anything installs: a truncated or
	// corrupt entry anywhere aborts the restore with zero segments (stub or
	// otherwise) left behind.
	m := &mutation{}
	for i := uint64(0); i < ns; i++ {
		id, k := binary.Uvarint(data[p:])
		if k <= 0 {
			tx.Abort()
			return fmt.Errorf("restore %s: bad segment id", t.name)
		}
		p += k
		nr, k := binary.Uvarint(data[p:])
		if k <= 0 {
			tx.Abort()
			return fmt.Errorf("restore %s: bad segment row count", t.name)
		}
		p += k
		fl, k := binary.Uvarint(data[p:])
		if k <= 0 || fl > uint64(len(data)-p-k) {
			tx.Abort()
			return fmt.Errorf("restore %s: bad file name", t.name)
		}
		file := string(data[p+k : p+k+int(fl)])
		p += k + int(fl)
		run, k := binary.Varint(data[p:])
		if k <= 0 {
			tx.Abort()
			return fmt.Errorf("restore %s: bad run", t.name)
		}
		p += k
		del, used, err := bitmap.Decode(data[p:])
		if err != nil {
			tx.Abort()
			return fmt.Errorf("restore %s: %w", t.name, err)
		}
		p += used
		m.NewSegs = append(m.NewSegs, segInstall{File: file, Run: int(run), seg: colstore.NewStub(id, int(nr), t.schema), deleted: del})
	}
	if rid, k := binary.Uvarint(data[p:]); k > 0 {
		if rid > t.rowID.Load() {
			t.rowID.Store(rid)
		}
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
