package core

import (
	"errors"
	"fmt"

	"s2db/internal/colstore"
	"s2db/internal/index"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// DupPolicy selects the unique-key conflict behaviour of §4.1.2.
type DupPolicy uint8

const (
	// DupError reports ErrDuplicateKey (the default).
	DupError DupPolicy = iota
	// DupSkip drops conflicting rows (SKIP DUPLICATE KEY ERRORS).
	DupSkip
	// DupReplace deletes the conflicting row and inserts the new one
	// (REPLACE).
	DupReplace
	// DupUpdate rewrites the conflicting row via the batch's update
	// callback (ON DUPLICATE KEY UPDATE).
	DupUpdate
)

// ErrDuplicateKey is returned by inserts violating a unique key under
// DupError.
var ErrDuplicateKey = errors.New("core: duplicate unique key")

// ErrNoUniqueKey is returned when a unique-key operation targets a table
// without one.
var ErrNoUniqueKey = errors.New("core: table has no unique key")

// InsertOptions tunes a batch insert.
type InsertOptions struct {
	OnDup DupPolicy
	// Update merges an incoming row into an existing one under DupUpdate.
	// nil means "take the incoming row".
	Update func(existing, incoming types.Row) types.Row
}

// InsertResult reports what a batch insert did.
type InsertResult struct {
	Inserted, Skipped, Replaced, Updated int
	// LSN is the log record's sequence number; the cluster layer waits on
	// it for replication durability.
	LSN uint64
	// CommitTS is the transaction's publish timestamp.
	CommitTS uint64
}

// Insert adds one row with default options.
func (t *Table) Insert(row types.Row) error {
	_, err := t.InsertBatch([]types.Row{row}, InsertOptions{})
	return err
}

// Upsert adds one row, updating the existing row on unique-key conflict.
func (t *Table) Upsert(row types.Row) error {
	_, err := t.InsertBatch([]types.Row{row}, InsertOptions{OnDup: DupUpdate})
	return err
}

// InsertBatch ingests rows with unique-key enforcement (§4.1.2): it locks
// every distinct unique key of the batch in the writers' one lock step
// (lockTargets), which finds each key's live row in the buffer or through
// the secondary index, applies the configured conflict policy row by row
// in batch order, and commits buffer writes plus any deleted-bit updates
// as one transaction.
func (t *Table) InsertBatch(rows []types.Row, opts InsertOptions) (InsertResult, error) {
	var res InsertResult
	for _, r := range rows {
		if err := t.schema.CheckRow(r); err != nil {
			return res, err
		}
	}
	if len(t.schema.UniqueKey) == 0 {
		// No unique key: straight buffer inserts.
		tx, done := t.beginWrite()
		defer done()
		m := &mutation{}
		for _, r := range rows {
			key := t.bufferKey(r)
			if _, err := tx.Insert(key, r); err != nil {
				tx.Abort()
				return res, fmt.Errorf("insert %s: %w", t.name, err)
			}
			m.Inserts = append(m.Inserts, kv{Key: key, Row: r})
		}
		res.CommitTS, res.LSN = t.commit(wal.KindInsert, tx, m)
		res.Inserted = len(rows)
		t.Stats.Inserts.Add(int64(len(rows)))
		return res, nil
	}

	tgs, slot, err := t.uniqueKeys(rows, opts.OnDup != DupError)
	if err != nil {
		return res, fmt.Errorf("insert %s: %w", t.name, err)
	}
	// Duplicate detection probes the secondary index, which only covers
	// hydrated segments — block until a lazily-restored table is fully
	// resident (one atomic load once it is).
	if err := t.ensureProbeReady(); err != nil {
		return res, fmt.Errorf("insert %s: %w", t.name, err)
	}

	// The key-set lock, shared to the commit: no bulk load checks meanwhile.
	t.keyMu.RLock()
	defer t.keyMu.RUnlock()
	tx, done := t.beginWrite()
	defer done()
	locked, err := t.lockTargets(tx, tgs)
	if err != nil {
		tx.Abort()
		return res, fmt.Errorf("insert %s: lock: %w", t.name, err)
	}
	m := &mutation{}
	for i, r := range rows {
		l := &locked[slot[i]]
		nr := r
		switch {
		case !l.ok:
			if _, err := tx.Insert(l.tg.key, r); err != nil {
				tx.Abort()
				return res, err
			}
			m.Inserts = append(m.Inserts, kv{Key: l.tg.key, Row: r})
			res.Inserted++
		case opts.OnDup == DupError:
			tx.Abort()
			t.Stats.DupConflicts.Add(1)
			return res, ErrDuplicateKey
		case opts.OnDup == DupSkip:
			res.Skipped++
			continue
		default:
			if opts.OnDup == DupUpdate && opts.Update != nil {
				nr = opts.Update(l.cur, r)
			}
			if err := t.putRow(tx, m, l.tg, nr); err != nil {
				tx.Abort()
				return res, fmt.Errorf("insert %s: %w", t.name, err)
			}
			if opts.OnDup == DupReplace {
				res.Replaced++
			} else {
				res.Updated++
			}
		}
		// A later row with the same key finds this one in the buffer.
		*l = lockedRow{tg: target{key: l.tg.key}, cur: nr, ok: true}
	}
	if len(m.Inserts) == 0 {
		tx.Abort()
		return res, nil
	}
	res.CommitTS, res.LSN = t.commit(wal.KindInsert, tx, m)
	t.Stats.Inserts.Add(int64(res.Inserted))
	t.Stats.Updates.Add(int64(res.Updated + res.Replaced))
	return res, nil
}

// uniqueKeys derives the batch's distinct unique keys, the targets its
// writer locks or checks; slot maps each row to its key's. It refuses a
// row with a NULL key column and, unless dupOK, a key the batch repeats.
func (t *Table) uniqueKeys(rows []types.Row, dupOK bool) (tgs []target, slot []int, err error) {
	uk := t.schema.UniqueKey
	slot = make([]int, len(rows))
	first := make(map[string]int, len(rows))
	tgs = make([]target, 0, len(rows))
	for i, r := range rows {
		vs := make([]types.Value, len(uk))
		for j, c := range uk {
			if r[c].IsNull {
				return nil, nil, fmt.Errorf("unique key column %q is null", t.schema.Columns[c].Name)
			}
			vs[j] = r[c]
		}
		key := types.EncodeKey(nil, vs...)
		s, seen := first[string(key)]
		if !seen {
			s = len(tgs)
			first[string(key)] = s
			tgs = append(tgs, target{key: key, vals: vs})
		} else if !dupOK {
			t.Stats.DupConflicts.Add(1)
			return nil, nil, fmt.Errorf("%w: within batch", ErrDuplicateKey)
		}
		slot[i] = s
	}
	return tgs, slot, nil
}

// liveByKey returns the location of the live segment copy of the row with
// unique-key values vals, and the view it is live in. A merge that commits
// after view was taken retires its inputs from the index while view still
// holds them, so a miss on a view holding a retired segment retries on a
// fresh snapshot, which is then the view returned. The caller releases
// that view as well as its own.
func (t *Table) liveByKey(view *View, vals []types.Value) (v *View, seg uint64, off int32, ok bool) {
	v = view
	for {
		matches, probes := t.idx.LookupTuple(t.schema.UniqueKey, vals)
		t.Stats.IndexProbes.Add(int64(probes))
		for _, m := range matches {
			if off, live := t.liveMatch(v, m); live {
				return v, m.SegID, off, true
			}
		}
		if !t.holdsRetired(v) {
			return v, 0, 0, false
		}
		if v != view {
			v.Release()
		}
		v = t.snapshotSettled()
	}
}

// holdsRetired reports whether a merge has retired a segment the view
// holds. dropSegment marks the entry before it removes the index entries,
// so a probe that missed them sees the mark.
func (t *Table) holdsRetired(view *View) bool {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	for _, m := range view.Segs {
		if e := t.segs[m.Seg.ID]; e == nil || e.dropTS.Load() != 0 {
			return true
		}
	}
	return false
}

// segMeta returns the view's metadata of segment id, nil when the view
// does not hold the segment.
func (v *View) segMeta(id uint64) *colstore.Meta {
	for _, m := range v.Segs {
		if m.Seg.ID == id {
			return m
		}
	}
	return nil
}

// liveMatch returns the first row offset of an index match that is visible
// in the view (not deleted, segment present).
func (t *Table) liveMatch(view *View, m index.Match) (int32, bool) {
	if meta := view.segMeta(m.SegID); meta != nil {
		for _, off := range m.Rows {
			if !meta.Deleted.Get(int(off)) {
				return off, true
			}
		}
	}
	return 0, false
}

// BulkLoad ingests rows directly into columnstore segments, bypassing the
// buffer — the batch-load path that keeps data "only in highly compressed
// columnstore format" (§7's contrast with TiDB). It builds and saves its
// segments before it takes a lock. Then, holding the key-set lock
// exclusive and structMu, it refuses a NULL, repeated or live unique key
// as InsertBatch does under DupError, and installs the segments one commit
// each, so readers may see a load one segment at a time. A refused or
// failed load installs nothing and removes the files it saved. It returns
// the sequence number of its last log record.
func (t *Table) BulkLoad(rows []types.Row) (lsn uint64, err error) {
	for _, r := range rows {
		if err := t.schema.CheckRow(r); err != nil {
			return 0, err
		}
	}
	if len(rows) == 0 {
		return 0, nil
	}
	var tgs []target
	if len(t.schema.UniqueKey) > 0 {
		if tgs, _, err = t.uniqueKeys(rows, false); err == nil {
			// See InsertBatch: index probes need every segment hydrated.
			err = t.ensureProbeReady()
		}
		if err != nil {
			return 0, fmt.Errorf("bulk load %s: %w", t.name, err)
		}
	}
	var segs []segInstall
	defer func() {
		for i := 0; err != nil && i < len(segs); i++ {
			t.files.RemoveFile(segs[i].File) //nolint:errcheck // best-effort cleanup on abort
		}
	}()
	for start := 0; start < len(rows); start += t.cfg.MaxSegmentRows {
		b := colstore.NewBuilder(t.schema)
		for _, r := range rows[start:min(start+t.cfg.MaxSegmentRows, len(rows))] {
			b.Add(r)
		}
		seg := b.Build(t.nextSeg.Add(1) - 1)
		file := fmt.Sprintf("%s/seg-%08d-lp%08d", t.name, seg.ID, t.log.Head())
		segBytes := seg.Encode()
		if err := t.files.SaveFile(file, segBytes); err != nil {
			return 0, fmt.Errorf("bulk load %s: %w", t.name, err)
		}
		segs = append(segs, segInstall{File: file, Run: int(t.nextRun.Add(1) - 1), SegBytes: segBytes, seg: seg})
	}
	t.keyMu.Lock()
	defer t.keyMu.Unlock()
	t.structMu.Lock()
	defer t.structMu.Unlock()
	if err := t.checkFreshKeys(tgs); err != nil {
		t.Stats.DupConflicts.Add(1)
		return 0, fmt.Errorf("bulk load %s: %w", t.name, err)
	}
	for _, s := range segs {
		_, lsn = t.commit(wal.KindFlush, nil, &mutation{NewSegs: []segInstall{s}})
	}
	t.Stats.Inserts.Add(int64(len(rows)))
	return lsn, nil
}

// checkFreshKeys reports ErrDuplicateKey when a key of tgs is live. Its
// caller holds the key-set lock exclusive, so no insert is in flight, and
// structMu, so no flush or merge installs during the probe: one view's
// buffer and index entries answer, and a miss needs no retry (liveByKey).
func (t *Table) checkFreshKeys(tgs []target) error {
	view := t.Snapshot()
	defer view.Release()
	for _, tg := range tgs {
		if _, ok := t.buffer.Get(tg.key, view.TS); ok {
			return ErrDuplicateKey
		}
		matches, probes := t.idx.LookupTuple(t.schema.UniqueKey, tg.vals)
		t.Stats.IndexProbes.Add(int64(probes))
		for _, m := range matches {
			if _, live := t.liveMatch(view, m); live {
				return ErrDuplicateKey
			}
		}
	}
	return nil
}
