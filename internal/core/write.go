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
	uk := t.schema.UniqueKey
	if len(uk) == 0 {
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

	// Duplicate detection probes the secondary index, which only covers
	// hydrated segments — block until a lazily-restored table is fully
	// resident (one atomic load once it is).
	if err := t.ensureProbeReady(); err != nil {
		return res, fmt.Errorf("insert %s: %w", t.name, err)
	}

	// The batch's distinct unique keys; slot maps each row to its key's.
	// Under DupError a key the batch repeats fails it here.
	slot := make([]int, len(rows))
	first := make(map[string]int, len(rows))
	tgs := make([]target, 0, len(rows))
	for i, r := range rows {
		vs := make([]types.Value, len(uk))
		for j, c := range uk {
			if r[c].IsNull {
				return res, fmt.Errorf("insert %s: unique key column %q is null", t.name, t.schema.Columns[c].Name)
			}
			vs[j] = r[c]
		}
		key := types.EncodeKey(nil, vs...)
		s, seen := first[string(key)]
		if !seen {
			s = len(tgs)
			first[string(key)] = s
			tgs = append(tgs, target{key: key, vals: vs})
		} else if opts.OnDup == DupError {
			t.Stats.DupConflicts.Add(1)
			return res, fmt.Errorf("%w: within batch", ErrDuplicateKey)
		}
		slot[i] = s
	}

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

// checkBulkKeys reports ErrDuplicateKey when two of rows, or one of rows
// and a live row, share a unique key.
func (t *Table) checkBulkKeys(rows []types.Row) error {
	seen := make(map[string]struct{}, len(rows))
	view := t.Snapshot()
	defer view.Release()
	for _, r := range rows {
		k := string(types.KeyOf(r, t.schema.UniqueKey))
		if _, dup := seen[k]; dup {
			return fmt.Errorf("%w: within bulk load", ErrDuplicateKey)
		}
		seen[k] = struct{}{}
		if _, ok := t.buffer.Get([]byte(k), view.TS); ok {
			return ErrDuplicateKey
		}
		vals := make([]types.Value, len(t.schema.UniqueKey))
		for j, c := range t.schema.UniqueKey {
			vals[j] = r[c]
		}
		v, _, _, live := t.liveByKey(view, vals)
		if v != view {
			v.Release()
		}
		if live {
			return ErrDuplicateKey
		}
	}
	return nil
}

// BulkLoad ingests rows directly into columnstore segments, bypassing the
// buffer — the batch-load path that keeps data "only in highly compressed
// columnstore format" (§7's contrast with TiDB). Unique keys are checked
// against existing data under DupError only. It returns the sequence
// number of its last log record.
func (t *Table) BulkLoad(rows []types.Row) (uint64, error) {
	for _, r := range rows {
		if err := t.schema.CheckRow(r); err != nil {
			return 0, err
		}
	}
	if len(rows) == 0 {
		return 0, nil
	}
	keyed := len(t.schema.UniqueKey) > 0
	// See InsertBatch: index probes need every segment hydrated.
	if keyed {
		if err := t.ensureProbeReady(); err != nil {
			return 0, fmt.Errorf("bulk load %s: %w", t.name, err)
		}
	}
	// The key check and the segment commits run under one structMu hold,
	// so two loads of one new key cannot both pass the check.
	t.structMu.Lock()
	defer t.structMu.Unlock()
	if keyed {
		if err := t.checkBulkKeys(rows); err != nil {
			return 0, err
		}
	}
	var lsn uint64
	for start := 0; start < len(rows); start += t.cfg.MaxSegmentRows {
		end := start + t.cfg.MaxSegmentRows
		if end > len(rows) {
			end = len(rows)
		}
		b := colstore.NewBuilder(t.schema)
		for _, r := range rows[start:end] {
			b.Add(r)
		}
		segID := t.nextSeg.Add(1) - 1
		seg := b.Build(segID)
		run := int(t.nextRun.Add(1) - 1)
		file := fmt.Sprintf("%s/seg-%08d-lp%08d", t.name, segID, t.log.Head())
		segBytes := seg.Encode()
		if err := t.files.SaveFile(file, segBytes); err != nil {
			return lsn, fmt.Errorf("bulk load %s: %w", t.name, err)
		}
		_, lsn = t.commit(wal.KindFlush, nil, &mutation{
			NewSegs: []segInstall{{File: file, Run: run, SegBytes: segBytes, seg: seg}},
		})
	}
	t.Stats.Inserts.Add(int64(len(rows)))
	return lsn, nil
}
