package core

import (
	"errors"
	"fmt"
	"slices"

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
// the unique key values in the in-memory lock manager, probes the secondary
// index (and buffer) for duplicates, applies the configured conflict
// policy, and commits buffer writes plus any deleted-bit updates as one
// transaction.
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

	// Step 1 (§4.1.2): lock the unique key values for the whole batch.
	hashes := make([]uint64, len(rows))
	keyVals := make([][]types.Value, len(rows))
	for i, r := range rows {
		vals := make([]types.Value, len(uk))
		for j, c := range uk {
			v := r[c]
			if v.IsNull {
				return res, fmt.Errorf("insert %s: unique key column %q is null", t.name, t.schema.Columns[c].Name)
			}
			vals[j] = v
		}
		keyVals[i] = vals
		hashes[i] = types.HashMany(vals)
	}
	release, err := t.uniq.Acquire(hashes, lockTimeout)
	if err != nil {
		return res, fmt.Errorf("insert %s: %w", t.name, err)
	}
	defer release()

	// Step 2: probe for duplicates in segments (via the index) and buffer.
	view := t.Snapshot()
	defer view.Release()
	readTS := view.TS
	dups := make([]bool, len(rows))
	// Also detect duplicates *within* the batch.
	seen := make(map[string]int, len(rows))
	for i, vals := range keyVals {
		k := string(types.EncodeKey(nil, vals...))
		if _, dupInBatch := seen[k]; dupInBatch && opts.OnDup == DupError {
			t.Stats.DupConflicts.Add(1)
			return res, fmt.Errorf("%w: within batch", ErrDuplicateKey)
		}
		// Under the other policies later occurrences resolve against the
		// earlier ones, which the lock loop below finds in its own writes.
		seen[k] = i
		if _, ok := t.buffer.Get([]byte(k), readTS); ok {
			dups[i] = true
			continue
		}
		v, _, _, ok := t.liveByKey(view, vals)
		if v != view {
			v.Release()
		}
		dups[i] = ok
	}
	if opts.OnDup == DupError && slices.Contains(dups, true) {
		t.Stats.DupConflicts.Add(1)
		return res, ErrDuplicateKey
	}

	// Step 3: apply the batch under row locks (§4.2).
	tx := t.buffer.Begin(readTS)
	m := &mutation{}
	for i, r := range rows {
		key := types.EncodeKey(nil, keyVals[i]...)
		// Re-probe the buffer for the latest state (an earlier batch row
		// may have inserted the key).
		existing, exists, err := tx.LockAndGet(key)
		if err != nil {
			tx.Abort()
			return res, fmt.Errorf("insert %s: lock: %w", t.name, err)
		}
		tg := target{key: key}
		if !exists && dups[i] {
			if opts.OnDup == DupSkip {
				// The duplicate lives in a segment; skip the incoming row.
				res.Skipped++
				continue
			}
			// The conflicting row lives in a segment — it did at the probe,
			// or a concurrent flush moved it there before we locked it:
			// claim it from there under the lock we hold.
			tg, existing, exists = t.segmentCopy(key, keyVals[i])
		}
		if exists {
			switch opts.OnDup {
			case DupError:
				tx.Abort()
				t.Stats.DupConflicts.Add(1)
				return res, ErrDuplicateKey
			case DupSkip:
				res.Skipped++
				continue
			case DupReplace, DupUpdate:
				nr := r
				if opts.OnDup == DupUpdate && opts.Update != nil {
					nr = opts.Update(existing, r)
				}
				if err := t.putRow(tx, m, tg, nr); err != nil {
					tx.Abort()
					return res, fmt.Errorf("insert %s: %w", t.name, err)
				}
				if opts.OnDup == DupReplace {
					res.Replaced++
				} else {
					res.Updated++
				}
				continue
			}
		}
		if _, err := tx.Insert(key, r); err != nil {
			tx.Abort()
			return res, err
		}
		m.Inserts = append(m.Inserts, kv{Key: key, Row: r})
		res.Inserted++
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
	// See InsertBatch: index probes need every segment hydrated.
	if err := t.ensureProbeReady(); err != nil {
		return fmt.Errorf("bulk load %s: %w", t.name, err)
	}
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
		matches, _ := t.idx.LookupTuple(t.schema.UniqueKey, vals)
		for _, m := range matches {
			if _, live := t.liveMatch(view, m); live {
				return ErrDuplicateKey
			}
		}
	}
	return nil
}

// BulkLoad ingests rows directly into columnstore segments, bypassing the
// buffer — the batch-load path that keeps data "only in highly compressed
// columnstore format" (§7's contrast with TiDB). Unique keys are checked
// against existing data under DupError only.
func (t *Table) BulkLoad(rows []types.Row) error {
	for _, r := range rows {
		if err := t.schema.CheckRow(r); err != nil {
			return err
		}
	}
	if len(rows) == 0 {
		return nil
	}
	if len(t.schema.UniqueKey) > 0 {
		if err := t.checkBulkKeys(rows); err != nil {
			return err
		}
	}
	t.structMu.Lock()
	defer t.structMu.Unlock()
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
			return fmt.Errorf("bulk load %s: %w", t.name, err)
		}
		t.commit(wal.KindFlush, nil, &mutation{
			NewSegs: []segInstall{{File: file, Run: run, SegBytes: segBytes, seg: seg}},
		})
	}
	t.Stats.Inserts.Add(int64(len(rows)))
	return nil
}
