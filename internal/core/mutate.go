package core

import (
	"fmt"

	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/wal"
)

// segLoc addresses one row inside a segment, with the buffer key it will
// live under after a move.
type segLoc struct {
	seg uint64
	off int32
	key []byte
}

// moveToBuffer runs a move transaction (§4.2): it copies the given segment
// rows into the in-memory rowstore (which locks them — "the primary key of
// the in-memory rowstore acts as the lock manager") and marks their segment
// copies deleted, committing immediately as an autonomous transaction.
// Rows already moved by a concurrent transaction are skipped: their live
// copy is in the buffer and callers re-probe it.
func (t *Table) moveToBuffer(locs []segLoc) error {
	if len(locs) == 0 {
		return nil
	}
	tx, done := t.beginWrite()
	defer done()
	m := &mutation{SegDeletes: map[uint64][]int32{}}
	inserted := 0
	for _, loc := range locs {
		t.segMu.RLock()
		e := t.segs[loc.seg]
		t.segMu.RUnlock()
		if e == nil {
			continue
		}
		row := e.latestMeta().Seg.RowAt(int(loc.off))
		key := loc.key
		if key == nil {
			key = t.bufferKey(row)
		}
		// Take the row lock first (waiting, bounded by the lock timeout):
		// while we hold it nobody else can move or delete this row, so the
		// checks below stay true until we commit. A concurrent mover that
		// won has left the live copy in the buffer; one that went on to
		// delete the row has left neither copy live.
		_, inBuffer, err := tx.LockAndGet(key)
		if err != nil {
			tx.Abort()
			return fmt.Errorf("move: %w", err)
		}
		if inBuffer || !t.segRowLive(loc.seg, loc.off) {
			continue
		}
		if _, err := tx.Insert(key, row); err != nil {
			tx.Abort()
			return fmt.Errorf("move: %w", err)
		}
		m.Inserts = append(m.Inserts, kv{Key: key, Row: row})
		m.SegDeletes[loc.seg] = append(m.SegDeletes[loc.seg], loc.off)
		inserted++
	}
	if inserted == 0 {
		tx.Abort()
		return nil
	}
	// apply chases merge remaps for rows whose segments were merged since
	// our scan (§4.2), and the record names the rows it resolved.
	t.commit(wal.KindMove, tx, m)
	t.Stats.Moves.Add(int64(inserted))
	return nil
}

// segRowLive reports whether segment row (seg, off) is live at the latest
// state, following merge remaps when its segment has been retired.
func (t *Table) segRowLive(seg uint64, off int32) bool {
	for {
		t.segMu.RLock()
		e := t.segs[seg]
		t.segMu.RUnlock()
		if e == nil {
			return false
		}
		if e.dropTS.Load() == 0 {
			return !e.latestMeta().Deleted.Get(int(off))
		}
		rm := e.remap.Load()
		if rm == nil || int(off) >= len(*rm) || (*rm)[off].off < 0 {
			return false
		}
		seg, off = (*rm)[off].seg, (*rm)[off].off
	}
}

// Where describes the target rows of an update or delete: an optional
// indexed equality (fast path through the secondary index) plus an optional
// residual predicate.
type Where struct {
	// Col/Val is an equality on an indexed column; Col == -1 disables it.
	Col int
	Val types.Value
	// Pred is evaluated on candidate rows; nil accepts all.
	Pred func(types.Row) bool
}

// All matches every row.
func All() Where { return Where{Col: -1} }

// Eq matches rows where the (indexed) column equals v.
func Eq(col int, v types.Value) Where { return Where{Col: col, Val: v} }

// Pins returns the equality w pins, the input to types.Schema.Place.
func (w Where) Pins() []types.Pin {
	if w.Col < 0 {
		return nil
	}
	return []types.Pin{{Col: w.Col, Val: w.Val}}
}

func (w Where) matches(r types.Row) bool {
	if w.Col >= 0 && !vector.CmpValue(r[w.Col], vector.Eq, w.Val) {
		return false
	}
	return w.Pred == nil || w.Pred(r)
}

// bufferTargets returns the keys of the buffer rows w matches at ts. It
// seeks where w's equality pin places the rows (a unique-key range or a
// secondary key) and walks the whole buffer otherwise.
func (t *Table) bufferTargets(ts uint64, w Where) (keys [][]byte) {
	visited := int64(0)
	t.buffer.ScanPlaced(t.schema.Place(w.Pins()), ts, func(k []byte, r types.Row) bool {
		visited++
		if w.matches(r) {
			keys = append(keys, append([]byte(nil), k...))
		}
		return true
	})
	t.Stats.BufferRowsScanned.Add(visited)
	return keys
}

// latestBufferTargets is bufferTargets at the published timestamp.
func (t *Table) latestBufferTargets(w Where) [][]byte {
	ts := t.pinLatest()
	defer t.unpin(ts)
	return t.bufferTargets(ts, w)
}

// findTargets locates the rows matched by w at the view's snapshot,
// returning buffer keys and segment locations.
func (t *Table) findTargets(view *View, w Where) (bufKeys [][]byte, segLocs []segLoc) {
	bufKeys = t.bufferTargets(view.TS, w)
	if w.Col >= 0 && t.idx.HasColumn(w.Col) {
		matches, probes := t.idx.LookupColumn(w.Col, w.Val)
		t.Stats.IndexProbes.Add(int64(probes))
		for _, m := range matches {
			for _, meta := range view.Segs {
				if meta.Seg.ID != m.SegID {
					continue
				}
				for _, off := range m.Rows {
					if meta.Deleted.Get(int(off)) {
						continue
					}
					if w.Pred == nil || w.Pred(meta.Seg.RowAt(int(off))) {
						segLocs = append(segLocs, segLoc{seg: m.SegID, off: off})
					}
				}
			}
		}
		return bufKeys, segLocs
	}
	// Full segment scan with zone-map elimination for the equality case.
	for _, meta := range view.Segs {
		if w.Col >= 0 && !meta.Seg.MayContain(w.Col, int(vector.Eq), w.Val) {
			t.Stats.SegmentsEliminated.Add(1)
			continue
		}
		for i := 0; i < meta.Seg.NumRows; i++ {
			if meta.Deleted.Get(i) {
				continue
			}
			if w.matches(meta.Seg.RowAt(i)) {
				segLocs = append(segLocs, segLoc{seg: meta.Seg.ID, off: int32(i)})
			}
		}
	}
	return bufKeys, segLocs
}

// UpdateWhere rewrites matching rows via set, using move transactions for
// rows living in segments so the user transaction only locks in-memory rows
// (§4.2). Changing unique-key columns is not supported. It returns the
// number of rows updated.
func (t *Table) UpdateWhere(w Where, set func(types.Row) types.Row) (int, error) {
	// Target discovery reads segment rows (index probes or full scans):
	// a lazily-restored table must be resident first.
	if err := t.ensureProbeReady(); err != nil {
		return 0, fmt.Errorf("update %s: %w", t.name, err)
	}
	// Excluding flush/merge between target discovery and row locking keeps
	// the operation exactly-once: otherwise a concurrent flush can tombstone
	// a matched buffer row (moving it into a segment) in the window between
	// the snapshot and LockAndGet, silently losing the update.
	t.structMu.Lock()
	defer t.structMu.Unlock()
	view := t.Snapshot()
	defer view.Release()
	bufKeys, segLocs := t.findTargets(view, w)
	if len(segLocs) > 0 {
		if err := t.moveToBuffer(segLocs); err != nil {
			return 0, err
		}
		for _, loc := range segLocs {
			if loc.key != nil {
				bufKeys = append(bufKeys, loc.key)
			}
		}
		// Moved rows without precomputed keys are found by re-probing the
		// buffer below when the table has a unique key; otherwise they got
		// hidden row ids — rescan the buffer for matches.
		if len(t.schema.UniqueKey) > 0 {
			for _, loc := range segLocs {
				if loc.key == nil {
					t.segMu.RLock()
					e := t.segs[loc.seg]
					t.segMu.RUnlock()
					if e != nil {
						row := e.latestMeta().Seg.RowAt(int(loc.off))
						bufKeys = append(bufKeys, types.KeyOf(row, t.schema.UniqueKey))
					}
				}
			}
		} else {
			bufKeys = t.latestBufferTargets(w)
		}
	}
	if len(bufKeys) == 0 {
		return 0, nil
	}
	tx := t.buffer.Begin(view.TS)
	m := &mutation{}
	updated := 0
	for _, k := range bufKeys {
		cur, ok, err := tx.LockAndGet(k)
		if err != nil {
			tx.Abort()
			return 0, fmt.Errorf("update %s: %w", t.name, err)
		}
		if !ok || !w.matches(cur) {
			continue // deleted or changed since the snapshot
		}
		nr := set(cur.Clone())
		if err := t.schema.CheckRow(nr); err != nil {
			tx.Abort()
			return 0, fmt.Errorf("update %s: %w", t.name, err)
		}
		if len(t.schema.UniqueKey) > 0 {
			if string(types.KeyOf(nr, t.schema.UniqueKey)) != string(k) {
				tx.Abort()
				return 0, fmt.Errorf("update %s: changing unique key columns is not supported", t.name)
			}
		}
		if _, err := tx.Insert(k, nr); err != nil {
			tx.Abort()
			return 0, err
		}
		m.Inserts = append(m.Inserts, kv{Key: k, Row: nr})
		updated++
	}
	if updated == 0 {
		tx.Abort()
		return 0, nil
	}
	t.commit(wal.KindInsert, tx, m)
	t.Stats.Updates.Add(int64(updated))
	return updated, nil
}

// DeleteWhere removes matching rows. Segment rows are moved to the buffer
// first (§4.2) and then tombstoned under their row locks. It returns the
// number of rows deleted.
func (t *Table) DeleteWhere(w Where) (int, error) {
	// See UpdateWhere: hydrate before discovery, then exclude structure.
	if err := t.ensureProbeReady(); err != nil {
		return 0, fmt.Errorf("delete %s: %w", t.name, err)
	}
	// See UpdateWhere: structural exclusion prevents lost deletes when a
	// flush races with target discovery.
	t.structMu.Lock()
	defer t.structMu.Unlock()
	view := t.Snapshot()
	defer view.Release()
	bufKeys, segLocs := t.findTargets(view, w)
	if len(segLocs) > 0 {
		if err := t.moveToBuffer(segLocs); err != nil {
			return 0, err
		}
		bufKeys = t.latestBufferTargets(w)
	}
	if len(bufKeys) == 0 {
		return 0, nil
	}
	tx := t.buffer.Begin(view.TS)
	m := &mutation{}
	deleted := 0
	for _, k := range bufKeys {
		cur, ok, err := tx.LockAndGet(k)
		if err != nil {
			tx.Abort()
			return 0, fmt.Errorf("delete %s: %w", t.name, err)
		}
		if !ok || !w.matches(cur) {
			continue
		}
		if _, _, err := tx.DeleteLatest(k); err != nil {
			tx.Abort()
			return 0, err
		}
		m.DeleteKeys = append(m.DeleteKeys, k)
		deleted++
	}
	if deleted == 0 {
		tx.Abort()
		return 0, nil
	}
	t.commit(wal.KindDelete, tx, m)
	t.Stats.Deletes.Add(int64(deleted))
	return deleted, nil
}

// GetByUnique returns the live row with the given unique key values, using
// the buffer first and then the secondary index (§4.1).
func (t *Table) GetByUnique(vals []types.Value) (types.Row, bool, error) {
	uk := t.schema.UniqueKey
	if len(uk) == 0 {
		return nil, false, ErrNoUniqueKey
	}
	if len(vals) != len(uk) {
		return nil, false, fmt.Errorf("get %s: %d key values, unique key has %d columns", t.name, len(vals), len(uk))
	}
	if err := t.ensureProbeReady(); err != nil {
		return nil, false, fmt.Errorf("get %s: %w", t.name, err)
	}
	key := types.EncodeKey(nil, vals...)
	// The buffer and the index answer at one snapshot: when liveByKey
	// moves to a fresh one, the buffer is checked again there.
	ts := t.pinLatest()
	if r, ok := t.buffer.Get(key, ts); ok {
		t.unpin(ts)
		return r, true, nil
	}
	view := t.viewAt(ts)
	defer func() { view.Release() }()
	for {
		v, seg, off, ok := t.liveByKey(view, vals)
		if v != view {
			view.Release()
			view = v
		}
		if ok {
			return view.segRow(seg, off), true, nil
		}
		if view.TS == ts {
			return nil, false, nil
		}
		ts = view.TS
		if r, ok := t.buffer.Get(key, ts); ok {
			return r, true, nil
		}
	}
}

// LookupEqual returns all live rows where col == val, using the secondary
// index when available and scans otherwise.
func (t *Table) LookupEqual(col int, val types.Value) []types.Row {
	if t.ensureProbeReady() != nil {
		return nil // unhydratable cold table: no rows reachable
	}
	view := t.Snapshot()
	defer view.Release()
	var out []types.Row
	visited := int64(0)
	view.ScanBufferAt(t.schema.Place([]types.Pin{{Col: col, Val: val}}), func(r types.Row) bool {
		visited++
		if vector.CmpValue(r[col], vector.Eq, val) {
			out = append(out, r)
		}
		return true
	})
	t.Stats.BufferRowsScanned.Add(visited)
	if t.idx.HasColumn(col) {
		matches, probes := t.idx.LookupColumn(col, val)
		t.Stats.IndexProbes.Add(int64(probes))
		for _, m := range matches {
			for _, meta := range view.Segs {
				if meta.Seg.ID != m.SegID {
					continue
				}
				for _, off := range m.Rows {
					if !meta.Deleted.Get(int(off)) {
						out = append(out, meta.Seg.RowAt(int(off)))
					}
				}
			}
		}
		return out
	}
	for _, meta := range view.Segs {
		if !meta.Seg.MayContain(col, int(vector.Eq), val) {
			t.Stats.SegmentsEliminated.Add(1)
			continue
		}
		for i := 0; i < meta.Seg.NumRows; i++ {
			if !meta.Deleted.Get(i) && vector.CmpValue(meta.Seg.ValueAt(i, col), vector.Eq, val) {
				out = append(out, meta.Seg.RowAt(i))
			}
		}
	}
	return out
}

// UniqueWhere builds a Where matching exactly the given unique key values.
func (t *Table) UniqueWhere(vals []types.Value) Where {
	uk := t.schema.UniqueKey
	return Where{Col: -1, Pred: func(r types.Row) bool {
		for i, c := range uk {
			if !vector.CmpValue(r[c], vector.Eq, vals[i]) {
				return false
			}
		}
		return true
	}}
}

// UpdateByUnique rewrites the single row with the given unique key values
// under its buffer row lock, claiming the row from its segment when it is
// not in the buffer (§4.2). It reports whether a row was found.
func (t *Table) UpdateByUnique(vals []types.Value, set func(types.Row) types.Row) (bool, error) {
	uk := t.schema.UniqueKey
	if len(uk) == 0 {
		return false, ErrNoUniqueKey
	}
	if err := t.ensureProbeReady(); err != nil {
		return false, fmt.Errorf("update %s: %w", t.name, err)
	}
	key := types.EncodeKey(nil, vals...)
	tx, done := t.beginWrite()
	defer done()
	cur, ok, err := tx.LockAndGet(key)
	if err != nil {
		tx.Abort()
		return false, err
	}
	m := &mutation{}
	if !ok {
		if cur, ok = t.claimSegmentRow(vals, m); !ok {
			tx.Abort()
			return false, nil
		}
	}
	nr := set(cur.Clone())
	if err := t.schema.CheckRow(nr); err != nil {
		tx.Abort()
		return false, err
	}
	if string(types.KeyOf(nr, uk)) != string(key) {
		tx.Abort()
		return false, fmt.Errorf("update %s: changing unique key columns is not supported", t.name)
	}
	if _, err := tx.Insert(key, nr); err != nil {
		tx.Abort()
		return false, err
	}
	m.Inserts = []kv{{Key: key, Row: nr}}
	t.commit(wal.KindInsert, tx, m)
	t.Stats.Updates.Add(1)
	return true, nil
}

// DeleteByUnique removes the single row with the given unique key values
// under its buffer row lock: a buffer row is tombstoned, a segment row
// gets its deleted bit.
func (t *Table) DeleteByUnique(vals []types.Value) (bool, error) {
	uk := t.schema.UniqueKey
	if len(uk) == 0 {
		return false, ErrNoUniqueKey
	}
	if err := t.ensureProbeReady(); err != nil {
		return false, fmt.Errorf("delete %s: %w", t.name, err)
	}
	key := types.EncodeKey(nil, vals...)
	tx, done := t.beginWrite()
	defer done()
	_, ok, err := tx.LockAndGet(key)
	if err != nil {
		tx.Abort()
		return false, err
	}
	m := &mutation{}
	if ok {
		if _, _, err := tx.DeleteLatest(key); err != nil {
			tx.Abort()
			return false, err
		}
		m.DeleteKeys = [][]byte{key}
	} else if _, ok = t.claimSegmentRow(vals, m); !ok {
		tx.Abort()
		return false, nil
	}
	t.commit(wal.KindDelete, tx, m)
	t.Stats.Deletes.Add(1)
	return true, nil
}

// claimSegmentRow returns the live segment copy of the row with unique-key
// values vals and records its deleted bit in m, for the caller's commit to
// apply. The caller holds the row's buffer lock, which excludes every other
// writer of the row, so its transaction is the row's move (§4.2): a
// separate move transaction would wait on that same lock. The probe runs
// after the lock: a flush that tombstoned the buffer row has committed, so
// only a fresh snapshot sees the segment it wrote.
func (t *Table) claimSegmentRow(vals []types.Value, m *mutation) (types.Row, bool) {
	settled := t.snapshotSettled()
	defer settled.Release()
	view, seg, off, ok := t.liveByKey(settled, vals)
	defer view.Release()
	if !ok {
		return nil, false
	}
	if m.SegDeletes == nil {
		m.SegDeletes = map[uint64][]int32{}
	}
	m.SegDeletes[seg] = append(m.SegDeletes[seg], off)
	t.Stats.Moves.Add(1)
	return view.segRow(seg, off), true
}
