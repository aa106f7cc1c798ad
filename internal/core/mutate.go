package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"s2db/internal/colstore"
	"s2db/internal/rowstore"
	"s2db/internal/types"
	"s2db/internal/vector"
	"s2db/internal/wal"
)

// target is a row a write statement reaches: the buffer row under key,
// or, when meta is set, row off of meta's segment. A segment target's key
// is the row's unique key, nil on a hidden-row-id table.
type target struct {
	key  []byte
	meta *colstore.Meta
	off  int32
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

// walkMatches calls f with each live row w matches in the view and the
// target that locates it. The buffer is sought where w's equality pin
// places its rows (a unique-key range or a secondary key) and walked
// otherwise; segments are probed through the secondary index on w's
// equality column, or else scanned, skipping those whose zone maps
// exclude its value. A buffer target's key is only valid during f.
func (t *Table) walkMatches(view *View, w Where, f func(tg target, r types.Row)) {
	visited := int64(0)
	t.buffer.ScanPlaced(t.schema.Place(w.Pins()), view.TS, func(k []byte, r types.Row) bool {
		visited++
		if w.matches(r) {
			f(target{key: k}, r)
		}
		return true
	})
	t.Stats.BufferRowsScanned.Add(visited)
	segRow := func(meta *colstore.Meta, off int32) {
		if meta.Deleted.Get(int(off)) {
			return
		}
		if w.Col >= 0 && !vector.CmpValue(meta.Seg.ValueAt(int(off), w.Col), vector.Eq, w.Val) {
			return
		}
		if r := meta.Seg.RowAt(int(off)); w.Pred == nil || w.Pred(r) {
			f(target{meta: meta, off: off}, r)
		}
	}
	if w.Col >= 0 && t.idx.HasColumn(w.Col) {
		matches, probes := t.idx.LookupColumn(w.Col, w.Val)
		t.Stats.IndexProbes.Add(int64(probes))
		for _, m := range matches {
			if meta := view.segMeta(m.SegID); meta != nil {
				for _, off := range m.Rows {
					segRow(meta, off)
				}
			}
		}
		return
	}
	for _, meta := range view.Segs {
		if w.Col >= 0 && !meta.Seg.MayContain(w.Col, int(vector.Eq), w.Val) {
			t.Stats.SegmentsEliminated.Add(1)
			continue
		}
		for i := 0; i < meta.Seg.NumRows; i++ {
			segRow(meta, int32(i))
		}
	}
}

// findTargets returns the rows w matches at the view, with the keys
// their writers lock.
func (t *Table) findTargets(view *View, w Where) []target {
	var tgs []target
	t.walkMatches(view, w, func(tg target, r types.Row) {
		if tg.meta == nil {
			tg.key = bytes.Clone(tg.key)
		} else if len(t.schema.UniqueKey) > 0 {
			tg.key = types.KeyOf(r, t.schema.UniqueKey)
		}
		tgs = append(tgs, tg)
	})
	return tgs
}

// lockTarget locks tg's row in tx and returns the row's latest live copy
// and where it lives: tg, or the buffer under tg.key once a point writer
// has claimed the segment row since the snapshot. ok is false when the
// row is gone. The caller holds structMu, so no flush or merge moves the
// row meanwhile. A segment row not in the buffer is live unless a writer
// set its deleted bit before it released the row lock, which segRowLive
// reads at the latest state; a hidden-row-id segment row has no lock, and
// only structMu holders write it.
func (t *Table) lockTarget(tx *rowstore.Txn, tg target) (target, types.Row, bool, error) {
	if tg.key != nil {
		cur, ok, err := tx.LockAndGet(tg.key)
		if err != nil || ok || tg.meta == nil {
			return target{key: tg.key}, cur, ok, err
		}
	}
	if !t.segRowLive(tg.meta.Seg.ID, tg.off) {
		return tg, nil, false, nil
	}
	return tg, tg.meta.Seg.RowAt(int(tg.off)), true, nil
}

// writeWhere writes every row w matches (writeRow), as one transaction
// and one log record: it finds the targets at a snapshot, locks each and
// re-checks w on its latest copy. Holding structMu from discovery to
// commit keeps the write exactly-once: otherwise a concurrent flush could
// move a matched buffer row into a segment between the snapshot and the
// lock, and the write would miss it.
func (t *Table) writeWhere(w Where, del bool, set func(types.Row) types.Row) (int, error) {
	what, kind := statement(del)
	// Target discovery reads segment rows (index probes or full scans):
	// a lazily-restored table must be resident first.
	if err := t.ensureProbeReady(); err != nil {
		return 0, fmt.Errorf("%s %s: %w", what, t.name, err)
	}
	t.structMu.Lock()
	defer t.structMu.Unlock()
	view := t.Snapshot()
	defer view.Release()
	tx := t.buffer.Begin(view.TS)
	m := &mutation{}
	n := 0
	for _, tg := range t.findTargets(view, w) {
		tg, cur, ok, err := t.lockTarget(tx, tg)
		if err == nil && ok && w.matches(cur) {
			err = t.writeRow(tx, m, tg, cur, del, set)
			n++
		}
		if err != nil {
			tx.Abort()
			return 0, fmt.Errorf("%s %s: %w", what, t.name, err)
		}
	}
	if n == 0 {
		tx.Abort()
		return 0, nil
	}
	t.commit(kind, tx, m)
	return n, nil
}

// UpdateWhere rewrites the rows w matches via set, in one transaction
// that claims the segment rows it rewrites (§4.2). Changing unique-key
// columns is not supported. It returns the number of rows updated.
func (t *Table) UpdateWhere(w Where, set func(types.Row) types.Row) (int, error) {
	n, err := t.writeWhere(w, false, set)
	t.Stats.Updates.Add(int64(n))
	return n, err
}

// DeleteWhere removes the rows w matches in one transaction: buffer rows
// get tombstones, segment rows their deleted bits (§4.2). It returns the
// number of rows deleted.
func (t *Table) DeleteWhere(w Where) (int, error) {
	n, err := t.writeWhere(w, true, nil)
	t.Stats.Deletes.Add(int64(n))
	return n, err
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
			return view.segMeta(seg).Seg.RowAt(int(off)), true, nil
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
	t.walkMatches(view, Eq(col, val), func(_ target, r types.Row) { out = append(out, r) })
	return out
}

// UpdateByUnique rewrites the single row with the given unique key values
// under its buffer row lock, claiming the row from its segment when it is
// not in the buffer (§4.2). It reports whether a row was found.
func (t *Table) UpdateByUnique(vals []types.Value, set func(types.Row) types.Row) (bool, error) {
	ok, err := t.writeUnique(vals, false, set)
	if ok {
		t.Stats.Updates.Add(1)
	}
	return ok, err
}

// DeleteByUnique removes the single row with the given unique key values
// under its buffer row lock: a buffer row is tombstoned, a segment row
// gets its deleted bit.
func (t *Table) DeleteByUnique(vals []types.Value) (bool, error) {
	ok, err := t.writeUnique(vals, true, nil)
	if ok {
		t.Stats.Deletes.Add(1)
	}
	return ok, err
}

// writeUnique writes the row with unique-key values vals (writeRow), as
// one transaction and one log record. It reports whether the row exists.
func (t *Table) writeUnique(vals []types.Value, del bool, set func(types.Row) types.Row) (bool, error) {
	what, kind := statement(del)
	if len(t.schema.UniqueKey) == 0 {
		return false, ErrNoUniqueKey
	}
	if err := t.ensureProbeReady(); err != nil {
		return false, fmt.Errorf("%s %s: %w", what, t.name, err)
	}
	tx, done := t.beginWrite()
	defer done()
	m := &mutation{}
	locked, err := t.lockUnique(tx, [][]byte{types.EncodeKey(nil, vals...)}, [][]types.Value{vals})
	ok := err == nil && locked[0].ok
	if ok {
		err = t.writeRow(tx, m, locked[0].tg, locked[0].cur, del, set)
	}
	if err != nil {
		tx.Abort()
		return false, fmt.Errorf("%s %s: %w", what, t.name, err)
	}
	if !ok {
		tx.Abort()
		return false, nil
	}
	t.commit(kind, tx, m)
	return true, nil
}

// lockedRow is a unique-key row a writer holds the row lock on: its
// latest live copy cur and the target tg where that copy lives; ok is
// false when the row does not exist.
type lockedRow struct {
	tg  target
	cur types.Row
	ok  bool
}

// lockUnique takes the buffer row locks on keys, the buffer keys of the
// unique-key values vals, in sorted key order, so writers that lock
// overlapping keys cannot deadlock. It returns each row's latest live
// copy, aligned with keys: the buffer's, or else the live segment copy as
// a target under the key. The lock excludes every other writer of the row
// and keeps a flush off it, so the caller's transaction is the row's move
// (§4.2): the write step claims a segment copy into the caller's own
// mutation. The probe runs after every lock is held, at one settled
// snapshot: a flush that tombstoned a buffer row has committed, so only a
// snapshot at or after its publication sees the segment it wrote.
func (t *Table) lockUnique(tx *rowstore.Txn, keys [][]byte, vals [][]types.Value) ([]lockedRow, error) {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	locked := make([]lockedRow, len(keys))
	probe := false
	for _, i := range order {
		cur, ok, err := tx.LockAndGet(keys[i])
		if err != nil {
			return nil, err
		}
		locked[i] = lockedRow{tg: target{key: keys[i]}, cur: cur, ok: ok}
		probe = probe || !ok
	}
	if !probe {
		return locked, nil
	}
	view := t.snapshotSettled()
	defer func() { view.Release() }()
	for i := range locked {
		if locked[i].ok {
			continue
		}
		v, seg, off, ok := t.liveByKey(view, vals[i])
		if v != view {
			view.Release()
			view = v
		}
		if ok {
			meta := view.segMeta(seg)
			locked[i].tg.meta, locked[i].tg.off = meta, off
			locked[i].cur, locked[i].ok = meta.Seg.RowAt(int(off)), true
		}
	}
	return locked, nil
}

// statement returns a write statement's name, for its errors, and the kind
// of its log record.
func statement(del bool) (string, wal.Kind) {
	if del {
		return "delete", wal.KindDelete
	}
	return "update", wal.KindInsert
}

// writeRow is the one per-row step of UpdateWhere and UpdateByUnique, and
// of DeleteWhere and DeleteByUnique: it deletes the locked row tg when del
// is set, and otherwise rewrites it via set from cur, its latest live copy.
func (t *Table) writeRow(tx *rowstore.Txn, m *mutation, tg target, cur types.Row, del bool, set func(types.Row) types.Row) error {
	if del {
		return t.dropRow(tx, m, tg)
	}
	return t.putRow(tx, m, tg, set(cur.Clone()))
}

// putRow writes nr in place of the locked row tg, in tx and m. A segment
// row is claimed: its deleted bit joins m, and on a hidden-row-id table
// nr takes a fresh row id.
func (t *Table) putRow(tx *rowstore.Txn, m *mutation, tg target, nr types.Row) error {
	if err := t.schema.CheckRow(nr); err != nil {
		return err
	}
	uk := t.schema.UniqueKey
	if len(uk) > 0 && string(types.KeyOf(nr, uk)) != string(tg.key) {
		return errors.New("changing unique key columns is not supported")
	}
	key := tg.key
	if tg.meta != nil {
		t.claim(m, tg)
		if key == nil {
			key = t.bufferKey(nr)
		}
	}
	if _, err := tx.Insert(key, nr); err != nil {
		return err
	}
	m.Inserts = append(m.Inserts, kv{Key: key, Row: nr})
	return nil
}

// dropRow deletes the locked row tg in tx and m: a buffer row gets a
// tombstone, a segment row only its deleted bit.
func (t *Table) dropRow(tx *rowstore.Txn, m *mutation, tg target) error {
	if tg.meta != nil {
		t.claim(m, tg)
		return nil
	}
	if _, _, err := tx.DeleteLatest(tg.key); err != nil {
		return err
	}
	m.DeleteKeys = append(m.DeleteKeys, tg.key)
	return nil
}

// claim records segment row tg's deleted bit in m, for the commit to
// apply with the rest of the write: the §4.2 move, inside the writer's
// own transaction.
func (t *Table) claim(m *mutation, tg target) {
	if m.SegDeletes == nil {
		m.SegDeletes = map[uint64][]int32{}
	}
	id := tg.meta.Seg.ID
	m.SegDeletes[id] = append(m.SegDeletes[id], tg.off)
	t.Stats.Moves.Add(1)
}
