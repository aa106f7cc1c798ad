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
// is the row's unique key, nil on a hidden-row-id table. A target known
// by its unique key alone (a point write, an inserted key) carries the
// key's values, vals, to find its segment copy with.
type target struct {
	key  []byte
	vals []types.Value
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

// Where describes the target rows of an update or delete: the equality
// pins of the statement plus an optional residual predicate. The pins
// place the rows (types.Schema.Place): a Where whose pins fix the whole
// unique key is a point write.
type Where struct {
	// Pins are column equalities every target row satisfies.
	Pins []types.Pin
	// Pred is evaluated on candidate rows; nil accepts all.
	Pred func(types.Row) bool
}

// All matches every row.
func All() Where { return Where{} }

// Eq matches rows where the column equals v.
func Eq(col int, v types.Value) Where { return Where{Pins: []types.Pin{{Col: col, Val: v}}} }

// ByUnique returns the Where that pins schema's unique key to vals, the
// key's values in key order.
func ByUnique(schema *types.Schema, vals []types.Value) (Where, error) {
	uk := schema.UniqueKey
	if len(uk) == 0 {
		return Where{}, ErrNoUniqueKey
	}
	if len(vals) != len(uk) {
		return Where{}, fmt.Errorf("%d key values, unique key has %d columns", len(vals), len(uk))
	}
	pins := make([]types.Pin, len(uk))
	for i, c := range uk {
		pins[i] = types.Pin{Col: c, Val: vals[i]}
	}
	return Where{Pins: pins}, nil
}

func (w Where) matches(r types.Row) bool {
	for _, p := range w.Pins {
		if !vector.CmpValue(r[p.Col], vector.Eq, p.Val) {
			return false
		}
	}
	return w.Pred == nil || w.Pred(r)
}

// walkMatches calls f with each live row w matches in the view and the
// target that locates it. The buffer is sought where w's pins place its
// rows (a unique-key range or a secondary key) and walked otherwise;
// segments are probed through the secondary index of the first pinned
// column that has one, or else scanned, skipping those whose zone maps
// exclude a pinned value. A buffer target's key is only valid during f.
func (t *Table) walkMatches(view *View, w Where, f func(tg target, r types.Row)) {
	visited := int64(0)
	t.buffer.ScanPlaced(t.schema.Place(w.Pins), view.TS, func(k []byte, r types.Row) bool {
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
		for _, p := range w.Pins {
			if !vector.CmpValue(meta.Seg.ValueAt(int(off), p.Col), vector.Eq, p.Val) {
				return
			}
		}
		if r := meta.Seg.RowAt(int(off)); w.Pred == nil || w.Pred(r) {
			f(target{meta: meta, off: off}, r)
		}
	}
	for _, p := range w.Pins {
		if !t.idx.HasColumn(p.Col) {
			continue
		}
		matches, probes := t.idx.LookupColumn(p.Col, p.Val)
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
segments:
	for _, meta := range view.Segs {
		for _, p := range w.Pins {
			if !meta.Seg.MayContain(p.Col, int(vector.Eq), p.Val) {
				t.Stats.SegmentsEliminated.Add(1)
				continue segments
			}
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

// lockedRow is a target a writer holds: its latest live copy cur and the
// target tg where that copy lives; ok is false when the row is gone.
type lockedRow struct {
	tg  target
	cur types.Row
	ok  bool
}

// lockTargets is every writer's one lock step. It takes the buffer row
// lock of every keyed target in sorted key order, so writers that lock
// overlapping rows cannot deadlock, and only then reads each target's
// latest live copy, aligned with tgs:
//
//  1. the buffer copy;
//  2. otherwise the target's segment row, if it is still live at the
//     latest state (segRowLive);
//  3. otherwise, for a target known by key alone, the live segment copy
//     liveByKey finds at one settled snapshot taken after every lock is
//     held: a flush that tombstoned a buffer row has committed, so only a
//     snapshot at or after its publication sees the segment it wrote.
//
// The lock excludes every other writer of the row and keeps a flush off
// it, so the caller's transaction is the row's move (§4.2): the write
// step claims a segment copy into the caller's own mutation. A
// hidden-row-id segment row has no key and takes no lock; only structMu
// holders write it.
func (t *Table) lockTargets(tx *rowstore.Txn, tgs []target) ([]lockedRow, error) {
	order := make([]int, 0, len(tgs))
	for i := range tgs {
		if tgs[i].key != nil {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(tgs[a].key, tgs[b].key) })
	locked := make([]lockedRow, len(tgs))
	for _, i := range order {
		cur, ok, err := tx.LockAndGet(tgs[i].key)
		if err != nil {
			return nil, err
		}
		locked[i] = lockedRow{tg: target{key: tgs[i].key}, cur: cur, ok: ok}
	}
	var view *View
	for i, tg := range tgs {
		switch {
		case locked[i].ok:
		case tg.meta != nil:
			if t.segRowLive(tg.meta.Seg.ID, tg.off) {
				locked[i] = lockedRow{tg: tg, cur: tg.meta.Seg.RowAt(int(tg.off)), ok: true}
			}
		case tg.vals != nil:
			if view == nil {
				view = t.snapshotSettled()
			}
			v, seg, off, ok := t.liveByKey(view, tg.vals)
			if v != view {
				view.Release()
				view = v
			}
			if ok {
				meta := view.segMeta(seg)
				locked[i] = lockedRow{tg: target{key: tg.key, meta: meta, off: off}, cur: meta.Seg.RowAt(int(off)), ok: true}
			}
		}
	}
	if view != nil {
		view.Release()
	}
	return locked, nil
}

// Write rewrites via set every row w matches, or deletes them when set is
// nil, as one transaction and one log record, and returns the number of
// rows written and the record's sequence number (0 when none was).
// Changing unique-key columns is not supported.
//
// A Where whose pins fix the whole unique key is a point write: its one
// target is known by key alone, so it walks nothing and takes no
// structMu. Any other Where finds its targets at a snapshot under
// structMu, held to the commit: otherwise a concurrent flush could move a
// found buffer row into a segment before it is locked, and the write
// would miss it. Both then take the one lock step (lockTargets), re-check
// w on each locked row's latest copy and write it (writeRow): a buffer
// row is rewritten or tombstoned, a segment row claimed (§4.2).
func (t *Table) Write(w Where, set func(types.Row) types.Row) (int, uint64, error) {
	what, kind, count := "update", wal.KindInsert, &t.Stats.Updates
	if set == nil {
		what, kind, count = "delete", wal.KindDelete, &t.Stats.Deletes
	}
	// Finding a row reads segments (index probes or scans): a
	// lazily-restored table must be resident first.
	if err := t.ensureProbeReady(); err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", what, t.name, err)
	}
	var (
		tx  *rowstore.Txn
		tgs []target
	)
	if pl := t.schema.Place(w.Pins); len(pl.Key) > 0 && len(pl.Key) == len(t.schema.UniqueKey) {
		var done func()
		tx, done = t.beginWrite()
		defer done()
		// From encodes the whole key: the row's buffer key.
		tgs = []target{{key: pl.From, vals: pl.Key}}
	} else {
		t.structMu.Lock()
		defer t.structMu.Unlock()
		view := t.Snapshot()
		defer view.Release()
		tx = t.buffer.Begin(view.TS)
		tgs = t.findTargets(view, w)
	}
	locked, err := t.lockTargets(tx, tgs)
	m := &mutation{}
	n := 0
	for i := 0; err == nil && i < len(locked); i++ {
		if l := locked[i]; l.ok && w.matches(l.cur) {
			err = t.writeRow(tx, m, l.tg, l.cur, set)
			n++
		}
	}
	if err != nil {
		tx.Abort()
		return 0, 0, fmt.Errorf("%s %s: %w", what, t.name, err)
	}
	if n == 0 {
		tx.Abort()
		return 0, 0, nil
	}
	_, lsn := t.commit(kind, tx, m)
	count.Add(int64(n))
	return n, lsn, nil
}

// UpdateWhere rewrites the rows w matches via set (Write) and returns the
// number of rows updated.
func (t *Table) UpdateWhere(w Where, set func(types.Row) types.Row) (int, error) {
	n, _, err := t.Write(w, set)
	return n, err
}

// DeleteWhere removes the rows w matches (Write) and returns the number
// of rows deleted.
func (t *Table) DeleteWhere(w Where) (int, error) {
	n, _, err := t.Write(w, nil)
	return n, err
}

// UpdateByUnique rewrites the row with the given unique key values via
// set, a point write (Write). It reports whether the row exists.
func (t *Table) UpdateByUnique(vals []types.Value, set func(types.Row) types.Row) (bool, error) {
	w, err := ByUnique(t.schema, vals)
	if err != nil {
		return false, err
	}
	n, _, err := t.Write(w, set)
	return n > 0, err
}

// DeleteByUnique removes the row with the given unique key values, a
// point write (Write). It reports whether the row existed.
func (t *Table) DeleteByUnique(vals []types.Value) (bool, error) {
	w, err := ByUnique(t.schema, vals)
	if err != nil {
		return false, err
	}
	n, _, err := t.Write(w, nil)
	return n > 0, err
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

// writeRow is Write's per-row step: it deletes the locked row tg when set
// is nil, and otherwise rewrites it via set from cur, its latest live copy.
func (t *Table) writeRow(tx *rowstore.Txn, m *mutation, tg target, cur types.Row, set func(types.Row) types.Row) error {
	if set == nil {
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
