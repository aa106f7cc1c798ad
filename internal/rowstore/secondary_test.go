package rowstore

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/types"
)

// secIndexes are the secondary indexes of the tests' rows (id, c, f, v):
// index 0 on c, no index at 1, index 2 on (f, c).
var secIndexes = [][]int{{1}, nil, {2, 1}}

// secEq is the row semantics of an equality predicate: NULL matches
// nothing and floats compare as IEEE (-0.0 equals 0.0).
func secEq(r types.Row, cols []int, vals []types.Value) bool {
	for i, c := range cols {
		a, b := r[c], vals[i]
		if a.IsNull || b.IsNull {
			return false
		}
		if a.Type == types.Float64 {
			if a.F != b.F {
				return false
			}
		} else if types.Compare(a, b) != 0 {
			return false
		}
	}
	return true
}

// checkSecondary holds the seek contract at readTS: for every pinned key
// of every index, the secondary seek plus the predicate returns the same
// rows, in the same order, as a full Scan plus the predicate.
func checkSecondary(t *testing.T, s *Store, readTS uint64) {
	t.Helper()
	cs := []types.Value{types.NewInt(0), types.NewInt(1), types.NewInt(2)}
	fs := []types.Value{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1.5)}
	var pins [][]types.Value
	for _, c := range cs {
		for _, f := range fs {
			pins = append(pins, []types.Value{f, c})
		}
	}
	for ix, cols := range secIndexes {
		if cols == nil {
			continue
		}
		for _, pin := range pins {
			vals := pin[len(pin)-len(cols):]
			var want, got []string
			s.Scan(nil, nil, readTS, func(k []byte, r types.Row) bool {
				if secEq(r, cols, vals) {
					want = append(want, fmt.Sprint(r))
				}
				return true
			})
			s.ScanPlaced(types.Placement{Secondary: vals, Index: ix}, readTS, func(k []byte, r types.Row) bool {
				if secEq(r, cols, vals) {
					got = append(got, fmt.Sprint(r))
				}
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("ts %d, index %v = %v: seek %v, walk %v", readTS, cols, vals, got, want)
			}
		}
	}
}

// FuzzBufferSecondary replays random histories of inserts, updates that
// move a row's key or keep it, deletes, aborted and still-open
// transactions and Compact, and at random snapshots checks the secondary
// seek against a full walk.
func FuzzBufferSecondary(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 9, 9, 9, 5, 2, 2, 0, 0, 0, 3, 1, 4, 5, 5, 7})
	f.Add([]byte{2, 3, 1, 1, 2, 0, 2, 3, 3, 1, 1, 1, 0, 3, 0, 4, 9, 5, 1, 0, 0, 2, 1, 5})
	f.Add([]byte{0, 2, 0, 0, 1, 1, 0, 2, 0, 1, 1, 2, 0, 2, 0, 1, 1, 0, 4, 3, 1, 4, 0, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		cs := []types.Value{types.Null(types.Int64), types.NewInt(0), types.NewInt(1), types.NewInt(2)}
		fs := []types.Value{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1.5), types.Null(types.Float64)}
		s := NewStore(time.Millisecond, secIndexes...)
		var ts, keepTS uint64
		// pending is a transaction left open across steps; its rows are
		// locked, so committed transactions skip them.
		var pending *Txn
		locked := map[int]bool{}
		write := func(tx *Txn, id int) {
			k := key(id)
			cur, ok, err := tx.LockAndGet(k)
			if err != nil {
				t.Fatalf("lock %d: %v", id, err)
			}
			switch op := next() % 4; {
			case op == 0:
				if _, err := tx.Delete(k); err != nil {
					t.Fatal(err)
				}
			case op == 1 && ok: // keep the key, change the payload
				nr := cur.Clone()
				nr[3] = types.NewInt(int64(next()))
				tx.Insert(k, nr)
			default: // a new row, or one that moves the key
				tx.Insert(k, types.Row{types.NewInt(int64(id)), cs[next()%len(cs)], fs[next()%len(fs)], types.NewInt(int64(next()))})
			}
		}
		for pos < len(data) {
			switch next() % 6 {
			case 0, 1: // a transaction of 1-3 writes that commits or aborts
				tx := s.Begin(ts)
				for i := next()%3 + 1; i > 0; i-- {
					if id := next() % 8; !locked[id] {
						write(tx, id)
					}
				}
				if next()%4 == 0 {
					tx.Abort()
				} else {
					ts++
					tx.Commit(ts)
				}
			case 2: // a write by the open transaction
				if pending == nil {
					pending = s.Begin(ts)
				}
				id := next() % 8
				locked[id] = true
				write(pending, id)
			case 3: // the open transaction ends
				if pending != nil {
					if next()%2 == 0 {
						pending.Abort()
					} else {
						ts++
						pending.Commit(ts)
					}
					pending, locked = nil, map[int]bool{}
				}
			case 4:
				keepTS += uint64(next()) % (ts - keepTS + 1)
				s.Compact(keepTS)
			case 5:
				checkSecondary(t, s, keepTS+uint64(next())%(ts-keepTS+1))
			}
		}
		checkSecondary(t, s, ts)
		if pending != nil {
			pending.Abort()
		}
		s.Compact(ts)
		checkSecondary(t, s, ts)
	})
}

// TestBufferSecondaryRebuildBounds: Compact rebuilds the index from the
// surviving nodes, so filings left by key changes, aborts and flushed rows
// do not pile up.
func TestBufferSecondaryRebuildBounds(t *testing.T) {
	s := NewStore(0, secIndexes...)
	var ts uint64
	put := func(id, c int) {
		tx := s.Begin(ts)
		tx.Insert(key(id), types.Row{types.NewInt(int64(id)), types.NewInt(int64(c)), types.NewFloat(0), types.NewInt(0)})
		ts++
		tx.Commit(ts)
	}
	for c := 0; c < 100; c++ {
		put(1, c) // one row whose key keeps moving
	}
	if got := s.indexes[0].entries; got != 100 {
		t.Fatalf("%d filings for 100 key changes", got)
	}
	for i := 0; i < 10; i++ {
		put(1, 99) // the key stays: no filing
	}
	if got := s.indexes[0].entries; got != 100 {
		t.Fatalf("%d filings after updates that keep the key", got)
	}
	s.Compact(ts)
	if got := s.indexes[0].entries; got != 1 {
		t.Fatalf("%d filings after Compact, want 1", got)
	}
	n := 0
	s.ScanPlaced(types.Placement{Secondary: []types.Value{types.NewInt(99)}}, ts, func([]byte, types.Row) bool { n++; return true })
	if n != 1 {
		t.Fatalf("seek found %d rows, want 1", n)
	}
}

// TestBufferSecondaryStorm runs writers that move their own rows between
// keys, secondary readers and Compact together (run it under -race). A
// writer finds each row it committed under its new key, and readers only
// ever see rows that hold the key they seek, in key order.
func TestBufferSecondaryStorm(t *testing.T) {
	s := NewStore(time.Second, secIndexes...)
	var clock atomic.Uint64
	const writers, rowsEach, rounds = 3, 8, 300
	var stop atomic.Bool
	var wg, bg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := w*rowsEach + i%rowsEach
				c := int64((i * 7) % 5)
				tx := s.Begin(clock.Load())
				if i%11 == 0 {
					tx.Delete(key(id))
				} else {
					tx.Insert(key(id), types.Row{types.NewInt(int64(id)), types.NewInt(c), types.NewFloat(0), types.NewInt(int64(i))})
				}
				if i%13 == 0 {
					tx.Abort()
					continue
				}
				ts := clock.Add(1)
				tx.Commit(ts)
				if i%11 == 0 {
					continue
				}
				found := false
				s.ScanPlaced(types.Placement{Secondary: []types.Value{types.NewInt(c)}}, clock.Load(), func(_ []byte, r types.Row) bool {
					found = found || r[0].I == int64(id)
					return true
				})
				if !found {
					t.Errorf("writer %d: row %d not found under its new key %d", w, id, c)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			for i := 0; !stop.Load(); i++ {
				c := types.NewInt(int64(i % 5))
				var prev []byte
				s.ScanPlaced(types.Placement{Secondary: []types.Value{c}}, clock.Load(), func(k []byte, row types.Row) bool {
					if !types.Equal(row[1], c) || (prev != nil && bytes.Compare(prev, k) >= 0) {
						t.Errorf("reader: row %v (key %x after %x) for c = %v", row, k, prev, c)
						return false
					}
					prev = k
					return true
				})
			}
		}(r)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			if ts := clock.Load(); ts > 20 {
				s.Compact(ts - 20)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	stop.Store(true)
	bg.Wait()
	checkSecondary(t, s, clock.Load())
}
