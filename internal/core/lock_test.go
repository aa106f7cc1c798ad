package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"s2db/internal/types"
)

// TestInsertBatchLockOrderNoDeadlock: two writers upsert the same 50 keys
// over and over, one in ascending and one in descending batch order.
// InsertBatch locks a batch's keys in sorted key order, so neither waits
// on the other for long and no batch times out on its row locks.
func TestInsertBatchLockOrderNoDeadlock(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tbl, _ := newTestTable(t, uniqSchema(), Config{})
			const keys, rounds = 50, 100
			asc := make([]types.Row, keys)
			desc := make([]types.Row, keys)
			for i := range asc {
				asc[i] = urow(i, 1, "a")
				desc[keys-1-i] = urow(i, 1, "d")
			}
			opts := InsertOptions{OnDup: DupUpdate, Update: func(old, in types.Row) types.Row {
				out := in.Clone()
				out[1] = types.NewInt(old[1].I + in[1].I)
				return out
			}}
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				slowest time.Duration
			)
			for _, batch := range [][]types.Row{asc, desc} {
				wg.Add(1)
				go func(batch []types.Row) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						start := time.Now()
						if _, err := tbl.InsertBatch(batch, opts); err != nil {
							t.Errorf("round %d: %v", r, err)
							return
						}
						mu.Lock()
						slowest = max(slowest, time.Since(start))
						mu.Unlock()
					}
				}(batch)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if slowest >= lockTimeout/2 {
				t.Fatalf("slowest batch took %v, lock timeout is %v", slowest, lockTimeout)
			}
			for i := 0; i < keys; i++ {
				r, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(int64(i))})
				if err != nil || !ok || r[1].I != 2*rounds {
					t.Fatalf("key %d = %v (found %v, err %v), want val %d", i, r, ok, err, 2*rounds)
				}
			}
		})
	}
}

// TestFilteredWriteLockOrderNoDeadlock: a filtered update reaches a
// segment row k-1 and a buffer row k, and while it rewrites its first row
// an upsert batch of k-1 and k starts. Every writer locks all its rows in
// one step, in sorted key order, before it writes any, so the upsert
// waits for the update's commit instead of the two waiting each other
// out to the row-lock timeout.
func TestFilteredWriteLockOrderNoDeadlock(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tbl, _ := newTestTable(t, uniqSchema(), Config{})
			const k = 10
			if err := tbl.Insert(urow(k-1, 0, "s")); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Insert(urow(k, 0, "b")); err != nil {
				t.Fatal(err)
			}
			if tbl.BufferLen() != 1 || tbl.SegmentCount() != 1 {
				t.Fatalf("setup: %d buffer rows, %d segments; want one of each", tbl.BufferLen(), tbl.SegmentCount())
			}
			var (
				once   sync.Once
				upsert = make(chan error, 1)
			)
			start := time.Now()
			n, err := tbl.UpdateWhere(All(), func(r types.Row) types.Row {
				once.Do(func() {
					go func() {
						_, err := tbl.InsertBatch([]types.Row{urow(k-1, 0, "u"), urow(k, 0, "u")}, InsertOptions{
							OnDup: DupUpdate,
							Update: func(old, _ types.Row) types.Row {
								out := old.Clone()
								out[1] = types.NewInt(old[1].I + 10)
								return out
							},
						})
						upsert <- err
					}()
					time.Sleep(50 * time.Millisecond)
				})
				r[1] = types.NewInt(r[1].I + 1)
				return r
			})
			if err != nil || n != 2 {
				t.Fatalf("update = %d, %v; want 2 rows", n, err)
			}
			if err := <-upsert; err != nil {
				t.Fatalf("upsert: %v", err)
			}
			if took := time.Since(start); took >= lockTimeout/2 {
				t.Fatalf("update and upsert took %v, lock timeout is %v", took, lockTimeout)
			}
			for _, id := range []int64{k - 1, k} {
				r, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(id)})
				if err != nil || !ok || r[1].I != 11 {
					t.Fatalf("key %d = %v (found %v, err %v), want val 11", id, r, ok, err)
				}
			}
		})
	}
}

// TestInsertSameFreshKeyExclusive: eight writers insert the same fresh
// key at once under DupError. The row lock admits one at a time, so
// exactly one succeeds, the others see its row and fail with
// ErrDuplicateKey, and the row is the winner's.
func TestInsertSameFreshKeyExclusive(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tbl, _ := newTestTable(t, uniqSchema(), Config{})
			const writers, keys = 8, 1000
			for k := 0; k < keys; k++ {
				var wg sync.WaitGroup
				start := make(chan struct{})
				errs := make([]error, writers)
				for w := range writers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						errs[w] = tbl.Insert(urow(k, w, "x"))
					}()
				}
				close(start)
				wg.Wait()
				winner := -1
				for w, err := range errs {
					switch {
					case err == nil && winner < 0:
						winner = w
					case err == nil:
						t.Fatalf("key %d: writers %d and %d both inserted", k, winner, w)
					case !errors.Is(err, ErrDuplicateKey):
						t.Fatalf("key %d, writer %d: %v", k, w, err)
					}
				}
				if winner < 0 {
					t.Fatalf("key %d: no writer inserted", k)
				}
				r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(k))})
				if !ok || r[1].I != int64(winner) {
					t.Fatalf("key %d = %v, want the winner's val %d", k, r, winner)
				}
			}
			if n := mustCount(t, tbl); n != keys {
				t.Fatalf("%d rows, want %d", n, keys)
			}
		})
	}
}

// TestBulkLoadSameFreshKeyExclusive: two bulk loads of the same fresh
// unique key race into an empty table, round after round. A load checks
// its keys and commits its segments under one structMu hold, so in every
// round exactly one is accepted and the other fails with ErrDuplicateKey.
func TestBulkLoadSameFreshKeyExclusive(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const rounds = 2000
			for round := 0; round < rounds; round++ {
				tbl, _ := newTestTable(t, uniqSchema(), Config{})
				var (
					wg   sync.WaitGroup
					errs [2]error
				)
				gate := make(chan struct{})
				for i := range errs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						<-gate
						_, errs[i] = tbl.BulkLoad([]types.Row{urow(1, i, "b")})
					}(i)
				}
				close(gate)
				wg.Wait()
				accepted := 0
				for _, err := range errs {
					switch {
					case err == nil:
						accepted++
					case !errors.Is(err, ErrDuplicateKey):
						t.Fatalf("round %d: bulk load = %v", round, err)
					}
				}
				if accepted != 1 || mustCount(t, tbl) != 1 {
					t.Fatalf("round %d: %d of 2 loads accepted, %d live rows; want 1 and 1", round, accepted, mustCount(t, tbl))
				}
			}
		})
	}
}

// TestInsertBatchRepeatedKeys: a batch that names a key more than once
// resolves each later row against the earlier ones — for a key in a
// segment, one in the buffer and a fresh one — and claims the segment
// row once.
func TestInsertBatchRepeatedKeys(t *testing.T) {
	sum := func(old, in types.Row) types.Row {
		out := in.Clone()
		out[1] = types.NewInt(old[1].I + in[1].I)
		return out
	}
	batch := []types.Row{
		urow(10, 1, "b1"), urow(30, 2, "b2"), urow(20, 4, "b3"),
		urow(10, 8, "b4"), urow(30, 16, "b5"), urow(20, 32, "b6"),
	}
	for _, tc := range []struct {
		name  string
		opts  InsertOptions
		res   InsertResult
		moves int64
		want  map[int64]types.Row
	}{
		{"skip", InsertOptions{OnDup: DupSkip}, InsertResult{Inserted: 1, Skipped: 5}, 0,
			map[int64]types.Row{10: urow(10, 100, "seg"), 20: urow(20, 200, "buf"), 30: urow(30, 2, "b2")}},
		{"replace", InsertOptions{OnDup: DupReplace}, InsertResult{Inserted: 1, Replaced: 5}, 1,
			map[int64]types.Row{10: urow(10, 8, "b4"), 20: urow(20, 32, "b6"), 30: urow(30, 16, "b5")}},
		{"update", InsertOptions{OnDup: DupUpdate, Update: sum}, InsertResult{Inserted: 1, Updated: 5}, 1,
			map[int64]types.Row{10: urow(10, 109, "b4"), 20: urow(20, 236, "b6"), 30: urow(30, 18, "b5")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, log := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 8})
			if err := tbl.Insert(urow(10, 100, "seg")); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Insert(urow(20, 200, "buf")); err != nil {
				t.Fatal(err)
			}
			head := log.Head()
			res, err := tbl.InsertBatch(batch, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			res.LSN, res.CommitTS = 0, 0
			if res != tc.res {
				t.Fatalf("result %+v, want %+v", res, tc.res)
			}
			if got := tbl.Stats.Moves.Load(); got != tc.moves {
				t.Fatalf("%d moves, want %d", got, tc.moves)
			}
			if got, want := log.Head()-head, uint64(1); got != want {
				t.Fatalf("batch appended %d records, want %d", got, want)
			}
			for k, want := range tc.want {
				r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(k)})
				if !ok || !reflect.DeepEqual(r, want) {
					t.Fatalf("key %d = %v, want %v", k, r, want)
				}
			}
			if n := mustCount(t, tbl); n != 3 {
				t.Fatalf("%d rows, want 3", n)
			}
		})
	}
	t.Run("error", func(t *testing.T) {
		tbl, log := newTestTable(t, uniqSchema(), Config{})
		_, err := tbl.InsertBatch([]types.Row{urow(1, 1, "a"), urow(2, 2, "b"), urow(1, 3, "c")}, InsertOptions{})
		if !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("err = %v, want ErrDuplicateKey", err)
		}
		if log.Head() != 0 || mustCount(t, tbl) != 0 {
			t.Fatalf("a refused batch wrote: %d records, %d rows", log.Head(), mustCount(t, tbl))
		}
	})
}

// TestRowLockWaitersWake: an insert of a key whose buffer row lock another
// writer holds waits for it, and goes through as soon as that writer lets
// the lock go, well inside the lock timeout.
func TestRowLockWaitersWake(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{})
	if err := tbl.Insert(urow(7, 0, "x")); err != nil {
		t.Fatal(err)
	}
	tx, done := tbl.beginWrite()
	if _, _, err := tx.LockAndGet(tbl.bufferKey(urow(7, 0, "x"))); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := tbl.InsertBatch([]types.Row{urow(7, 1, "x")}, InsertOptions{OnDup: DupReplace})
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("insert went through while the row lock was held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	tx.Abort()
	done()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiter got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
	r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(7)})
	if !ok || r[1].I != 1 {
		t.Fatalf("row 7 = %v, want the waiter's val 1", r)
	}
}

// TestCommitterMonotonic: Commit hands out consecutive timestamps and
// publishes each once its function returns; ReplayAt moves the clock to a
// recorded timestamp, never back.
func TestCommitterMonotonic(t *testing.T) {
	c := NewCommitter()
	if c.ReadTS() != 0 {
		t.Fatalf("fresh clock reads %d", c.ReadTS())
	}
	for want := uint64(1); want <= 2; want++ {
		ts := c.Commit(func(ts uint64) {
			if c.ReadTS() != ts-1 {
				t.Errorf("commit %d published before it applied: ReadTS %d", ts, c.ReadTS())
			}
		})
		if ts != want || c.ReadTS() != want {
			t.Fatalf("commit got %d, ReadTS %d; want %d", ts, c.ReadTS(), want)
		}
	}
	c.ReplayAt(100, func() {})
	if c.ReadTS() != 100 {
		t.Fatalf("ReplayAt(100): ReadTS %d", c.ReadTS())
	}
	ran := false
	c.ReplayAt(50, func() { ran = true })
	if !ran || c.ReadTS() != 100 {
		t.Fatalf("ReplayAt(50): ran %v, ReadTS %d; want the clock kept at 100", ran, c.ReadTS())
	}
	if ts := c.Commit(func(uint64) {}); ts != 101 {
		t.Fatalf("commit after replay got %d, want 101", ts)
	}
}

// TestCommitterConcurrentUnique: concurrent commits never share a
// timestamp, and the clock ends at the last one handed out.
func TestCommitterConcurrentUnique(t *testing.T) {
	c := NewCommitter()
	const n = 1000
	seen := make([]uint64, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() { defer wg.Done(); seen[i] = c.Commit(func(uint64) {}) }()
	}
	wg.Wait()
	uniq := map[uint64]bool{}
	for _, ts := range seen {
		if uniq[ts] || ts == 0 || ts > n {
			t.Fatalf("timestamp %d repeated or out of 1..%d", ts, n)
		}
		uniq[ts] = true
	}
	if c.ReadTS() != n {
		t.Fatalf("ReadTS %d after %d commits, want %d", c.ReadTS(), n, n)
	}
}
