package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/types"
	"s2db/internal/wal"
)

// openReaders returns the number of registered readers of tbl.
func openReaders(tbl *Table) int {
	tbl.readers.mu.Lock()
	defer tbl.readers.mu.Unlock()
	n := 0
	for _, e := range tbl.readers.open {
		n += e.n
	}
	return n
}

// viewDigest lists the live rows a view sees, sorted: its buffer rows and
// its segments' rows without deleted bits.
func viewDigest(v *View) string {
	var rows []string
	v.ScanBuffer(func(r types.Row) bool { rows = append(rows, fmt.Sprint(r)); return true })
	for _, m := range v.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			if !m.Deleted.Get(i) {
				rows = append(rows, fmt.Sprint(m.Seg.RowAt(i)))
			}
		}
	}
	slices.Sort(rows)
	return strings.Join(rows, "\n")
}

// A view holds its snapshot across a flush, later inserts and a flush, a
// merge and a compaction, however much wall time passes: compaction
// reclaims at the oldest open reader, not after a grace period.
func TestHeldViewSurvivesCompaction(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MergeFanout: 2})
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(urow(i, i, "h")); err != nil {
			t.Fatal(err)
		}
	}
	view := tbl.Snapshot()
	defer view.Release()
	if _, err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Longer than the one-second grace after which compaction once
	// reclaimed what old views read.
	time.Sleep(1100 * time.Millisecond)
	for i := 10; i < 20; i++ {
		if err := tbl.Insert(urow(i, i, "h")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if !tbl.Merge() {
		t.Fatal("the two flushed runs did not merge")
	}
	compactNow(tbl)
	if got := view.NumRows(); got != 10 {
		t.Fatalf("held view counts %d rows, want 10", got)
	}
	if got := mustCount(t, tbl); got != 20 {
		t.Fatalf("latest view counts %d rows, want 20", got)
	}
}

// Release is idempotent, a buffer read through a released view panics,
// and once no reader holds an old timestamp compaction passes it, so a
// view at it can no longer be taken.
func TestReleasedViewRefusesReads(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{})
	if err := tbl.Insert(urow(1, 1, "r")); err != nil {
		t.Fatal(err)
	}
	v := tbl.Snapshot()
	if n := openReaders(tbl); n != 1 {
		t.Fatalf("%d readers registered, want 1", n)
	}
	v.Release()
	v.Release()
	if n := openReaders(tbl); n != 0 {
		t.Fatalf("%d readers registered after Release, want 0", n)
	}
	mustPanic(t, "a read through a released view", func() { v.NumRows() })

	old := v.TS
	if _, err := tbl.Flush(); err != nil { // compacts past old
		t.Fatal(err)
	}
	mustPanic(t, "a snapshot below the horizon", func() { tbl.SnapshotAt(old) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// A view dropped without Release stops holding the horizon once the
// collector has run its finalizer.
func TestDroppedViewReleasedByFinalizer(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{})
	if err := tbl.Insert(urow(1, 1, "d")); err != nil {
		t.Fatal(err)
	}
	func() { tbl.Snapshot() }()
	if n := openReaders(tbl); n != 1 {
		t.Fatalf("%d readers registered, want 1", n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for openReaders(tbl) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a dropped view still holds the horizon after repeated collections")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if err := tbl.Insert(urow(2, 2, "d")); err != nil {
		t.Fatal(err)
	}
	compactNow(tbl)
	if keep, pub := tbl.compactedTS, tbl.committer.ReadTS(); keep != pub {
		t.Fatalf("compacted at %d with no reader open, want the published %d", keep, pub)
	}
}

// TestReaderHorizonStorm runs readers that hold their views for random
// lengths against point writes, flushes, merges and compactions, at
// GOMAXPROCS 1 and 2. Each reader reads its view twice, before and after
// its hold, and both reads must agree; afterwards every read must equal a
// shadow table fed from the log up to the read's timestamp.
func TestReaderHorizonStorm(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			schema := uniqSchema()
			schema.SortKey = 0
			tbl, log := newTestTable(t, schema, Config{MaxSegmentRows: 8, MergeFanout: 2})
			// Writers run ops each, then on until the readers have completed
			// minReads reads beside them; they yield now and then, so at
			// GOMAXPROCS 1 the readers and the maintenance storm interleave
			// with them.
			const keys, writers, ops, readers, minReads = 48, 2, 1500, 3, 300
			for i := 0; i < keys; i++ {
				if err := tbl.Insert(urow(i, 0, "s")); err != nil {
					t.Fatal(err)
				}
			}
			type read struct {
				ts     uint64
				digest string
			}
			var (
				writing, others sync.WaitGroup
				done            atomic.Bool
				readsMu         sync.Mutex
				reads           []read
				readCount       atomic.Int64
			)
			deadline := time.Now().Add(30 * time.Second)
			bump := func(r types.Row) types.Row { r[1] = types.NewInt(r[1].I + 1); return r }
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for op := 0; (op < ops || readCount.Load() < minReads) && !t.Failed(); op++ {
						if time.Now().After(deadline) {
							t.Errorf("writer %d: %d reads beside %d ops, want %d", w, readCount.Load(), op, minReads)
							return
						}
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
						key := []types.Value{types.NewInt(int64(rng.Intn(keys)))}
						var err error
						switch rng.Intn(3) {
						case 0:
							_, err = tbl.UpdateByUnique(key, bump)
						case 1:
							_, err = tbl.InsertBatch([]types.Row{urow(int(key[0].I), 1, "u")}, InsertOptions{
								OnDup:  DupUpdate,
								Update: func(old, _ types.Row) types.Row { return bump(old.Clone()) },
							})
						case 2:
							_, err = tbl.DeleteByUnique(key)
						}
						if err != nil {
							t.Errorf("writer %d op %d: %v", w, op, err)
							return
						}
					}
				}(w)
			}
			others.Add(1)
			go func() { // maintenance storm
				defer others.Done()
				for !done.Load() {
					if _, err := tbl.Flush(); err != nil {
						t.Error(err)
						return
					}
					tbl.Merge()
					compactNow(tbl)
					runtime.Gosched()
				}
			}()
			for r := 0; r < readers; r++ {
				others.Add(1)
				go func(r int) {
					defer others.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for !done.Load() {
						v := tbl.Snapshot()
						first := viewDigest(v)
						switch rng.Intn(4) {
						case 0:
						case 1:
							runtime.Gosched()
						default:
							time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
						}
						if again := viewDigest(v); again != first {
							t.Errorf("reader %d: view at %d changed while held:\n%s\nthen\n%s", r, v.TS, first, again)
							v.Release()
							return
						}
						readsMu.Lock()
						reads = append(reads, read{v.TS, first})
						readsMu.Unlock()
						readCount.Add(1)
						v.Release()
					}
				}(r)
			}
			writing.Wait()
			done.Store(true)
			others.Wait()
			if t.Failed() {
				return
			}
			if n := openReaders(tbl); n != 0 {
				t.Fatalf("%d readers still registered after every reader released", n)
			}
			assertShadowEqual(t, tbl, log, nil)

			// Replay the log into a shadow, stopping at each read's
			// timestamp to compare what the read saw.
			slices.SortFunc(reads, func(a, b read) int { return cmp.Compare(a.ts, b.ts) })
			shadow, err := NewTable(tbl.name, schema, Config{MaxSegmentRows: 8}, NewCommitter(), wal.NewLog(), NewMemFiles())
			if err != nil {
				t.Fatal(err)
			}
			defer shadow.Close()
			recs, err := log.Records(0, log.Head())
			if err != nil {
				t.Fatal(err)
			}
			next, at, stamps := 0, "", 0
			for i, rd := range reads {
				if i == 0 || rd.ts != reads[i-1].ts {
					stamps++
					for ; next < len(recs) && recs[next].CommitTS <= rd.ts; next++ {
						if err := shadow.Apply(recs[next]); err != nil {
							t.Fatal(err)
						}
					}
					v := shadow.Snapshot()
					at = viewDigest(v)
					v.Release()
				}
				if rd.digest != at {
					t.Fatalf("read at %d saw\n%s\nthe log replayed to it holds\n%s", rd.ts, rd.digest, at)
				}
			}
			if tbl.Stats.Merges.Load() == 0 {
				t.Fatal("no merge ran during the storm")
			}
			t.Logf("%d reads at %d timestamps, %d flushes, %d merges", len(reads), stamps, tbl.Stats.Flushes.Load(), tbl.Stats.Merges.Load())
		})
	}
}

// TestProbeThenClaimUnderMaintenanceStorm is tpcc Delivery's pattern under
// back-to-back flushes, merges and compactions: a claimer probes a
// district's orders through a view (ScanEq), takes the oldest, and claims
// it with DeleteByUnique. A live row a probe saw must be claimed with
// existed=true unless another claimer's delete of it committed first;
// every order is claimed at most once, and what is left matches both the
// model and a shadow table fed from the log.
func TestProbeThenClaimUnderMaintenanceStorm(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			schema := types.NewSchema(
				types.Column{Name: "d", Type: types.Int64},
				types.Column{Name: "o", Type: types.Int64},
				types.Column{Name: "note", Type: types.String},
			)
			schema.UniqueKey = []int{0, 1}
			schema.SortKey = 0
			tbl, log := newTestTable(t, schema, Config{MaxSegmentRows: 8, MergeFanout: 2})
			const districts, orders, claimers = 4, 300, 3
			key := func(d, o int64) string { return fmt.Sprintf("%d/%d", d, o) }
			var (
				inserting, others sync.WaitGroup
				done              atomic.Bool
				mu                sync.Mutex
				claimed           = map[string]int{} // existed=true claims per order
				missed            = map[string]int{} // existed=false claims per order
			)
			inserting.Add(1)
			go func() { // new orders, round robin over the districts
				defer inserting.Done()
				for o := 0; o < orders; o++ {
					runtime.Gosched()
					for d := 0; d < districts; d++ {
						r := types.Row{types.NewInt(int64(d)), types.NewInt(int64(o)), types.NewString("n")}
						if err := tbl.Insert(r); err != nil {
							t.Errorf("insert %d/%d: %v", d, o, err)
							return
						}
					}
				}
			}()
			others.Add(1)
			go func() { // maintenance storm
				defer others.Done()
				for !done.Load() {
					if _, err := tbl.Flush(); err != nil {
						t.Error(err)
						return
					}
					tbl.Merge()
					compactNow(tbl)
					runtime.Gosched()
				}
			}()
			probe := func(d int64) (oldest int64, found bool) {
				v := tbl.Snapshot()
				defer v.Release()
				seen := func(r types.Row) {
					if r[0].I == d && (!found || r[1].I < oldest) {
						oldest, found = r[1].I, true
					}
				}
				v.ScanBufferAt(schema.Place([]types.Pin{{Col: 0, Val: types.NewInt(d)}}), func(r types.Row) bool {
					seen(r)
					return true
				})
				for _, m := range v.Segs {
					for i := 0; i < m.Seg.NumRows; i++ {
						if !m.Deleted.Get(i) {
							seen(m.Seg.RowAt(i))
						}
					}
				}
				return oldest, found
			}
			for c := 0; c < claimers; c++ {
				others.Add(1)
				go func(c int) {
					defer others.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					for !done.Load() {
						d := int64(rng.Intn(districts))
						o, ok := probe(d)
						if !ok {
							runtime.Gosched()
							continue
						}
						existed, err := tbl.DeleteByUnique([]types.Value{types.NewInt(d), types.NewInt(o)})
						if err != nil {
							t.Errorf("claimer %d: claim %s: %v", c, key(d, o), err)
							return
						}
						mu.Lock()
						if existed {
							claimed[key(d, o)]++
						} else {
							missed[key(d, o)]++
						}
						mu.Unlock()
					}
				}(c)
			}
			inserting.Wait()
			// Let the claimers drain what is left, then stop everything.
			waitUntil(t, "the claimers drained every district", func() bool { return mustCount(t, tbl) == 0 })
			done.Store(true)
			others.Wait()
			if t.Failed() {
				return
			}
			for k, n := range claimed {
				if n != 1 {
					t.Fatalf("order %s claimed %d times", k, n)
				}
			}
			for k := range missed {
				if claimed[k] != 1 {
					t.Fatalf("a probe saw order %s live, its claim found no row, and no other claimer took it", k)
				}
			}
			if got, want := len(claimed), districts*orders; got != want {
				t.Fatalf("%d orders claimed, want %d", got, want)
			}
			if tbl.Stats.Merges.Load() == 0 {
				t.Fatal("no merge ran during the storm")
			}
			assertShadowEqual(t, tbl, log, nil)
			t.Logf("%d claims found no row, %d flushes, %d merges", len(missed), tbl.Stats.Flushes.Load(), tbl.Stats.Merges.Load())
		})
	}
}
