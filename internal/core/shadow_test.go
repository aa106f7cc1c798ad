package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"s2db/internal/types"
	"s2db/internal/wal"
)

// shadowMark is a consistent cut of a primary taken mid-run: its state
// serialized at ts, and lsn, the first log record committed after ts.
type shadowMark struct {
	state   []byte
	ts, lsn uint64
}

// markShadow cuts the primary. Every record is appended inside its commit,
// so holding the commit mutex pins the pair (ts, log head); a view
// registered there keeps the state at ts readable until it is serialized.
func markShadow(tbl *Table, log *wal.Log) *shadowMark {
	var cut *View
	var lsn uint64
	tbl.committer.Quiesce(func(readTS uint64) { cut, lsn = tbl.SnapshotAt(readTS), log.Head() })
	defer cut.Release()
	return &shadowMark{state: tbl.SerializeState(cut), ts: cut.TS, lsn: lsn}
}

// assertShadowEqual is the replay oracle of DESIGN.md §6: a fresh table fed
// only through Apply from the primary's log — from the first record, or
// from RestoreState of mark and then the log tail after it — must hold the
// same row multiset as the quiesced primary and, segment by segment, the
// same live-row count.
func assertShadowEqual(t *testing.T, primary *Table, log *wal.Log, mark *shadowMark) {
	t.Helper()
	files, from := FileStore(NewMemFiles()), uint64(0)
	if mark != nil {
		files, from = primary.files, mark.lsn
	}
	shadow, err := NewTable(primary.name, primary.schema, Config{MaxSegmentRows: primary.cfg.MaxSegmentRows},
		NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shadow.Close)
	if mark != nil {
		if err := shadow.RestoreState(mark.state, mark.ts); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := log.Records(from, log.Head())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := shadow.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	assertSameContents(t, primary, shadow)
	if got, want := liveBySegment(shadow), liveBySegment(primary); !reflect.DeepEqual(got, want) {
		t.Fatalf("live rows by segment: shadow %v, primary %v", got, want)
	}
}

func liveBySegment(tbl *Table) map[uint64]int {
	out := map[uint64]int{}
	v := tbl.Snapshot()
	defer v.Release()
	for _, m := range v.Segs {
		out[m.Seg.ID] = m.LiveRows()
	}
	return out
}

// claimThenCommit rewrites the rows with unique keys ids as a point
// writer does — each key locked, its segment copy claimed into the
// statement's own mutation — and runs between after the claims and before
// the commit.
func claimThenCommit(tb testing.TB, tbl *Table, between func(), ids ...int) {
	tb.Helper()
	tx, done := tbl.beginWrite()
	defer done()
	m := &mutation{}
	keys := make([][]byte, len(ids))
	vals := make([][]types.Value, len(ids))
	for i, id := range ids {
		vals[i] = []types.Value{types.NewInt(int64(id))}
		keys[i] = types.EncodeKey(nil, vals[i]...)
	}
	locked, err := tbl.lockUnique(tx, keys, vals)
	if err != nil {
		tb.Fatal(err)
	}
	for i, l := range locked {
		if !l.ok || l.tg.meta == nil {
			tb.Fatalf("key %d has no segment copy outside the buffer (found %v)", ids[i], l.ok)
		}
		nr := l.cur.Clone()
		nr[1] = types.NewInt(nr[1].I + 100)
		if err := tbl.putRow(tx, m, l.tg, nr); err != nil {
			tb.Fatal(err)
		}
	}
	between()
	tbl.commit(wal.KindInsert, tx, m)
}

// TestMoveAfterMergeReplays: a writer claims rows of segment S, a merge
// retires S, and then the writer commits. The primary resolves its deletes
// through the merge's remap; the log must name the resolved rows, because a
// replica has no remaps — replayed from the start, it finds S retired, and
// restored from a snapshot taken after the merge it has never heard of S —
// and would keep both copies of each row.
func TestMoveAfterMergeReplays(t *testing.T) {
	for _, fromSnapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", fromSnapshot), func(t *testing.T) {
			schema := uniqSchema()
			schema.SortKey = 0
			tbl, log := newTestTable(t, schema, Config{MaxSegmentRows: 8, MergeFanout: 2})
			for batch := 0; batch < 2; batch++ {
				for i := 0; i < 8; i++ {
					if err := tbl.Insert(urow(batch*8+i, i, "x")); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := tbl.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			s := tbl.Snapshot().Segs[0].Seg.ID
			var mark *shadowMark
			claimThenCommit(t, tbl, func() {
				if !tbl.Merge() {
					t.Fatal("merge did not run")
				}
				if fromSnapshot {
					mark = markShadow(tbl, log)
				}
			}, 0, 3, 5)
			if got := mustCount(t, tbl); got != 16 {
				t.Fatalf("primary holds %d rows, want 16", got)
			}
			for _, id := range []int{0, 3, 5} {
				if r, ok, _ := tbl.GetByUnique([]types.Value{types.NewInt(int64(id))}); !ok || r[1].I != int64(id+100) {
					t.Fatalf("row %d = %v, %v after the claim", id, r, ok)
				}
			}
			recs, err := log.Records(log.Head()-1, log.Head())
			if err != nil {
				t.Fatal(err)
			}
			m, err := decodeMutation(recs[0].Data)
			if err != nil {
				t.Fatal(err)
			}
			if _, named := m.SegDeletes[s]; named || len(m.SegDeletes) != 1 || len(m.Inserts) != 3 {
				t.Fatalf("claim record names segments %v with %d inserts; want 3 rows resolved off retired segment %d", m.SegDeletes, len(m.Inserts), s)
			}
			assertShadowEqual(t, tbl, log, mark)
		})
	}
}

// TestPointWritesVersusMergeStorm races point updates, upserts and deletes,
// and filtered updates and deletes, against back-to-back flushes and
// merges, at GOMAXPROCS 1 and 2, then checks shadows fed from the log —
// from the start and from a snapshot cut mid-storm — against the primary.
func TestPointWritesVersusMergeStorm(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			schema := uniqSchema()
			schema.SortKey = 0
			tbl, log := newTestTable(t, schema, Config{MaxSegmentRows: 8, MergeFanout: 2})
			const keys, writers, ops = 64, 3, 3000
			for i := 0; i < keys; i++ {
				if err := tbl.Insert(urow(i, 0, "s")); err != nil {
					t.Fatal(err)
				}
			}
			var (
				mark    *shadowMark
				writing sync.WaitGroup
				maint   sync.WaitGroup
				stop    = make(chan struct{})
			)
			bump := func(r types.Row) types.Row { r[1] = types.NewInt(r[1].I + 1); return r }
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for op := 0; op < ops; op++ {
						if w == 0 && op == ops/2 {
							mark = markShadow(tbl, log)
						}
						key := []types.Value{types.NewInt(int64(rng.Intn(keys)))}
						var err error
						switch rng.Intn(5) {
						case 0:
							_, err = tbl.UpdateByUnique(key, bump)
						case 1:
							_, err = tbl.InsertBatch([]types.Row{urow(int(key[0].I), 1, "u")}, InsertOptions{
								OnDup:  DupUpdate,
								Update: func(old, _ types.Row) types.Row { return bump(old.Clone()) },
							})
						case 2:
							_, err = tbl.DeleteByUnique(key)
						case 3:
							_, err = tbl.UpdateWhere(Eq(0, key[0]), bump)
						case 4:
							id := key[0].I
							_, err = tbl.DeleteWhere(Where{Col: -1, Pred: func(r types.Row) bool { return r[0].I == id }})
						}
						if err != nil {
							t.Errorf("writer %d op %d: %v", w, op, err)
							return
						}
					}
				}(w)
			}
			maint.Add(1)
			go func() {
				defer maint.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := tbl.Flush(); err != nil {
						t.Error(err)
						return
					}
					tbl.Merge()
				}
			}()
			writing.Wait()
			close(stop)
			maint.Wait()
			if t.Failed() {
				return
			}
			if tbl.Stats.Merges.Load() == 0 {
				t.Fatal("no merge ran during the storm")
			}
			assertShadowEqual(t, tbl, log, nil)
			assertShadowEqual(t, tbl, log, mark)
		})
	}
}
