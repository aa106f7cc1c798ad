package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/rowstore"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// imageRows returns what a read of b yields — the image rows the mask
// leaves, then the delta rows — formatted, in that order.
func imageRows(b BufferImage) []string {
	var rows []string
	for i := 0; i < b.Meta.Seg.NumRows; i++ {
		if !b.Meta.Deleted.Get(i) {
			rows = append(rows, fmt.Sprint(b.Meta.Seg.RowAt(i)))
		}
	}
	for _, r := range b.Delta {
		rows = append(rows, fmt.Sprint(r))
	}
	return rows
}

// walkRows returns the buffer rows a walk at the view's timestamp visits,
// formatted, in key order.
func walkRows(v *View) []string {
	var rows []string
	v.ScanBuffer(func(r types.Row) bool {
		rows = append(rows, fmt.Sprint(r))
		return true
	})
	return rows
}

// imageRead is what one check of a view's image read saw.
type imageRead struct{ imaged, delta, built bool }

// checkImage compares the view's image read with a walk, as multisets,
// and with an empty delta also in order. It reports a mismatch with
// t.Errorf, so the storm's reader goroutines may call it too.
func checkImage(t testing.TB, v *View) imageRead {
	t.Helper()
	b, ok := v.BufferImage()
	if !ok {
		return imageRead{}
	}
	got, want := imageRows(b), walkRows(v)
	if len(b.Delta) == 0 && b.Meta.Deleted.Count() == 0 {
		if !slices.Equal(got, want) {
			t.Errorf("image at %d without delta: rows\n%v\nwant in key order\n%v", v.TS, got, want)
		}
		return imageRead{imaged: true, built: b.Built}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("image at %d (%d rows, %d masked, %d delta): rows\n%v\nwant\n%v",
			v.TS, b.Meta.Seg.NumRows, b.Meta.Deleted.Count(), len(b.Delta), got, want)
	}
	return imageRead{imaged: true, delta: true, built: b.Built}
}

// imageHistory runs a write history decoded from data against tbl: two
// bytes per step, an operation and its argument. Every read step takes a
// view, holds it to the end, and checks it and every view held before it
// against a walk. It returns the held views and how many of the checks
// read an image, had a delta and built the image.
func imageHistory(t testing.TB, tbl *Table, data []byte) (views []*View, imaged, deltas, builds int) {
	check := func() {
		for _, v := range views {
			r := checkImage(t, v)
			imaged += b2i(r.imaged)
			deltas += b2i(r.delta)
			builds += b2i(r.built)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	bump := func(r types.Row) types.Row { r = r.Clone(); r[1] = types.NewInt(r[1].I + 1); return r }
	for i := 0; i+1 < len(data); i += 2 {
		arg := int(data[i+1])
		key := []types.Value{types.NewInt(int64(arg % 160))}
		var err error
		switch data[i] % 8 {
		case 0, 1: // upsert
			_, err = tbl.InsertBatch([]types.Row{urow(arg%160, arg, "u")}, InsertOptions{
				OnDup:  DupUpdate,
				Update: func(old, _ types.Row) types.Row { return bump(old) },
			})
		case 2:
			_, err = tbl.UpdateByUnique(key, bump)
		case 3:
			_, err = tbl.DeleteByUnique(key)
		case 4: // a flush deletes a batch of buffer keys at once
			_, err = tbl.Flush()
		case 5:
			compactNow(tbl)
		case 6:
			views = append(views, tbl.Snapshot())
			check()
		case 7: // a run of fresh upserts
			rows := make([]types.Row, arg%32)
			for j := range rows {
				rows[j] = urow((arg+j*7)%160, j, "r")
			}
			_, err = tbl.InsertBatch(rows, InsertOptions{OnDup: DupUpdate, Update: func(old, _ types.Row) types.Row { return bump(old) }})
		}
		if err != nil {
			t.Fatalf("step %d: %v", i/2, err)
		}
	}
	views = append(views, tbl.Snapshot())
	check()
	return views, imaged, deltas, builds
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// newImageTable returns a table whose buffer holds 100 rows (keys 0..99),
// enough for a full scan to start the journal.
func newImageTable(t testing.TB) *Table {
	tbl, err := NewTable("t", uniqSchema(), Config{MaxSegmentRows: 64}, NewCommitter(), wal.NewLog(), NewMemFiles())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = urow(i, i, "p")
	}
	if _, err := tbl.InsertBatch(rows, InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// FuzzBufferImage checks that, for any write history — upserts, updates,
// deletes, flushes (which delete a batch of buffer keys at once) and
// compactions — and any reader timestamps, a read of the buffer's
// columnar image plus its mask and delta returns exactly the rows a walk
// of the skiplist returns at every timestamp, as a multiset (and in key
// order when the delta is empty).
func FuzzBufferImage(f *testing.F) {
	f.Add([]byte{6, 0, 0, 5, 2, 7, 6, 0, 3, 9, 6, 0})
	f.Add([]byte{6, 0, 7, 31, 7, 200, 6, 0, 4, 0, 6, 0, 5, 0, 6, 0})
	f.Add([]byte{6, 0, 7, 31, 7, 95, 7, 63, 6, 0, 2, 4, 2, 8, 3, 12, 6, 0})
	f.Add([]byte{7, 31, 6, 0, 4, 0, 4, 0, 7, 31, 7, 62, 7, 93, 6, 0, 5, 0, 2, 17, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		tbl := newImageTable(t)
		views, _, _, _ := imageHistory(t, tbl, data)
		ReleaseAll(views)
	})
}

// TestBufferImageHistories runs random histories through the fuzz
// target's check and requires them to exercise every path: builds, reads
// with and without a delta, and rebuilds.
func TestBufferImageHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var imaged, deltas, builds int
	for h := 0; h < 40; h++ {
		data := make([]byte, 300)
		rng.Read(data)
		views, i, d, b := imageHistory(t, newImageTable(t), data)
		imaged, deltas, builds = imaged+i, deltas+d, builds+b
		ReleaseAll(views)
	}
	if imaged == 0 || deltas == 0 || deltas == imaged || builds < 80 {
		t.Fatalf("histories read %d images, %d with a delta, %d builds: some path went unexercised", imaged, deltas, builds)
	}
}

// A flush that deletes more keys than the journal holds drops the journal
// and the image with it at once; scans walk until the next full scan
// starts a new journal, and every read matches the walk throughout.
func TestBufferImageJournalOverflow(t *testing.T) {
	tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 2 * rowstore.JournalMax})
	rows := bulkRows(0, rowstore.JournalMax+100)
	if _, err := tbl.InsertBatch(rows, InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	v := tbl.Snapshot()
	if !checkImage(t, v).imaged {
		t.Fatal("first full scan of a large buffer read no image")
	}
	v.Release()
	if n, err := tbl.Flush(); err != nil || n != len(rows) {
		t.Fatalf("flush moved %d rows (%v), want %d", n, err, len(rows))
	}
	if j := tbl.buffer.Journal(); j.On || j.Image != nil {
		t.Fatalf("after the overflowing flush the journal runs (%v) or holds an image (%v)", j.On, j.Image != nil)
	}
	if err := tbl.Insert(urow(-1, 0, "x")); err != nil {
		t.Fatal(err)
	}
	v = tbl.Snapshot()
	if _, ok := v.BufferImage(); ok {
		t.Fatal("image read after its journal overflowed")
	}
	v.Release()
	if _, err := tbl.InsertBatch(bulkRows(10_000, 100), InsertOptions{}); err != nil {
		t.Fatal(err)
	}
	v = tbl.Snapshot()
	defer v.Release()
	if !checkImage(t, v).imaged {
		t.Fatal("no new image once the buffer grew again")
	}
}

// TestBufferImageStorm runs writers (updates of flushed rows move them
// back into the buffer), flushes, merges and compactions against full-scan
// readers holding random snapshots, at GOMAXPROCS 1 and 2. Each reader
// compares the image read of every view it holds with a walk.
func TestBufferImageStorm(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tbl, _ := newTestTable(t, uniqSchema(), Config{MaxSegmentRows: 96, MergeFanout: 2})
			const keys, writers, ops, readers, minReads = 400, 2, 1500, 3, 300
			if _, err := tbl.InsertBatch(bulkRows(0, keys/2), InsertOptions{}); err != nil {
				t.Fatal(err)
			}
			var (
				writing, others sync.WaitGroup
				done            atomic.Bool
				reads, imaged   atomic.Int64
				builds          atomic.Int64
			)
			deadline := time.Now().Add(30 * time.Second)
			bump := func(r types.Row) types.Row { r = r.Clone(); r[1] = types.NewInt(r[1].I + 1); return r }
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for op := 0; (op < ops || reads.Load() < minReads) && !t.Failed(); op++ {
						if time.Now().After(deadline) {
							t.Errorf("writer %d: %d reads beside %d ops, want %d", w, reads.Load(), op, minReads)
							return
						}
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
						k := rng.Intn(keys)
						key := []types.Value{types.NewInt(int64(k))}
						var err error
						switch rng.Intn(4) {
						case 0:
							_, err = tbl.UpdateByUnique(key, bump)
						case 1, 2:
							_, err = tbl.InsertBatch([]types.Row{urow(k, 1, "u")}, InsertOptions{
								OnDup: DupUpdate, Update: func(old, _ types.Row) types.Row { return bump(old) },
							})
						case 3:
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
					time.Sleep(2 * time.Millisecond)
					if _, err := tbl.Flush(); err != nil {
						t.Error(err)
						return
					}
					tbl.Merge()
					compactNow(tbl)
				}
			}()
			for r := 0; r < readers; r++ {
				others.Add(1)
				go func(r int) {
					defer others.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					var held []*View
					defer func() { ReleaseAll(held) }()
					for !done.Load() && !t.Failed() {
						held = append(held, tbl.Snapshot())
						if rng.Intn(3) == 0 {
							time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
						}
						for _, v := range held {
							r := checkImage(t, v)
							imaged.Add(int64(b2i(r.imaged)))
							builds.Add(int64(b2i(r.built)))
						}
						reads.Add(1)
						// Keep up to three random snapshots for later reads.
						for len(held) > 3 {
							j := rng.Intn(len(held))
							held[j].Release()
							held = slices.Delete(held, j, j+1)
						}
					}
				}(r)
			}
			writing.Wait()
			done.Store(true)
			others.Wait()
			if !t.Failed() && imaged.Load() == 0 {
				t.Fatalf("%d reads, none through an image", reads.Load())
			}
			t.Logf("%d reads, %d checks through an image, %d builds", reads.Load(), imaged.Load(), builds.Load())
		})
	}
}
