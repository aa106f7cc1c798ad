package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2db/internal/codec"
	"s2db/internal/colstore"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// hydroFiles wraps a FileStore with load counting, an availability switch,
// and an optional gate that holds every load until released — the
// hydration tests' stand-in for a slow or downed blob store. A held load
// can still be abandoned by cancellation.
type hydroFiles struct {
	FileStore
	loads   atomic.Int64
	down    atomic.Bool
	mu      sync.Mutex
	gate    chan struct{} // nil = loads pass through immediately
	errDown error
}

func newHydroFiles(inner FileStore) *hydroFiles {
	return &hydroFiles{FileStore: inner, errDown: errors.New("blob store unavailable")}
}

// hold makes subsequent loads block until release.
func (g *hydroFiles) hold() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *hydroFiles) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *hydroFiles) LoadFile(ctx context.Context, name string) ([]byte, error) {
	g.loads.Add(1)
	if g.down.Load() {
		return nil, g.errDown
	}
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.FileStore.LoadFile(ctx, name)
}

// buildSegmentedTable makes a table with several flushed segments plus
// deletes and updates, and returns it with its serialized state.
func buildSegmentedTable(t testing.TB, files FileStore) (*Table, []byte, uint64) {
	t.Helper()
	tbl, err := NewTable("t", uniqSchema(), Config{MaxSegmentRows: 8},
		NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(urow(i, i, fmt.Sprintf("t%d", i%4))); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			tbl.Flush()
		}
	}
	if _, err := tbl.DeleteWhere(Eq(2, types.NewString("t0"))); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.UpdateWhere(Eq(2, types.NewString("t1")), func(r types.Row) types.Row {
		r[1] = types.NewInt(-1)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	ts := tbl.committer.ReadTS()
	return tbl, serializeAt(tbl, ts), ts
}

func restoreInto(t *testing.T, files FileStore, cfg Config, state []byte, ts uint64) *Table {
	t.Helper()
	tbl, err := NewTable("t", uniqSchema(), cfg, NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.RestoreState(state, ts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	return tbl
}

// TestLazyRestoreReturnsBeforeAnyPayloadLoad is the O(manifest) property:
// RestoreState with every payload load gated must still return, and
// metadata queries (COUNT(*) without a filter) answer from stubs alone.
func TestLazyRestoreReturnsBeforeAnyPayloadLoad(t *testing.T) {
	files := newHydroFiles(NewMemFiles())
	src, state, ts := buildSegmentedTable(t, files)
	want := mustCount(t, src)

	files.hold()
	start := time.Now()
	restored := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("lazy RestoreState took %v with payload loads gated", elapsed)
	}
	if got := mustCount(t, restored); got != want {
		t.Fatalf("metadata count on stubs = %d, want %d", got, want)
	}
	if restored.Snapshot().Hydrated() {
		t.Fatal("view reports hydrated while every load is gated")
	}
	files.release()
	if err := restored.WaitHydrated(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSameContents(t, src, restored)
}

// TestDemandHydrationSingleFlight hammers one cold table with concurrent
// demand-hydrating readers: each segment's payload must be fetched exactly
// once no matter how many scans block on it.
func TestDemandHydrationSingleFlight(t *testing.T) {
	files := newHydroFiles(NewMemFiles())
	src, state, ts := buildSegmentedTable(t, files)

	files.hold() // park the restore readahead so all demands pile up cold
	restored := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	files.loads.Store(0)

	nSegs := len(restored.Snapshot().Segs)
	if nSegs == 0 {
		t.Fatal("no segments restored")
	}
	const readers = 32
	var wg sync.WaitGroup
	errs := make([]error, readers)
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			view := restored.Snapshot()
			for si := range view.Segs {
				if err := view.HydrateSegment(context.Background(), si); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	time.Sleep(10 * time.Millisecond) // let demands register against the gate
	files.release()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}
	// Gated loads that returned early don't read payloads; completed loads
	// must number exactly one per segment file.
	if got := restored.Stats.Hydrations.Load(); got != int64(nSegs) {
		t.Fatalf("%d hydrations for %d segments, want exactly one each", got, nSegs)
	}
	assertSameContents(t, src, restored)
}

// TestHydrationWaitCancellation: a ctx-cancelled demand wait returns
// promptly without aborting the shared fetch, and a later wait succeeds.
func TestHydrationWaitCancellation(t *testing.T) {
	files := newHydroFiles(NewMemFiles())
	src, state, ts := buildSegmentedTable(t, files)

	files.hold()
	restored := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	view := restored.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := view.HydrateSegment(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("HydrateSegment = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled wait blocked %v", d)
	}
	files.release()
	if err := view.HydrateSegment(context.Background(), 0); err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	if err := restored.WaitHydrated(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSameContents(t, src, restored)
}

// TestHydrationErrorRetry: a downed blob store fails hydration (scan error,
// HydrationErrors counted); once the store recovers the next demand
// refetches and succeeds.
func TestHydrationErrorRetry(t *testing.T) {
	files := newHydroFiles(NewMemFiles())
	src, state, ts := buildSegmentedTable(t, files)

	files.down.Store(true)
	restored := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	view := restored.Snapshot()
	if err := view.HydrateSegment(context.Background(), 0); err == nil {
		t.Fatal("hydration succeeded against a downed store")
	}
	if restored.Stats.HydrationErrors.Load() == 0 {
		t.Fatal("HydrationErrors not counted")
	}
	files.down.Store(false)
	if err := restored.WaitHydrated(context.Background()); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	assertSameContents(t, src, restored)
}

// TestProbesRightAfterRestoreSeeEveryKey: a segment must be indexed by the
// time it reads as hydrated, because probes wait for the mark alone. Point
// reads issued the moment RestoreState returns race the readahead that
// hydrates the stubs, and must never miss a key.
func TestProbesRightAfterRestoreSeeEveryKey(t *testing.T) {
	files := NewMemFiles()
	src, state, ts := buildSegmentedTable(t, files)
	const keys, readers = 40, 4
	live := make([]bool, keys)
	for id := range live {
		_, live[id], _ = src.GetByUnique([]types.Value{types.NewInt(int64(id))})
	}
	for iter := 0; iter < 200; iter++ {
		tbl, err := NewTable("t", uniqSchema(), Config{MaxSegmentRows: 8}, NewCommitter(), wal.NewLog(), files)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.RestoreState(state, ts); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for id := g; id < keys; id += readers {
					_, ok, err := tbl.GetByUnique([]types.Value{types.NewInt(int64(id))})
					if err != nil || ok != live[id] {
						t.Errorf("iteration %d: key %d found=%v (%v), want %v", iter, id, ok, err, live[id])
					}
				}
			}(g)
		}
		wg.Wait()
		tbl.Close()
		if t.Failed() {
			return
		}
	}
}

// TestRestoreCorruptManifestInstallsNothing: a manifest that fails to parse
// mid-way must leave the table empty — no partially-installed stubs.
func TestRestoreCorruptManifestInstallsNothing(t *testing.T) {
	files := newHydroFiles(NewMemFiles())
	_, state, ts := buildSegmentedTable(t, files)

	tbl, err := NewTable("t", uniqSchema(), Config{MaxSegmentRows: 8},
		NewCommitter(), wal.NewLog(), files)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	if err := tbl.RestoreState(state[:len(state)-3], ts); err == nil {
		t.Fatal("truncated manifest restored without error")
	}
	if n := len(tbl.Snapshot().Segs); n != 0 {
		t.Fatalf("%d stub segments installed from a corrupt manifest, want 0", n)
	}
	// The table is still usable.
	if err := tbl.Insert(urow(1, 1, "post")); err != nil {
		t.Fatal(err)
	}
}

// TestMergeHydratesColdInputs: a merge whose inputs are still stubs must
// hydrate them first and produce the same contents.
func TestMergeHydratesColdInputs(t *testing.T) {
	files := newHydroFiles(NewMemFiles())
	src, state, ts := buildSegmentedTable(t, files)

	restored := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	if !restored.Merge() {
		t.Fatalf("merge on cold table did no work (err: %v)", restored.Stats.LastMergeError())
	}
	assertSameContents(t, src, restored)
}

// TestLazyEagerEquivalence proves three restores — fully hydrated before
// first use (restore + WaitHydrated), lazy, and lazy-with-a-cancelled-wait-
// then-retry — converge to byte-identical serialized state and identical
// scan contents, with a concurrent merge racing hydration on the lazy table.
func TestLazyEagerEquivalence(t *testing.T) {
	files := newHydroFiles(NewMemFiles())
	src, state, ts := buildSegmentedTable(t, files)

	eager := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	if err := eager.WaitHydrated(context.Background()); err != nil {
		t.Fatal(err)
	}
	lazy := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	cancelled := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)

	// Snapshots taken after a lazy restore serialize from metadata alone, so
	// the pre-hydration state must already match the eager table's bytes.
	if !bytes.Equal(serializeAt(eager, ts), serializeAt(lazy, ts)) {
		t.Fatal("lazy pre-hydration SerializeState differs from eager")
	}

	// Cancel a demand wait midway on one table, then retry.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	view := cancelled.Snapshot()
	if err := view.HydrateSegment(ctx, 0); err == nil && !view.Segs[0].Seg.Hydrated() {
		t.Fatal("cancelled HydrateSegment reported success on a cold segment")
	}

	// Race a merge against demand hydration on the lazy table.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lazy.Merge()
	}()
	if err := lazy.WaitHydrated(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := cancelled.WaitHydrated(context.Background()); err != nil {
		t.Fatal(err)
	}

	assertSameContents(t, src, eager)
	assertSameContents(t, src, lazy)
	assertSameContents(t, src, cancelled)
	// Post-hydration serialized state matches eager byte-for-byte on the
	// unmerged table (the merged one changed segment layout, not contents).
	if !bytes.Equal(serializeAt(eager, ts), serializeAt(cancelled, ts)) {
		t.Fatal("post-hydration SerializeState differs between eager and cancelled-then-retried")
	}
}

// constantSegment is a data file for uniqSchema of segment id whose every
// column holds one value across rows rows: width-0 bit-packs and a
// one-entry dictionary over width-0 codes, a few dozen bytes however many
// rows it claims.
func constantSegment(t *testing.T, id uint64, rows int) []byte {
	t.Helper()
	constant := func(v int64) []byte {
		b := binary.AppendUvarint([]byte{byte(codec.KindBitPack)}, uint64(rows))
		return append(binary.AppendVarint(b, v), 0, 0) // width 0, no words
	}
	ints := func(v int64) codec.IntColumn {
		c := codec.DecodeIntColumn(codec.NewReader(constant(v)))
		if c == nil {
			t.Fatal("constant int column rejected")
		}
		return c
	}
	dict := append(codec.AppendBytes([]byte{byte(codec.KindDict), 1}, "t"), constant(0)...)
	strs := codec.DecodeStringColumn(codec.NewReader(dict))
	if strs == nil {
		t.Fatal("constant dict column rejected")
	}
	seg := colstore.NewStub(id, rows, uniqSchema())
	seg.Cols = []colstore.Column{{Ints: ints(7)}, {Ints: ints(9)}, {Strs: strs}}
	seg.Min = []types.Value{types.NewInt(7), types.NewInt(9), types.NewString("t")}
	seg.Max = seg.Min
	seg.HasRange = []bool{true, true, true}
	return seg.Encode()
}

// TestSegmentRowClaimBounded: colstore.Decode accepts a constant column
// claiming 2^31−1 rows in a few bytes, so a table bounds a decoded
// segment's rows by the larger of its MaxSegmentRows and the default —
// at hydration and at replay, with an error wrapping codec.ErrCorrupt.
func TestSegmentRowClaimBounded(t *testing.T) {
	const claim = math.MaxInt32
	if _, err := colstore.Decode(constantSegment(t, 1, claim), uniqSchema()); err != nil {
		t.Fatalf("colstore.Decode: %v (the bound is the table's to apply)", err)
	}
	// A restore under a smaller config still reads a segment of the
	// default size.
	small := NewMemFiles()
	tbl, err := NewTable("t", uniqSchema(), Config{MaxSegmentRows: 8}, NewCommitter(), wal.NewLog(), small)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if _, err := tbl.decodeSegment(constantSegment(t, 1, colstore.MaxSegmentRows)); err != nil {
		t.Fatalf("segment of the default size: %v", err)
	}

	// Hydration: a stub's file replaced by the hostile payload.
	files := NewMemFiles()
	src, state, ts := buildSegmentedTable(t, files)
	meta := src.Snapshot().Segs[0]
	if err := files.SaveFile(meta.File, constantSegment(t, meta.Seg.ID, claim)); err != nil {
		t.Fatal(err)
	}
	restored := restoreInto(t, files, Config{MaxSegmentRows: 8}, state, ts)
	view := restored.Snapshot()
	si := slices.IndexFunc(view.Segs, func(m *colstore.Meta) bool { return m.File == meta.File })
	if si < 0 {
		t.Fatalf("restore has no stub of %s", meta.File)
	}
	if err := view.HydrateSegment(context.Background(), si); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("hydrating a segment claiming %d rows: err %v, want ErrCorrupt", claim, err)
	}

	// Replay: a flush record carrying the hostile payload.
	m := &mutation{Table: "t", NewSegs: []segInstall{{File: "hostile", SegBytes: constantSegment(t, 99, claim)}}}
	rec := wal.Record{LSN: 1, CommitTS: 2, Kind: wal.KindFlush, Data: m.appendSegDeletes(m.encodeHead())}
	if err := tbl.Apply(rec); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("replaying a segment claiming %d rows: err %v, want ErrCorrupt", claim, err)
	}
	if n := len(tbl.Snapshot().Segs); n != 0 {
		t.Fatalf("%d segments installed by the rejected record", n)
	}
}
