package rowstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"s2db/internal/types"
)

func key(i int) []byte { return types.EncodeKey(nil, types.NewInt(int64(i))) }

func row(i int) types.Row { return types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprint(i))} }

func TestInsertGetCommit(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	if _, err := tx.Insert(key(1), row(10)); err != nil {
		t.Fatal(err)
	}
	// Own write visible inside the txn.
	if r, ok := tx.Get(key(1)); !ok || r[0].I != 10 {
		t.Fatal("own write not visible")
	}
	// Not visible to a snapshot before commit.
	if _, ok := s.Get(key(1), 100); ok {
		t.Fatal("uncommitted write visible to snapshot")
	}
	tx.Commit(5)
	if _, ok := s.Get(key(1), 4); ok {
		t.Fatal("write visible before its commit timestamp")
	}
	if r, ok := s.Get(key(1), 5); !ok || r[0].I != 10 {
		t.Fatal("committed write not visible at commit ts")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestAbortDiscards(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	tx.Insert(key(1), row(1))
	tx.Abort()
	if _, ok := s.Get(key(1), 100); ok {
		t.Fatal("aborted write visible")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after abort", s.Len())
	}
	// The key can be rewritten afterwards.
	tx2 := s.Begin(0)
	if _, err := tx2.Insert(key(1), row(2)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit(1)
	if r, ok := s.Get(key(1), 1); !ok || r[0].I != 2 {
		t.Fatal("rewrite after abort failed")
	}
}

func TestMVCCVersions(t *testing.T) {
	s := NewStore(0)
	for v := 1; v <= 3; v++ {
		tx := s.Begin(uint64(v * 10))
		tx.Insert(key(1), row(v*100))
		tx.Commit(uint64(v * 10))
	}
	for v := 1; v <= 3; v++ {
		r, ok := s.Get(key(1), uint64(v*10))
		if !ok || r[0].I != int64(v*100) {
			t.Fatalf("snapshot at %d saw %v", v*10, r)
		}
		// Between versions, still sees the older one.
		r, _ = s.Get(key(1), uint64(v*10+5))
		if r[0].I != int64(v*100) {
			t.Fatalf("snapshot at %d saw %v", v*10+5, r)
		}
	}
	if _, ok := s.Get(key(1), 9); ok {
		t.Fatal("snapshot before first commit saw a row")
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	tx.Insert(key(7), row(7))
	tx.Commit(1)
	tx2 := s.Begin(1)
	existed, err := tx2.Delete(key(7))
	if err != nil || !existed {
		t.Fatalf("Delete = %v, %v", existed, err)
	}
	tx2.Commit(2)
	if _, ok := s.Get(key(7), 1); !ok {
		t.Fatal("old snapshot lost the row after delete")
	}
	if _, ok := s.Get(key(7), 2); ok {
		t.Fatal("deleted row visible at delete ts")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete", s.Len())
	}
	// Deleting a missing key reports false.
	tx3 := s.Begin(2)
	existed, err = tx3.Delete(key(7))
	if err != nil || existed {
		t.Fatalf("second Delete = %v, %v", existed, err)
	}
	tx3.Abort()
}

func TestScanOrderAndBounds(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	for _, i := range []int{5, 1, 9, 3, 7} {
		tx.Insert(key(i), row(i))
	}
	tx.Commit(1)
	var got []int64
	s.Scan(key(3), key(8), 1, func(k []byte, r types.Row) bool {
		got = append(got, r[0].I)
		return true
	})
	want := []int64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Scan got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan got %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	s.Scan(nil, nil, 1, func(k []byte, r types.Row) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop scanned %d", count)
	}
}

func TestRowLockBlocksConcurrentWriter(t *testing.T) {
	s := NewStore(50 * time.Millisecond)
	tx1 := s.Begin(0)
	tx1.Insert(key(1), row(1))
	tx2 := s.Begin(0)
	if _, err := tx2.Insert(key(1), row(2)); err != ErrLockTimeout {
		t.Fatalf("second writer got %v, want ErrLockTimeout", err)
	}
	tx1.Commit(1)
	// After release, tx3 can write.
	tx3 := s.Begin(1)
	if _, err := tx3.Insert(key(1), row(3)); err != nil {
		t.Fatal(err)
	}
	tx3.Commit(2)
	tx2.Abort()
}

func TestWriteAfterDoneFails(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	tx.Commit(1)
	if _, err := tx.Insert(key(1), row(1)); err != ErrTxnDone {
		t.Fatalf("Insert after commit = %v", err)
	}
	if _, err := tx.Delete(key(1)); err != ErrTxnDone {
		t.Fatalf("Delete after commit = %v", err)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	s := NewStore(0)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := s.Begin(0)
				k := w*perWriter + i
				if _, err := tx.Insert(key(k), row(k)); err != nil {
					t.Errorf("insert %d: %v", k, err)
					tx.Abort()
					return
				}
				tx.Commit(uint64(k) + 1)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*perWriter)
	}
	// All rows readable and ordered.
	n := 0
	var prev []byte
	s.Scan(nil, nil, ^uint64(0), func(k []byte, r types.Row) bool {
		if prev != nil && string(prev) >= string(k) {
			t.Error("scan out of order")
			return false
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != writers*perWriter {
		t.Fatalf("scanned %d rows", n)
	}
}

func TestConcurrentSameKeyCounter(t *testing.T) {
	// Concurrent increments on one row must serialize via the row lock.
	s := NewStore(5 * time.Second)
	tx := s.Begin(0)
	tx.Insert(key(0), types.Row{types.NewInt(0)})
	tx.Commit(1)
	var ts atomic.Uint64
	ts.Store(1)
	const goroutines, increments = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					read := ts.Load()
					tx := s.Begin(read)
					r, ok := tx.Get(key(0))
					if !ok {
						t.Error("row lost")
						tx.Abort()
						return
					}
					// The row lock is only taken at Insert; re-read after
					// locking to get the latest value.
					if _, err := tx.Insert(key(0), types.Row{types.NewInt(r[0].I)}); err != nil {
						tx.Abort()
						continue
					}
					latest, _ := tx.store.Get(key(0), ts.Load())
					tx.Insert(key(0), types.Row{types.NewInt(latest[0].I + 1)})
					tx.Commit(ts.Add(1))
					break
				}
			}
		}()
	}
	wg.Wait()
	r, ok := s.Get(key(0), ts.Load())
	if !ok || r[0].I != goroutines*increments {
		t.Fatalf("counter = %v, want %d", r, goroutines*increments)
	}
}

func TestQuickInsertScanMatchesMap(t *testing.T) {
	f := func(keys []uint16) bool {
		s := NewStore(0)
		model := map[uint16]int64{}
		ts := uint64(0)
		for _, k := range keys {
			ts++
			tx := s.Begin(ts - 1)
			tx.Insert(key(int(k)), types.Row{types.NewInt(int64(k) * 2)})
			tx.Commit(ts)
			model[k] = int64(k) * 2
		}
		if s.Len() != len(model) {
			return false
		}
		seen := 0
		good := true
		s.Scan(nil, nil, ts, func(_ []byte, r types.Row) bool {
			seen++
			if model[uint16(r[0].I/2)] != r[0].I {
				good = false
			}
			return true
		})
		return good && seen == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRemovesTombstonedNodes(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 100; i++ {
		tx := s.Begin(uint64(i))
		tx.Insert(key(i), row(i))
		tx.Commit(uint64(i + 1))
	}
	// Tombstone the even keys (like a flush would).
	tx := s.Begin(100)
	for i := 0; i < 100; i += 2 {
		if _, _, err := tx.TryDeleteLatest(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit(101)
	if s.NodeCount() != 100 {
		t.Fatalf("NodeCount = %d before compaction", s.NodeCount())
	}
	removed := s.Compact(101)
	if removed != 50 {
		t.Fatalf("Compact removed %d nodes, want 50", removed)
	}
	if s.NodeCount() != 50 || s.Len() != 50 {
		t.Fatalf("NodeCount=%d Len=%d after compaction", s.NodeCount(), s.Len())
	}
	// Survivors readable and ordered; removed keys absent.
	for i := 0; i < 100; i++ {
		_, ok := s.Get(key(i), 101)
		if ok != (i%2 == 1) {
			t.Fatalf("key %d visibility = %v", i, ok)
		}
	}
	var prev int64 = -1
	s.Scan(nil, nil, 101, func(_ []byte, r types.Row) bool {
		if r[0].I <= prev {
			t.Fatal("scan out of order after compaction")
		}
		prev = r[0].I
		return true
	})
}

func TestCompactKeepsRecentTombstones(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	tx.Insert(key(1), row(1))
	tx.Commit(1)
	tx2 := s.Begin(1)
	tx2.Delete(key(1))
	tx2.Commit(5)
	// keepTS below the tombstone: snapshots in (1,5) still need the row,
	// and snapshots >= 5 need the tombstone; the node must survive.
	if removed := s.Compact(3); removed != 0 {
		t.Fatalf("Compact removed %d, want 0", removed)
	}
	if _, ok := s.Get(key(1), 3); !ok {
		t.Fatal("row lost for pre-delete snapshot")
	}
	// At keepTS past the tombstone it may go.
	if removed := s.Compact(5); removed != 1 {
		t.Fatalf("Compact removed %d, want 1", removed)
	}
}

func TestCompactKeepsLockedNodes(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	tx.Insert(key(1), row(1))
	// Active (uncommitted) writer: the node must survive compaction and the
	// transaction must still commit correctly afterwards.
	if removed := s.Compact(^uint64(0)); removed != 0 {
		t.Fatalf("Compact removed a locked node (%d)", removed)
	}
	tx.Commit(7)
	if r, ok := s.Get(key(1), 7); !ok || r[0].I != 1 {
		t.Fatal("write lost across compaction")
	}
}

func TestCompactTrimsVersionChains(t *testing.T) {
	s := NewStore(0)
	for v := 1; v <= 50; v++ {
		tx := s.Begin(uint64(v - 1))
		tx.Insert(key(1), row(v))
		tx.Commit(uint64(v))
	}
	s.Compact(50)
	// Latest value survives; ancient snapshots (below keepTS) are gone by
	// contract, but the newest version at keepTS must be exact.
	if r, ok := s.Get(key(1), 50); !ok || r[0].I != 50 {
		t.Fatalf("latest version wrong after trim: %v", r)
	}
	// The chain now has a single version: walk it via a fresh update.
	tx := s.Begin(50)
	tx.Insert(key(1), row(51))
	tx.Commit(51)
	if r, _ := s.Get(key(1), 51); r[0].I != 51 {
		t.Fatal("update after trim failed")
	}
}

// TestCommitNeverVisibleBelowCommitTS spins snapshot readers just below the
// commit timestamp while the writer commits: the row must stay invisible to
// them at every instant, including the one between the transaction turning
// committed and its versions being stamped.
func TestCommitNeverVisibleBelowCommitTS(t *testing.T) {
	s := NewStore(0)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		commitTS := uint64(2*i + 10)
		tx := s.Begin(commitTS - 1)
		if _, err := tx.Insert(key(i), row(i)); err != nil {
			t.Fatal(err)
		}
		var early atomic.Bool
		var spinning atomic.Int32
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					if _, ok := s.Get(key(i), commitTS-1); ok {
						early.Store(true)
					}
					if n == 0 {
						spinning.Add(1)
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		for spinning.Load() < 2 {
			runtime.Gosched()
		}
		tx.Commit(commitTS)
		close(stop)
		wg.Wait()
		if early.Load() {
			t.Fatalf("round %d: row visible at snapshot %d, below commitTS %d", i, commitTS-1, commitTS)
		}
		if _, ok := s.Get(key(i), commitTS); !ok {
			t.Fatalf("round %d: committed row invisible at its own commitTS", i)
		}
	}
}

// TestRepeatedCommitIsNoOp pins that only the first Commit (or Abort) of a
// transaction decides its outcome and timestamp.
func TestRepeatedCommitIsNoOp(t *testing.T) {
	s := NewStore(0)
	tx := s.Begin(0)
	if _, err := tx.Insert(key(1), row(1)); err != nil {
		t.Fatal(err)
	}
	tx.Commit(10)
	tx.Commit(5)
	tx.Abort()
	if got := tx.commitTS.Load(); got != 10 {
		t.Fatalf("commitTS after repeated Commit = %d, want 10", got)
	}
	if _, ok := s.Get(key(1), 7); ok {
		t.Fatal("second Commit moved the row to an earlier timestamp")
	}
	if _, ok := s.Get(key(1), 10); !ok {
		t.Fatal("row invisible at its commitTS")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (live count applied once)", s.Len())
	}

	ab := s.Begin(10)
	if _, err := ab.Insert(key(2), row(2)); err != nil {
		t.Fatal(err)
	}
	ab.Abort()
	ab.Commit(20)
	if _, ok := s.Get(key(2), 100); ok {
		t.Fatal("Commit after Abort made the row visible")
	}
}

// BenchmarkStoreScan walks a 4 096-row store at a snapshot, the loop of a
// full write-buffer scan: ns/op is per walked row. Rows are inserted in a
// shuffled order, so consecutive keys sit in scattered nodes as they do in
// a buffer written by concurrent transactions.
func BenchmarkStoreScan(b *testing.B) {
	const rows = 4096
	s := NewStore(0)
	for _, i := range rand.New(rand.NewSource(1)).Perm(rows) {
		tx := s.Begin(0)
		if _, err := tx.Insert(key(i), row(i)); err != nil {
			b.Fatal(err)
		}
		tx.Commit(uint64(i + 1))
	}
	b.ResetTimer()
	walked := 0
	for walked < b.N {
		s.Scan(nil, nil, rows, func([]byte, types.Row) bool {
			walked++
			return true
		})
	}
	if walked < rows {
		b.Fatal("walk visited too few rows")
	}
}
