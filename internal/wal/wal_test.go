package wal

import (
	"reflect"
	"sync"
	"testing"
)

func TestAppendAssignsDenseLSNs(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		if lsn := l.Append(KindInsert, uint64(i), []byte{byte(i)}); lsn != uint64(i) {
			t.Fatalf("Append %d gave LSN %d", i, lsn)
		}
	}
	if l.Head() != 5 {
		t.Fatalf("Head = %d", l.Head())
	}
}

func TestRecordsRange(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(KindInsert, uint64(i), []byte{byte(i)})
	}
	recs, err := l.Records(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LSN != 3 || recs[2].LSN != 5 {
		t.Fatalf("Records(3,6) = %v", recs)
	}
	// Range past head is clamped.
	recs, _ = l.Records(8, 100)
	if len(recs) != 2 {
		t.Fatalf("clamped range returned %d records", len(recs))
	}
	// Empty range.
	if recs, _ := l.Records(6, 6); recs != nil {
		t.Fatalf("empty range returned %v", recs)
	}
}

func TestDurableWatermark(t *testing.T) {
	l := NewLog()
	l.Append(KindInsert, 1, nil)
	l.MarkDurable(1)
	if l.Durable() != 1 {
		t.Fatalf("Durable = %d", l.Durable())
	}
	l.MarkDurable(0) // never regresses
	if l.Durable() != 1 {
		t.Fatalf("Durable regressed to %d", l.Durable())
	}
}

func TestTruncate(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(KindInsert, uint64(i), nil)
	}
	l.TruncateBefore(4)
	if l.Base() != 4 {
		t.Fatalf("Base = %d", l.Base())
	}
	if _, err := l.Records(2, 6); err == nil {
		t.Fatal("reading truncated records should fail")
	}
	recs, err := l.Records(4, 6)
	if err != nil || len(recs) != 2 || recs[0].LSN != 4 {
		t.Fatalf("Records(4,6) = %v, %v", recs, err)
	}
	if _, err := l.Subscribe(2); err == nil {
		t.Fatal("subscribing below base should fail")
	}
}

func TestSubscribeBacklogThenLive(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3; i++ {
		l.Append(KindInsert, uint64(i), []byte{byte(i)})
	}
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var got []uint64
	go func() {
		defer wg.Done()
		// Expect the backlog (LSN 1, 2) plus one live append (LSN 3).
		for len(got) < 3 {
			pg, ok := sub.NextPage()
			if !ok {
				return
			}
			for _, rec := range pg.Records {
				got = append(got, rec.LSN)
			}
		}
	}()
	l.Append(KindMerge, 99, nil)
	wg.Wait()
	want := []uint64{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subscription got %v, want %v", got, want)
	}
}

func TestSubscriptionCancelWakesReader(t *testing.T) {
	l := NewLog()
	sub, _ := l.Subscribe(0)
	done := make(chan bool)
	go func() {
		_, ok := sub.NextPage()
		done <- ok
	}()
	sub.Cancel()
	if ok := <-done; ok {
		t.Fatal("NextPage after cancel with empty backlog should report !ok")
	}
}

func TestSubscriptionLag(t *testing.T) {
	l := NewLog()
	l.Append(KindInsert, 1, nil)
	l.Append(KindInsert, 2, nil)
	sub, _ := l.Subscribe(0)
	if sub.Lag() != 2 || sub.LagPages() != 2 {
		t.Fatalf("Lag = %d records in %d pages, want 2 in 2", sub.Lag(), sub.LagPages())
	}
	sub.NextPage()
	if sub.Lag() != 1 || sub.LagPages() != 1 {
		t.Fatalf("Lag after one page = %d records in %d pages", sub.Lag(), sub.LagPages())
	}
	if pg, ok := sub.NextPage(); !ok || pg.FirstLSN != 1 {
		t.Fatalf("second page = %+v ok=%v, want LSN 1", pg, ok)
	}
	if sub.Lag() != 0 || sub.LagPages() != 0 {
		t.Fatalf("Lag after drain = %d records in %d pages", sub.Lag(), sub.LagPages())
	}
	sub.Cancel()
}

// testPlacement is the placement test chunks are written under.
var testPlacement = Placement{HashVersion: 1, Partitions: 4}

func TestEncodeDecodeRecords(t *testing.T) {
	recs := []Record{
		{LSN: 0, Kind: KindInsert, CommitTS: 5, Data: []byte("hello")},
		{LSN: 1, Kind: KindFlush, CommitTS: 6, Data: nil},
		{LSN: 2, Kind: KindMerge, CommitTS: 7, Data: []byte{0, 1, 2}},
	}
	buf := EncodeRecords(testPlacement, recs)
	pl, got, err := DecodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if pl != testPlacement {
		t.Fatalf("placement %+v, want %+v", pl, testPlacement)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records", len(got))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Kind != recs[i].Kind || got[i].CommitTS != recs[i].CommitTS {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		if string(got[i].Data) != string(recs[i].Data) {
			t.Fatalf("record %d data mismatch", i)
		}
	}
	// Truncated chunk fails cleanly.
	if _, _, err := DecodeRecords(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated chunk should fail")
	}
}

func TestConcurrentAppendAndSubscribe(t *testing.T) {
	l := NewLog()
	sub, _ := l.Subscribe(0)
	const n = 2000
	go func() {
		for i := 0; i < n; i++ {
			l.Append(KindInsert, uint64(i), nil)
		}
	}()
	for i := 0; i < n; {
		pg, ok := sub.NextPage()
		if !ok {
			t.Fatalf("record %d: subscription ended", i)
		}
		for _, rec := range pg.Records {
			if rec.LSN != uint64(i) {
				t.Fatalf("record %d: got LSN %d", i, rec.LSN)
			}
			i++
		}
	}
	sub.Cancel()
}

func TestTruncateEmptyLogAdvancesBase(t *testing.T) {
	// A replica bootstrapped from a snapshot truncates an empty log to the
	// snapshot LSN; the next append must land exactly there.
	l := NewLog()
	l.TruncateBefore(42)
	if l.Base() != 42 || l.Head() != 42 {
		t.Fatalf("Base=%d Head=%d, want 42/42", l.Base(), l.Head())
	}
	if lsn := l.Append(KindInsert, 1, nil); lsn != 42 {
		t.Fatalf("Append after truncate gave LSN %d", lsn)
	}
}

func TestRecordWallTimeSurvivesChunks(t *testing.T) {
	l := NewLog()
	l.Append(KindInsert, 1, []byte("x"))
	recs, _ := l.Records(0, 1)
	if recs[0].Wall == 0 {
		t.Fatal("Append did not stamp wall time")
	}
	buf := EncodeRecords(testPlacement, recs)
	_, got, err := DecodeRecords(buf)
	if err != nil || got[0].Wall != recs[0].Wall {
		t.Fatalf("wall time lost across chunk encode: %v vs %v (%v)", got[0].Wall, recs[0].Wall, err)
	}
}

func TestAppendRecordPreservesIdentity(t *testing.T) {
	src := NewLog()
	src.Append(KindInsert, 7, []byte("payload"))
	recs, _ := src.Records(0, 1)
	dst := NewLog()
	if err := dst.AppendRecord(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Wrong LSN is rejected.
	if err := dst.AppendRecord(recs[0]); err == nil {
		t.Fatal("duplicate LSN accepted")
	}
	got, _ := dst.Records(0, 1)
	if got[0].Wall != recs[0].Wall || got[0].CommitTS != 7 {
		t.Fatal("record identity not preserved")
	}
}
