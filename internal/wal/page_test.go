package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func recPayload() []byte { return []byte("abcd") }

// recSize is the accounting size of a test record (4-byte payload).
const recSize = recordOverhead + 4

func TestPageSealBySize(t *testing.T) {
	l := NewLogWith(PageConfig{MaxBytes: 3 * recSize, FlushInterval: time.Hour})
	s, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		l.Append(KindInsert, uint64(i), recPayload())
	}
	for want := uint64(0); want < 6; want += 3 {
		pg, ok := s.NextPage()
		if !ok {
			t.Fatal("subscription ended early")
		}
		if pg.FirstLSN != want || pg.EndLSN != want+3 || len(pg.Records) != 3 {
			t.Fatalf("page = [%d,%d) len %d, want [%d,%d)", pg.FirstLSN, pg.EndLSN, len(pg.Records), want, want+3)
		}
		if pg.Bytes != 3*recSize {
			t.Fatalf("page bytes = %d, want %d", pg.Bytes, 3*recSize)
		}
	}
	if got := l.PagesSealed(); got != 2 {
		t.Fatalf("pages sealed = %d, want 2", got)
	}
}

func TestPageSealByRecordCount(t *testing.T) {
	l := NewLogWith(PageConfig{MaxBytes: 1 << 20, MaxRecords: 4, FlushInterval: time.Hour})
	s, _ := l.Subscribe(0)
	for i := 0; i < 4; i++ {
		l.Append(KindInsert, uint64(i), recPayload())
	}
	pg, ok := s.NextPage()
	if !ok || pg.FirstLSN != 0 || pg.EndLSN != 4 {
		t.Fatalf("page = %+v ok=%v, want [0,4)", pg, ok)
	}
}

func TestGroupCommitTimerSeals(t *testing.T) {
	l := NewLogWith(PageConfig{MaxBytes: 1 << 20, MaxRecords: 1 << 20, FlushInterval: 2 * time.Millisecond})
	s, _ := l.Subscribe(0)
	l.Append(KindInsert, 1, recPayload())
	l.Append(KindInsert, 2, recPayload())
	done := make(chan Page, 1)
	go func() {
		pg, _ := s.NextPage()
		done <- pg
	}()
	select {
	case pg := <-done:
		if pg.FirstLSN != 0 || pg.EndLSN != 2 {
			t.Fatalf("timer-sealed page = [%d,%d), want [0,2)", pg.FirstLSN, pg.EndLSN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("group-commit timer never sealed the open page")
	}
}

func TestSyncSealsOpenPage(t *testing.T) {
	l := NewLogWith(PageConfig{FlushInterval: time.Hour})
	s, _ := l.Subscribe(0)
	l.Append(KindInsert, 1, recPayload())
	if s.LagPages() != 0 {
		t.Fatal("open-page record leaked before seal")
	}
	l.Sync()
	if s.LagPages() != 1 {
		t.Fatalf("Sync did not flush the open page: %d pages queued", s.LagPages())
	}
	if pg, ok := s.NextPage(); !ok || len(pg.Records) != 1 || pg.Records[0].LSN != 0 {
		t.Fatalf("Sync flushed page %+v ok=%v, want record 0", pg, ok)
	}
}

func TestSubscribeMidOpenPageTrims(t *testing.T) {
	l := NewLogWith(PageConfig{FlushInterval: time.Hour})
	for i := 0; i < 5; i++ {
		l.Append(KindInsert, uint64(i), recPayload())
	}
	s, err := l.Subscribe(2) // inside the open page
	if err != nil {
		t.Fatal(err)
	}
	l.Sync()
	pg, ok := s.NextPage()
	if !ok || pg.FirstLSN != 2 || pg.EndLSN != 5 {
		t.Fatalf("trimmed page = [%d,%d) ok=%v, want [2,5)", pg.FirstLSN, pg.EndLSN, ok)
	}
	if pg.Records[0].LSN != 2 {
		t.Fatalf("first record LSN = %d, want 2", pg.Records[0].LSN)
	}
}

func TestSubscribeBacklogIsPageAligned(t *testing.T) {
	l := NewLogWith(PageConfig{MaxRecords: 2, MaxBytes: 1 << 20, FlushInterval: time.Hour})
	for i := 0; i < 6; i++ {
		l.Append(KindInsert, uint64(i), recPayload())
	}
	s, _ := l.Subscribe(0)
	if got := s.LagPages(); got != 3 {
		t.Fatalf("backlog pages = %d, want 3", got)
	}
	if got := s.Lag(); got != 6 {
		t.Fatalf("backlog records = %d, want 6", got)
	}
	if got := s.LagBytes(); got != 6*recSize {
		t.Fatalf("backlog bytes = %d, want %d", got, 6*recSize)
	}
}

func TestSlowConsumerDetached(t *testing.T) {
	l := NewLogWith(PageConfig{SubscriptionBudget: 2 * recSize})
	s, _ := l.Subscribe(0)
	// Per-record pages: the third undelivered page exceeds the budget.
	for i := 0; i < 5; i++ {
		l.Append(KindInsert, uint64(i), recPayload())
	}
	if !errors.Is(s.Err(), ErrSlowConsumer) {
		t.Fatalf("Err() = %v, want ErrSlowConsumer", s.Err())
	}
	// The buffered prefix still drains in order, then the stream ends.
	var last uint64
	n := 0
	for {
		pg, ok := s.NextPage()
		if !ok {
			break
		}
		for _, r := range pg.Records {
			if n > 0 && r.LSN != last+1 {
				t.Fatalf("out-of-order drain: %d after %d", r.LSN, last)
			}
			last = r.LSN
			n++
		}
	}
	if n == 0 || n >= 5 {
		t.Fatalf("drained %d records, want a strict prefix of 5", n)
	}
	// The log must have dropped the subscription: new appends don't pile up.
	l.Append(KindInsert, 9, recPayload())
	if got := s.Lag(); got != 0 {
		t.Fatalf("detached subscription still receives records: lag %d", got)
	}
}

// TestStalledSubscriberUnderConcurrentAppends is the -race test for a
// stalled subscriber: writers keep appending while the reader sleeps past
// the budget, then drains whatever was buffered before the detachment.
func TestStalledSubscriberUnderConcurrentAppends(t *testing.T) {
	l := NewLogWith(PageConfig{SubscriptionBudget: 8 * recSize})
	s, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(KindInsert, 0, recPayload())
			}
		}()
	}
	// Stall until the budget trips, then drain.
	deadline := time.After(5 * time.Second)
	for s.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("stalled subscriber was never detached")
		case <-time.After(time.Millisecond):
		}
	}
	wg.Wait()
	prev := int64(-1)
	for {
		pg, ok := s.NextPage()
		if !ok {
			break
		}
		for _, rec := range pg.Records {
			if int64(rec.LSN) != prev+1 {
				t.Fatalf("drain out of order: LSN %d after %d", rec.LSN, prev)
			}
			prev = int64(rec.LSN)
		}
	}
	if !errors.Is(s.Err(), ErrSlowConsumer) {
		t.Fatalf("Err() = %v, want ErrSlowConsumer", s.Err())
	}
	if head := l.Head(); head != writers*perWriter {
		t.Fatalf("head = %d, want %d (appends must not block on the stalled reader)", head, writers*perWriter)
	}
}

func TestChunkAtPageAligned(t *testing.T) {
	l := NewLogWith(PageConfig{MaxRecords: 3, MaxBytes: 1 << 20, FlushInterval: time.Hour})
	for i := 0; i < 7; i++ {
		l.Append(KindInsert, uint64(i), recPayload()) // pages [0,3) [3,6), open [6,7)
	}
	recs, end, err := l.ChunkAt(0, 100, 0)
	if err != nil || end != 3 || len(recs) != 3 {
		t.Fatalf("ChunkAt(0) = end %d len %d err %v, want page [0,3)", end, len(recs), err)
	}
	recs, end, _ = l.ChunkAt(3, 100, 0)
	if end != 6 || len(recs) != 3 {
		t.Fatalf("ChunkAt(3) = end %d len %d, want page [3,6)", end, len(recs))
	}
	// Partial trailing chunk from the open page, clamped by the limit.
	recs, end, _ = l.ChunkAt(6, 7, 0)
	if end != 7 || len(recs) != 1 || recs[0].LSN != 6 {
		t.Fatalf("ChunkAt(6,7) = end %d len %d, want partial [6,7)", end, len(recs))
	}
	if _, end, _ = l.ChunkAt(6, 6, 0); end != 6 {
		t.Fatalf("ChunkAt(6,6) = end %d, want empty chunk at 6", end)
	}
	// maxRecords splits a page into smaller aligned chunks.
	recs, end, _ = l.ChunkAt(0, 100, 2)
	if end != 2 || len(recs) != 2 {
		t.Fatalf("ChunkAt(0,·,2) = end %d len %d, want [0,2)", end, len(recs))
	}
	// Mid-page chunk resumes to the same page boundary.
	recs, end, _ = l.ChunkAt(2, 100, 0)
	if end != 3 || len(recs) != 1 {
		t.Fatalf("ChunkAt(2) = end %d len %d, want [2,3)", end, len(recs))
	}
}

func TestTruncateBeforeClampsPages(t *testing.T) {
	l := NewLogWith(PageConfig{MaxRecords: 3, MaxBytes: 1 << 20, FlushInterval: time.Hour})
	for i := 0; i < 7; i++ {
		l.Append(KindInsert, uint64(i), recPayload())
	}
	l.TruncateBefore(4) // inside page [3,6)
	if _, _, err := l.ChunkAt(1, 100, 0); err == nil {
		t.Fatal("ChunkAt below base must error")
	}
	recs, end, err := l.ChunkAt(4, 100, 0)
	if err != nil || end != 6 || len(recs) != 2 || recs[0].LSN != 4 {
		t.Fatalf("ChunkAt(4) after truncate = end %d len %d err %v, want [4,6)", end, len(recs), err)
	}
	// Truncating into the open page keeps the open tail consistent.
	l.TruncateBefore(7)
	l.Append(KindInsert, 7, recPayload())
	l.Sync()
	recs, end, err = l.ChunkAt(7, 100, 0)
	if err != nil || end != 8 || len(recs) != 1 || recs[0].LSN != 7 {
		t.Fatalf("post-truncate chunk = end %d len %d err %v, want [7,8)", end, len(recs), err)
	}
}

// TestInterleavedTruncations drives a log through random appends, seals
// and truncations — some past the head, as a snapshot bootstrap makes —
// against a model of every record and page boundary. After each step the
// base, head, open page, sealed spans, held count and bytes match the
// model; a subscription from any retained LSN replays exactly the sealed
// records from there, on the sealed boundaries; and every page delivered
// before a truncation still reads the records it was given after it.
func TestInterleavedTruncations(t *testing.T) {
	l := NewLogWith(PageConfig{MaxRecords: 1 << 20, MaxBytes: 1 << 30, FlushInterval: time.Hour})
	payload := func(lsn uint64) []byte { return []byte{byte(lsn), byte(lsn >> 8), byte(lsn * 7)} }
	var (
		base, head uint64
		ends       []uint64 // sealed page ends, ascending
		delivered  int      // pages checked across a truncation
	)
	rng := uint64(1)
	next := func(n uint64) uint64 { // xorshift
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for step := 0; step < 4000; step++ {
		switch op := next(10); {
		case op < 6:
			for k := next(4) + 1; k > 0; k-- {
				if lsn := l.Append(KindInsert, head, payload(head)); lsn != head {
					t.Fatalf("step %d: Append gave LSN %d, want %d", step, lsn, head)
				}
				head++
			}
		case op < 8:
			l.Sync()
			if open := max(base, lastOr(ends, 0)); head > open {
				ends = append(ends, head)
			}
		default:
			lsn := base + next(head-base+6) // up to 5 past the head
			if next(4) == 0 {
				lsn = base - min(base, next(3)) // at or below the base: a no-op
			}
			// Pages delivered now alias the log's array as it is.
			sub, err := l.Subscribe(base)
			if err != nil {
				t.Fatal(err)
			}
			var pages []Page
			for sub.Lag() > 0 {
				pg, _ := sub.NextPage()
				pages = append(pages, pg)
			}
			sub.Cancel()
			l.TruncateBefore(lsn)
			for _, pg := range pages {
				for i, r := range pg.Records {
					if at := pg.FirstLSN + uint64(i); r.LSN != at || string(r.Data) != string(payload(at)) {
						t.Fatalf("step %d: truncating to %d rewrote a delivered page: LSN %d data %v at %d", step, lsn, r.LSN, r.Data, at)
					}
				}
				delivered++
			}
			if lsn > base {
				base = lsn
			}
			head = max(head, base)
			for len(ends) > 0 && ends[0] <= base {
				ends = ends[1:]
			}
		}
		openStart := max(base, lastOr(ends, 0))
		if l.Base() != base || l.Head() != head || l.openStart != openStart {
			t.Fatalf("step %d: base %d head %d openStart %d, want %d %d %d", step, l.Base(), l.Head(), l.openStart, base, head, openStart)
		}
		if n, b := l.Held(); n != int(head-base) || b != int(head-base)*(recordOverhead+3) {
			t.Fatalf("step %d: held %d records %d bytes, want %d records", step, n, b, head-base)
		}
		if l.openBytes != int(head-openStart)*(recordOverhead+3) {
			t.Fatalf("step %d: openBytes %d for open page [%d,%d)", step, l.openBytes, openStart, head)
		}
		if len(l.sealed) != len(ends) {
			t.Fatalf("step %d: %d sealed spans, want %d", step, len(l.sealed), len(ends))
		}
		for i, sp := range l.sealed {
			want := base
			if i > 0 {
				want = ends[i-1]
			}
			if sp.first != want || sp.end != ends[i] {
				t.Fatalf("step %d: sealed[%d] = [%d,%d), want [%d,%d)", step, i, sp.first, sp.end, want, ends[i])
			}
		}
		if step%50 != 0 {
			continue
		}
		from := base + next(head-base+1)
		sub, err := l.Subscribe(from)
		if err != nil {
			t.Fatalf("step %d: Subscribe(%d): %v", step, from, err)
		}
		if base > 0 {
			if _, err := l.Subscribe(base - 1); err == nil {
				t.Fatalf("step %d: Subscribe below base %d accepted", step, base)
			}
		}
		at := from
		for _, end := range ends {
			if end <= from {
				continue
			}
			pg, ok := sub.NextPage()
			if !ok || pg.FirstLSN != at || pg.EndLSN != end || len(pg.Records) != int(end-at) {
				t.Fatalf("step %d: page [%d,%d) with %d records, want [%d,%d)", step, pg.FirstLSN, pg.EndLSN, len(pg.Records), at, end)
			}
			for _, r := range pg.Records {
				if r.LSN != at || string(r.Data) != string(payload(at)) {
					t.Fatalf("step %d: record %d carries LSN %d data %v", step, at, r.LSN, r.Data)
				}
				at++
			}
		}
		if sub.Lag() != 0 {
			t.Fatalf("step %d: subscription holds %d records past the sealed pages", step, sub.Lag())
		}
		sub.Cancel()
	}
	if delivered == 0 {
		t.Fatal("no page was delivered before a truncation")
	}
}

func lastOr(s []uint64, def uint64) uint64 {
	if len(s) == 0 {
		return def
	}
	return s[len(s)-1]
}
