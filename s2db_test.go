package s2db

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func openTestDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	if cfg.MaxSegmentRows == 0 {
		cfg.MaxSegmentRows = 64
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func eventsSchema() *Schema {
	s := NewSchema(
		Column{Name: "id", Type: Int64T},
		Column{Name: "kind", Type: StringT},
		Column{Name: "amount", Type: Int64T},
		Column{Name: "score", Type: Float64T},
	)
	s.UniqueKey = []int{0}
	s.ShardKey = []int{0}
	s.SecondaryKeys = [][]int{{1}}
	s.SortKey = 2
	return s
}

func loadEvents(t *testing.T, db *DB, n int) {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Str(fmt.Sprintf("k%d", i%4)), Int(int64(i % 50)), Float(float64(i) / 2)}
	}
	if err := db.BulkLoad("events", rows[:n/2]); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[n/2:] {
		if err := db.Insert("events", r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenInsertQuery(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 2})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	loadEvents(t, db, 200)
	n, err := db.Table("events").Count()
	if err != nil || n != 200 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	// Point read.
	r, ok, err := db.Get("events", Int(42))
	if err != nil || !ok || r[1].S != "k2" {
		t.Fatalf("Get = %v %v %v", r, ok, err)
	}
	// Filtered query.
	n, err = db.Table("events").Where(And(Eq(1, Str("k1")), Lt(2, Int(25)))).Count()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 200; i++ {
		if i%4 == 1 && i%50 < 25 {
			want++
		}
	}
	if n != want {
		t.Fatalf("filtered count = %d, want %d", n, want)
	}
}

func TestQueryAggregationAcrossPartitions(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 3})
	db.CreateTable("events", eventsSchema())
	loadEvents(t, db, 300)
	rows, err := db.Table("events").
		GroupBy(1).
		Agg(CountAll(), SumCol(2), AvgCol(3), MinCol(0), MaxCol(0)).
		OrderBy(OrderBy{Col: 0}).
		Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		kind := r[0].S
		var wantN, wantSum, wantMin, wantMax int64
		var wantScore float64
		wantMin = 1 << 62
		for i := 0; i < 300; i++ {
			if fmt.Sprintf("k%d", i%4) != kind {
				continue
			}
			wantN++
			wantSum += int64(i % 50)
			wantScore += float64(i) / 2
			if int64(i) < wantMin {
				wantMin = int64(i)
			}
			if int64(i) > wantMax {
				wantMax = int64(i)
			}
		}
		if r[1].I != wantN || r[2].I != wantSum {
			t.Fatalf("group %s: count/sum = %v/%v, want %d/%d", kind, r[1], r[2], wantN, wantSum)
		}
		avg := wantScore / float64(wantN)
		if d := r[3].F - avg; d < -0.001 || d > 0.001 {
			t.Fatalf("group %s: avg = %v, want %v", kind, r[3].F, avg)
		}
		if r[4].I != wantMin || r[5].I != wantMax {
			t.Fatalf("group %s: min/max = %v/%v", kind, r[4], r[5])
		}
	}
}

func TestUpdateDeleteThroughFacade(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 2})
	db.CreateTable("events", eventsSchema())
	loadEvents(t, db, 100)
	n, err := db.Update("events", Where{Col: 1, Val: Str("k0")}, func(r Row) Row {
		r[2] = Int(-5)
		return r
	})
	if err != nil || n != 25 {
		t.Fatalf("Update = %d, %v", n, err)
	}
	cnt, _ := db.Table("events").Where(Eq(2, Int(-5))).Count()
	if cnt != 25 {
		t.Fatalf("updated rows visible = %d", cnt)
	}
	d, err := db.Delete("events", Where{Col: 1, Val: Str("k3")})
	if err != nil || d != 25 {
		t.Fatalf("Delete = %d, %v", d, err)
	}
	total, _ := db.Table("events").Count()
	if total != 75 {
		t.Fatalf("total after delete = %d", total)
	}
}

func TestDuplicatePoliciesThroughFacade(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 2})
	db.CreateTable("events", eventsSchema())
	if err := db.Insert("events", Row{Int(1), Str("k"), Int(1), Float(0)}); err != nil {
		t.Fatal(err)
	}
	err := db.Insert("events", Row{Int(1), Str("k"), Int(2), Float(0)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup = %v", err)
	}
	res, err := db.InsertWith("events", InsertOptions{OnDup: DupUpdate}, Row{Int(1), Str("k"), Int(9), Float(0)})
	if err != nil || res.Updated != 1 {
		t.Fatalf("upsert = %+v, %v", res, err)
	}
	r, _, _ := db.Get("events", Int(1))
	if r[2].I != 9 {
		t.Fatal("upsert value lost")
	}
}

func TestWorkspaceQueries(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 2, BlobStore: NewMemoryBlobStore()})
	db.CreateTable("events", eventsSchema())
	loadEvents(t, db, 100)
	ws, err := db.CreateWorkspace("reports")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	n, err := db.Table("events").OnWorkspace(ws).Count()
	if err != nil || n != 100 {
		t.Fatalf("workspace count = %d, %v", n, err)
	}
	if err := ws.Detach(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryStatsExposeAdaptivity(t *testing.T) {
	db := openTestDB(t, Config{Partitions: 1, MaxSegmentRows: 32})
	db.CreateTable("events", eventsSchema())
	loadEvents(t, db, 256)
	q := db.Table("events").Where(Eq(1, Str("k1")))
	if _, err := q.Count(); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.SegmentsScanned == 0 && st.SegmentsSkipped == 0 {
		t.Fatalf("no scan stats recorded: %+v", st)
	}
}

// TestPointInTimeRestoreUsesBlobLatency: a restore reads blob storage
// through the same simulated object-store latency that Open configures.
func TestPointInTimeRestoreUsesBlobLatency(t *testing.T) {
	store := NewMemoryBlobStore()
	db := openTestDB(t, Config{BlobStore: store, Name: "latdb"})
	db.CreateTable("events", eventsSchema())
	if err := db.Insert("events", Row{Int(1), Str("k"), Int(1), Float(1)}); err != nil {
		t.Fatal(err)
	}
	db.Cluster().Stager(0).Step()
	const latency = 20 * time.Millisecond
	start := time.Now()
	restored, err := PointInTimeRestore(Config{BlobStore: store, Name: "latdb", BlobGetLatency: latency},
		map[string]*Schema{"events": eventsSchema()}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if took := time.Since(start); took < latency {
		t.Fatalf("restore took %v, less than one %v blob read", took, latency)
	}
	if n, err := restored.Table("events").Count(); err != nil || n != 1 {
		t.Fatalf("restored count = %d, %v", n, err)
	}
}

func TestFacadePointInTimeRestore(t *testing.T) {
	store := NewMemoryBlobStore()
	db := openTestDB(t, Config{Partitions: 2, BlobStore: store, Name: "pitrdb"})
	db.CreateTable("events", eventsSchema())
	loadEvents(t, db, 60)
	db.Flush("events")
	for pi := 0; pi < 2; pi++ {
		db.Cluster().Master(pi).NoteAppend()
		db.Cluster().Stager(pi).Step()
	}
	past := time.Now()
	time.Sleep(2 * time.Millisecond)
	if _, err := db.Delete("events", Where{Col: -1, Pred: func(Row) bool { return true }}); err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < 2; pi++ {
		db.Cluster().Master(pi).NoteAppend()
		db.Cluster().Stager(pi).Step()
	}
	restored, err := PointInTimeRestore(Config{Partitions: 2, BlobStore: store, Name: "pitrdb", MaxSegmentRows: 64},
		map[string]*Schema{"events": eventsSchema()}, past)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	n, err := restored.Table("events").Count()
	if err != nil || n != 60 {
		t.Fatalf("restored count = %d, %v", n, err)
	}
	// The live database is empty; the restore is independent state.
	live, _ := db.Table("events").Count()
	if live != 0 {
		t.Fatalf("live count = %d", live)
	}
}
