package s2db

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"s2db/internal/exec"
	"s2db/internal/types"
)

// openUnflushedDB opens a DB whose rows stay in the write buffers: the
// flush threshold is far above anything these tests insert.
func openUnflushedDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	cfg.MaxSegmentRows = 1 << 20
	return openTestDB(t, cfg)
}

// TestPointSelectSeeksOnePartition is the point path end to end: with two
// partitions of 5 000 unflushed rows each, `WHERE id = ?` snapshots only
// the owning partition and visits at most the one matching buffer row (an
// UPDATE of it visits none), while filters that pin no unique-key value
// still walk every row.
func TestPointSelectSeeksOnePartition(t *testing.T) {
	const n = 10_000
	db := openUnflushedDB(t, Config{Partitions: 2})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Str(fmt.Sprintf("k%d", i%4)), Int(int64(i % 50)), Float(float64(i))}
	}
	if err := db.Insert("events", rows...); err != nil {
		t.Fatal(err)
	}

	got, q, err := db.sqlQuery(context.Background(), "SELECT * FROM events WHERE id = ?", []Value{Int(4242)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].I != 4242 {
		t.Fatalf("point select = %v", got)
	}
	if s := q.Stats(); s.BufferRowsScanned > 1 {
		t.Fatalf("point select visited %d buffer rows, want <= 1", s.BufferRowsScanned)
	}
	plan, err := db.Explain("SELECT * FROM events WHERE id = ?", Int(4242))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partitions != 1 || plan.KeySeek != "id = 4242" {
		t.Fatalf("point plan: %d partition(s), key seek %q", plan.Partitions, plan.KeySeek)
	}
	if !strings.Contains(plan.String(), "seek    id = 4242") {
		t.Fatalf("plan string lacks the seek:\n%s", plan)
	}

	// The write twin is a point write: it locks the one key and visits no
	// buffer row.
	visited := func() (n int64) {
		for pi := 0; pi < 2; pi++ {
			tbl, err := db.cluster.Master(pi).Table("events")
			if err != nil {
				t.Fatal(err)
			}
			n += tbl.Stats.BufferRowsScanned.Load()
		}
		return n
	}
	before := visited()
	if n, err := db.Exec("UPDATE events SET amount = ? WHERE id = ?", Int(-1), Int(4242)); err != nil || n != 1 {
		t.Fatalf("point update = %d, %v", n, err)
	}
	if v := visited() - before; v != 0 {
		t.Fatalf("point update visited %d buffer rows, want 0", v)
	}

	for _, c := range []struct {
		sql   string
		binds []Value
		want  int
	}{
		{"SELECT * FROM events WHERE id >= ?", []Value{Int(0)}, n},
		{"SELECT * FROM events WHERE id = ? OR id = ?", []Value{Int(1), Int(2)}, 2},
		{"SELECT * FROM events WHERE id IN (?, ?)", []Value{Int(1), Int(2)}, 2},
	} {
		got, q, err := db.sqlQuery(context.Background(), c.sql, c.binds)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Fatalf("%s: %d rows, want %d", c.sql, len(got), c.want)
		}
		if s := q.Stats(); s.BufferRowsScanned+s.BufferImageRows != n {
			t.Fatalf("%s read %d buffer rows (%d from the image), want all %d", c.sql, s.BufferRowsScanned+s.BufferImageRows, s.BufferImageRows, n)
		}
		plan, err := db.Explain(c.sql, c.binds...)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Partitions != 2 || plan.KeySeek != "" {
			t.Fatalf("%s plan: %d partition(s), key seek %q", c.sql, plan.Partitions, plan.KeySeek)
		}
	}
}

// TestKeySeekEquivalence compares every seeking query with a walk of the
// whole write buffer that evaluates the filter row by row, across key
// shapes and literal edge cases, on the primary and on a workspace.
func TestKeySeekEquivalence(t *testing.T) {
	negZero := math.Copysign(0, -1)
	schema := func(uniq []int, cols ...Column) *Schema {
		s := NewSchema(cols...)
		s.UniqueKey = uniq
		return s
	}
	secs := schema([]int{0}, Column{Name: "id", Type: Int64T}, Column{Name: "s", Type: StringT}, Column{Name: "f", Type: Float64T})
	secs.SecondaryKeys = [][]int{{1}, {2}}
	tables := []struct {
		name   string
		schema *Schema
		rows   []Row
	}{
		{"ints", schema([]int{0}, Column{Name: "id", Type: Int64T}, Column{Name: "v", Type: Int64T}),
			[]Row{{Int(-7), Int(1)}, {Int(-1), Int(2)}, {Int(0), Int(3)}, {Int(7), Int(4)}, {Int(math.MinInt64), Int(5)}}},
		{"pairs", schema([]int{0, 1}, Column{Name: "a", Type: Int64T}, Column{Name: "b", Type: StringT}, Column{Name: "v", Type: Int64T}),
			[]Row{{Int(1), Str("x"), Int(1)}, {Int(1), Str("y"), Int(2)}, {Int(2), Str("x"), Int(3)}, {Int(-1), Str(""), Int(4)}}},
		{"strs", schema([]int{0}, Column{Name: "s", Type: StringT}, Column{Name: "v", Type: Int64T}),
			[]Row{{Str("a"), Int(1)}, {Str("a\x00"), Int(2)}, {Str("a\x00b"), Int(3)}, {Str("a\x00\x00"), Int(4)}, {Str("\x00"), Int(5)}, {Str(""), Int(6)}}},
		{"floats", schema([]int{0}, Column{Name: "f", Type: Float64T}, Column{Name: "v", Type: Int64T}),
			[]Row{{Float(negZero), Int(1)}, {Float(0.5), Int(2)}, {Float(-1.5), Int(3)}, {Float(1), Int(4)}}},
		{"keyless", schema(nil, Column{Name: "id", Type: Int64T}, Column{Name: "v", Type: Int64T}),
			[]Row{{Int(1), Int(1)}, {Int(1), Int(2)}, {Int(2), Int(3)}, {Int(3), Int(4)}}},
		{"secs", secs, []Row{{Int(1), Str("a"), Float(negZero)}, {Int(2), Str("a\x00"), Float(0)}, {Int(3), Str("a"), Float(1)},
			{Int(4), Str(""), Float(-1)}, {Int(5), Str("a\x00b"), Float(0)}}},
	}
	cases := []struct {
		table  string
		filter Filter
		seek   string // the rendered KeySeek; "" means the buffer is walked
	}{
		{"ints", Eq(0, Int(-7)), "id = -7"},
		{"ints", Eq(0, Int(math.MinInt64)), fmt.Sprintf("id = %d", int64(math.MinInt64))},
		{"ints", Eq(0, Int(99)), "id = 99"},
		{"ints", And(Eq(0, Int(-1)), Gt(1, Int(0))), "id = -1"},
		{"ints", And(Eq(0, Int(-1)), Eq(0, Int(0))), "id = -1"},
		{"ints", Eq(0, types.Null(Int64T)), ""},
		{"ints", Eq(0, Str("7")), ""},
		{"pairs", Eq(0, Int(1)), "a = 1"},
		{"pairs", And(Eq(1, Str("x")), Eq(0, Int(1))), "a = 1 AND b = x"},
		{"pairs", Eq(1, Str("x")), ""},
		{"pairs", And(Eq(0, Int(1)), In(1, Str("y"))), "a = 1"},
		{"strs", Eq(0, Str("a\x00")), "s = a\x00"},
		{"strs", Eq(0, Str("a")), "s = a"},
		{"strs", Eq(0, Str("")), "s = "},
		{"floats", Eq(0, Float(0)), "f = 0"},
		{"floats", Eq(0, Float(negZero)), "f = -0"},
		{"floats", Eq(0, Float(math.NaN())), "f = NaN"},
		{"floats", Eq(0, Int(1)), ""},
		{"keyless", Eq(0, Int(1)), ""},
		{"secs", Eq(1, Str("a")), "s = a"},
		{"secs", Eq(1, Str("a\x00")), "s = a\x00"},
		{"secs", Eq(1, Str("")), "s = "},
		{"secs", Eq(2, Float(0)), "f = 0"},
		{"secs", Eq(2, Float(negZero)), "f = -0"},
		{"secs", Eq(2, Float(math.NaN())), "f = NaN"},
		{"secs", And(Eq(2, Float(0)), Eq(1, Str("a\x00"))), "s = a\x00"},
		{"secs", And(Eq(1, Str("a")), Eq(0, Int(3))), "id = 3"},
		{"secs", Eq(1, types.Null(StringT)), ""},
		{"secs", Eq(2, Int(1)), ""},
	}

	db := openUnflushedDB(t, Config{Partitions: 3, BlobStore: NewMemoryBlobStore()})
	for _, tb := range tables {
		if err := db.CreateTable(tb.name, tb.schema); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(tb.name, tb.rows...); err != nil {
			t.Fatal(err)
		}
	}
	ws, err := db.CreateWorkspace("ws")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	for _, c := range cases {
		label := fmt.Sprintf("%s WHERE %s", c.table, exec.FormatNode(c.filter, nil))
		var want []string
		views, err := db.cluster.Views(c.table)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			v.ScanBuffer(func(r Row) bool {
				if c.filter.EvalRow(r) {
					want = append(want, fmt.Sprint(r))
				}
				return true
			})
		}
		sort.Strings(want)
		// A walk visits every buffer row of the partitions the query
		// targets; pinning the shard column (a keyless table's first)
		// still prunes partitions.
		pinned, err := db.cluster.PinnedViews(c.table, exec.Pins(c.filter))
		if err != nil {
			t.Fatal(err)
		}
		walked := 0
		for _, v := range pinned {
			walked += v.NumRows()
		}
		for _, onWS := range []bool{false, true} {
			q := db.Table(c.table).Where(c.filter)
			if onWS {
				q = q.OnWorkspace(ws)
			}
			rows, err := q.Rows()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := make([]string, len(rows))
			for i, r := range rows {
				got[i] = fmt.Sprint(r)
			}
			sort.Strings(got)
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s (workspace %v): rows %v, want %v", label, onWS, got, want)
			}
			plan, err := q.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if plan.KeySeek != c.seek {
				t.Fatalf("%s: key seek %q, want %q", label, plan.KeySeek, c.seek)
			}
			scanned := q.Stats().BufferRowsScanned
			if read := scanned + q.Stats().BufferImageRows; c.seek == "" && read != int64(walked) {
				t.Fatalf("%s: full scan read %d of %d buffer rows", label, read, walked)
			}
			if c.seek != "" && scanned > int64(len(want)+1) {
				t.Fatalf("%s: seek visited %d buffer rows for %d matches", label, scanned, len(want))
			}
		}
	}
}

// TestSecondarySeekVisitsMatches is the secondary path end to end: with two
// partitions of 5 000 unflushed rows each, SELECT, aggregate, UPDATE and
// DELETE `WHERE customer = ?` each visit only the matching buffer rows of
// the write buffers' secondary index, and return what a walk of every
// buffer row returns.
func TestSecondarySeekVisitsMatches(t *testing.T) {
	const n, customers = 10_000, 1_000
	db := openUnflushedDB(t, Config{Partitions: 2})
	s := NewSchema(
		Column{Name: "id", Type: Int64T},
		Column{Name: "customer", Type: Int64T},
		Column{Name: "quantity", Type: Int64T},
	)
	s.UniqueKey = []int{0}
	s.ShardKey = []int{0}
	s.SecondaryKeys = [][]int{{1}}
	if err := db.CreateTable("orders", s); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i % customers)), Int(1)}
	}
	if err := db.Insert("orders", rows...); err != nil {
		t.Fatal(err)
	}
	// walk returns the buffer rows of customer c, in id order, from a
	// walk of every buffer row.
	walk := func(c int64) []string {
		views, err := db.cluster.Views("orders")
		if err != nil {
			t.Fatal(err)
		}
		var out []Row
		for _, v := range views {
			v.ScanBuffer(func(r Row) bool {
				if r[1].I == c {
					out = append(out, r)
				}
				return true
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i][0].I < out[j][0].I })
		strs := make([]string, len(out))
		for i, r := range out {
			strs[i] = fmt.Sprint(r)
		}
		return strs
	}
	// mutated is the number of buffer rows UPDATE and DELETE visited.
	mutated := func() (visited int64) {
		for pi := 0; pi < 2; pi++ {
			tbl, err := db.cluster.Master(pi).Table("orders")
			if err != nil {
				t.Fatal(err)
			}
			visited += tbl.Stats.BufferRowsScanned.Load()
		}
		return visited
	}

	const c = 7
	want := walk(c)
	if len(want) != n/customers {
		t.Fatalf("walk found %d rows of customer %d", len(want), c)
	}
	got, q, err := db.sqlQuery(context.Background(), "SELECT * FROM orders WHERE customer = ? ORDER BY id", []Value{Int(c)})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "["+strings.Join(want, " ")+"]" {
		t.Fatalf("select = %v, walk = %v", got, want)
	}
	if s := q.Stats(); s.BufferRowsScanned > int64(len(want)) {
		t.Fatalf("select visited %d buffer rows for %d matches", s.BufferRowsScanned, len(want))
	}
	plan, err := db.Explain("SELECT * FROM orders WHERE customer = ?", Int(c))
	if err != nil {
		t.Fatal(err)
	}
	if plan.KeySeek != "customer = 7" || plan.SeekIndex != "secondary index" {
		t.Fatalf("plan seeks %q (%s)", plan.KeySeek, plan.SeekIndex)
	}
	if !strings.Contains(plan.String(), "seek    customer = 7 (secondary index of the write buffer)") {
		t.Fatalf("plan string lacks the secondary seek:\n%s", plan)
	}

	agg, q, err := db.sqlQuery(context.Background(), "SELECT count(*), sum(quantity) FROM orders WHERE customer = ?", []Value{Int(c)})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 1 || agg[0][0].I != int64(len(want)) || agg[0][1].I != int64(len(want)) {
		t.Fatalf("aggregate = %v, want count and sum %d", agg, len(want))
	}
	if s := q.Stats(); s.BufferRowsScanned > int64(len(want)) {
		t.Fatalf("aggregate visited %d buffer rows for %d matches", s.BufferRowsScanned, len(want))
	}

	before := mutated()
	updated, err := db.Exec("UPDATE orders SET quantity = ? WHERE customer = ?", Int(5), Int(c))
	if err != nil {
		t.Fatal(err)
	}
	if visited := mutated() - before; updated != len(want) || visited > int64(len(want)) {
		t.Fatalf("update: %d rows updated after visiting %d, want %d", updated, visited, len(want))
	}
	for _, r := range walk(c) {
		if !strings.HasSuffix(r, " 5]") {
			t.Fatalf("update missed %s", r)
		}
	}

	before = mutated()
	deleted, err := db.Exec("DELETE FROM orders WHERE customer = ?", Int(c))
	if err != nil {
		t.Fatal(err)
	}
	if visited := mutated() - before; deleted != len(want) || visited > int64(len(want)) {
		t.Fatalf("delete: %d rows deleted after visiting %d, want %d", deleted, visited, len(want))
	}
	if left := walk(c); len(left) != 0 {
		t.Fatalf("delete left %v", left)
	}
	if got, err := db.Query("SELECT * FROM orders WHERE customer = ?", Int(c)); err != nil || len(got) != 0 {
		t.Fatalf("select after delete = %v, %v", got, err)
	}
}

// TestExplainBufferImageSplit: an unpinned scan of unflushed rows reads
// each write buffer's columnar image, and Explain's buffer line splits the
// rows the image covered from those read row by row (the delta of keys
// written since the image).
func TestExplainBufferImageSplit(t *testing.T) {
	const n = 400
	db := openUnflushedDB(t, Config{Partitions: 2})
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	row := func(i int) Row {
		return Row{Int(int64(i)), Str(fmt.Sprintf("k%d", i%4)), Int(int64(i % 50)), Float(float64(i))}
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = row(i)
	}
	if err := db.Insert("events", rows...); err != nil {
		t.Fatal(err)
	}
	q := db.Table("events").Where(GtName("amount", Int(-1))).GroupByNames("kind").Agg(CountAll())
	for _, c := range []struct {
		label         string
		image, visits int64
		line          string
	}{
		{"first run", n, 0, fmt.Sprintf("buffer (last run): %d rows from the columnar image (2 built), 0 rows visited row by row", n)},
		{"after 3 inserts", n, 3, fmt.Sprintf("buffer (last run): %d rows from the columnar image (0 built), 3 rows visited row by row", n)},
	} {
		if c.visits > 0 {
			if err := db.Insert("events", row(n), row(n+1), row(n+2)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.Rows(); err != nil {
			t.Fatal(err)
		}
		if s := q.Stats(); s.BufferImageRows != c.image || s.BufferRowsScanned != c.visits {
			t.Fatalf("%s: %d image rows, %d visited, want %d and %d", c.label, s.BufferImageRows, s.BufferRowsScanned, c.image, c.visits)
		}
		plan, err := q.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.String(), c.line) {
			t.Fatalf("%s: plan lacks %q:\n%s", c.label, c.line, plan)
		}
	}
}
