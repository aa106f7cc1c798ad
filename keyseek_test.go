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
// the owning partition and visits at most the one matching buffer row,
// while filters that pin no unique-key value still walk every row.
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
		if s := q.Stats(); s.BufferRowsScanned != n {
			t.Fatalf("%s visited %d buffer rows, want all %d", c.sql, s.BufferRowsScanned, n)
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
		targets, err := db.cluster.QueryTargets(c.table, exec.Pins(c.filter))
		if err != nil {
			t.Fatal(err)
		}
		walked := 0
		for _, tg := range targets {
			walked += tg.View.NumRows()
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
			if c.seek == "" && scanned != int64(walked) {
				t.Fatalf("%s: walk visited %d of %d buffer rows", label, scanned, walked)
			}
			if c.seek != "" && scanned > int64(len(want)+1) {
				t.Fatalf("%s: seek visited %d buffer rows for %d matches", label, scanned, len(want))
			}
		}
	}
}
