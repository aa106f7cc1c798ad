package s2db

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// ordersSchema is the table every SQL test runs against: a unique shard
// key, a secondary key on category (so equality predicates take the index
// path in both surfaces), and a float column to exercise Int→Float literal
// coercion.
func ordersSchema() *Schema {
	s := NewSchema(
		Column{Name: "id", Type: Int64T},
		Column{Name: "category", Type: StringT},
		Column{Name: "quantity", Type: Int64T},
		Column{Name: "price", Type: Float64T},
	)
	s.UniqueKey = []int{0}
	s.ShardKey = []int{0}
	s.SecondaryKeys = [][]int{{1}}
	return s
}

// openSQLTestDB disables the decoded-vector cache so per-run scan stats
// are deterministic — equivalence asserts byte-identical stats between a
// SQL run and a builder run, which a stateful cache would skew.
func openSQLTestDB(t *testing.T, planCacheEntries int) *DB {
	t.Helper()
	db := openTestDB(t, Config{Partitions: 2, PlanCacheEntries: planCacheEntries, VectorCacheBytes: -1})
	if err := db.CreateTable("orders", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	return db
}

func loadOrders(t *testing.T, db *DB, n int) {
	t.Helper()
	cats := []string{"books", "games", "tools", "music"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Str(cats[i%len(cats)]), Int(int64(i % 7)), Float(float64(i%90) + 0.5)}
	}
	if err := db.BulkLoad("orders", rows); err != nil {
		t.Fatal(err)
	}
}

// TestSQLBuilderEquivalence asserts that every supported SQL query shape
// returns byte-identical rows and scan statistics to the hand-built
// builder query it lowers onto. Projection happens after execution, so for
// projecting selects the builder rows are projected with the same ordinal
// list before comparison.
func TestSQLBuilderEquivalence(t *testing.T) {
	db := openSQLTestDB(t, 64)
	loadOrders(t, db, 500)

	cases := []struct {
		name    string
		sql     string
		binds   []Value
		builder func() *Query
		project []int // ordinals applied to builder rows; nil = whole row
		// clockOrdered marks a filter with a multi-child AND/OR: its child
		// order follows measured cost, so how many clauses short-circuit —
		// the four per-strategy counters — differs between two runs of one
		// plan (ROADMAP 6 ii). Every other case compares them too.
		clockOrdered bool
	}{
		{
			name:    "full scan",
			sql:     "SELECT * FROM orders",
			builder: func() *Query { return db.Table("orders") },
		},
		{
			name:    "secondary key equality",
			sql:     "SELECT * FROM orders WHERE category = 'books'",
			builder: func() *Query { return db.Table("orders").Where(EqName("category", Str("books"))) },
		},
		{
			name:  "bind equality",
			sql:   "SELECT * FROM orders WHERE category = ?",
			binds: []Value{Str("games")},
			builder: func() *Query {
				return db.Table("orders").Where(EqName("category", Str("games")))
			},
		},
		{
			name: "compound and/or with every operator",
			sql:  "SELECT * FROM orders WHERE (quantity >= 2 AND quantity <= 5) OR (price > 80.5 AND price < 89.0) OR id != 0",
			builder: func() *Query {
				return db.Table("orders").Where(Or(
					And(GeName("quantity", Int(2)), LeName("quantity", Int(5))),
					And(GtName("price", Float(80.5)), LtName("price", Float(89.0))),
					NeName("id", Int(0)),
				))
			},
			clockOrdered: true,
		},
		{
			name: "in list",
			sql:  "SELECT * FROM orders WHERE category IN ('books', 'tools')",
			builder: func() *Query {
				return db.Table("orders").Where(InName("category", Str("books"), Str("tools")))
			},
		},
		{
			name: "int literal coerced to float column",
			sql:  "SELECT * FROM orders WHERE price > 85",
			builder: func() *Query {
				return db.Table("orders").Where(GtName("price", Float(85)))
			},
		},
		{
			name: "projection",
			sql:  "SELECT id, price FROM orders WHERE quantity = 3",
			builder: func() *Query {
				return db.Table("orders").Where(EqName("quantity", Int(3)))
			},
			project: []int{0, 3},
		},
		{
			name: "group by with aggregates",
			sql:  "SELECT category, count(*), sum(quantity), min(price), max(price), avg(price) FROM orders GROUP BY category",
			builder: func() *Query {
				return db.Table("orders").GroupByNames("category").
					Agg(CountAll(), SumName("quantity"), MinName("price"), MaxName("price"), AvgName("price"))
			},
		},
		{
			name: "global aggregates",
			sql:  "SELECT count(*), sum(quantity) FROM orders WHERE category = 'music'",
			builder: func() *Query {
				return db.Table("orders").Where(EqName("category", Str("music"))).
					Agg(CountAll(), SumName("quantity"))
			},
		},
		{
			name: "order by desc with limit",
			sql:  "SELECT * FROM orders WHERE quantity > 4 ORDER BY price DESC, id ASC LIMIT 17",
			builder: func() *Query {
				return db.Table("orders").Where(GtName("quantity", Int(4))).
					OrderBy(Desc("price"), Asc("id")).Limit(17)
			},
		},
		{
			name:  "limit from bind",
			sql:   "SELECT id FROM orders ORDER BY id LIMIT ?",
			binds: []Value{Int(9)},
			builder: func() *Query {
				return db.Table("orders").OrderBy(Asc("id")).Limit(9)
			},
			project: []int{0},
		},
		{
			name: "grouped order by group column",
			sql:  "SELECT category, count(*) FROM orders GROUP BY category ORDER BY category DESC",
			builder: func() *Query {
				return db.Table("orders").GroupByNames("category").Agg(CountAll()).OrderBy(Desc("category"))
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bq := tc.builder()
			want, err := bq.Rows()
			if err != nil {
				t.Fatalf("builder: %v", err)
			}
			if tc.project != nil {
				projected := make([]Row, len(want))
				for i, r := range want {
					projected[i] = r.Project(tc.project)
				}
				want = projected
			}
			got, sq, err := db.sqlQuery(context.Background(), tc.sql, tc.binds)
			if err != nil {
				t.Fatalf("sql: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rows diverge\n sql: %v\nwant: %v", got, want)
			}
			ws, ss := bq.Stats(), sq.Stats()
			// The plan-cache outcome is the one stat the builder path cannot
			// have; everything else must match byte for byte.
			ss.PlanCacheHits, ss.PlanCacheMisses = 0, 0
			if tc.clockOrdered {
				ws.IndexFilters, ws.EncodedFilters, ws.RegularFilters, ws.GroupFilters = 0, 0, 0, 0
				ss.IndexFilters, ss.EncodedFilters, ss.RegularFilters, ss.GroupFilters = 0, 0, 0, 0
			}
			if ws != ss {
				t.Fatalf("stats diverge\n sql: %+v\nwant: %+v", ss, ws)
			}
		})
	}
}

// TestSQLDMLEquivalence runs the same logical mutations through SQL Exec
// on one table and the Go API on a twin table, then asserts both tables
// are byte-identical.
func TestSQLDMLEquivalence(t *testing.T) {
	db := openSQLTestDB(t, 64)
	if err := db.CreateTable("orders2", ordersSchema()); err != nil {
		t.Fatal(err)
	}

	// INSERT: SQL on orders, Go API on orders2.
	n, err := db.Exec("INSERT INTO orders VALUES (1, 'books', 2, 9.5), (2, 'games', 1, 20.0), (3, 'books', 7, 3.25)")
	if err != nil || n != 3 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	if _, err := db.Exec("INSERT INTO orders (price, id, category, quantity) VALUES (?, ?, 'tools', 0)",
		Float(44.0), Int(4)); err != nil {
		t.Fatal(err)
	}
	err = db.Insert("orders2",
		Row{Int(1), Str("books"), Int(2), Float(9.5)},
		Row{Int(2), Str("games"), Int(1), Float(20.0)},
		Row{Int(3), Str("books"), Int(7), Float(3.25)},
		Row{Int(4), Str("tools"), Int(0), Float(44.0)},
	)
	if err != nil {
		t.Fatal(err)
	}

	// UPDATE with a compound predicate.
	un, err := db.Exec("UPDATE orders SET quantity = ?, price = 5.5 WHERE category = 'books' AND quantity > 1", Int(10))
	if err != nil {
		t.Fatal(err)
	}
	un2, err := db.Update("orders2",
		Where{Pred: func(r Row) bool { return r[1].S == "books" && r[2].I > 1 }},
		func(r Row) Row {
			out := append(Row(nil), r...)
			out[2] = Int(10)
			out[3] = Float(5.5)
			return out
		})
	if err != nil || un != un2 {
		t.Fatalf("update = %d vs %d, %v", un, un2, err)
	}

	// DELETE.
	dn, err := db.Exec("DELETE FROM orders WHERE id = ? OR price >= 40.0", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	dn2, err := db.Delete("orders2", Where{Pred: func(r Row) bool { return r[0].I == 2 || r[3].F >= 40.0 }})
	if err != nil || dn != dn2 {
		t.Fatalf("delete = %d vs %d, %v", dn, dn2, err)
	}

	// UPDATE pinned on the key: the write seeks id = ?.
	un, err = db.Exec("UPDATE orders SET quantity = ? WHERE id = ?", Int(4), Int(3))
	if err != nil || un != 1 {
		t.Fatalf("pinned update = %d, %v", un, err)
	}
	un2, err = db.Update("orders2", Where{Pins: []Pin{{Col: 0, Val: Int(3)}}}, func(r Row) Row {
		out := append(Row(nil), r...)
		out[2] = Int(4)
		return out
	})
	if err != nil || un2 != 1 {
		t.Fatalf("pinned update = %d, %v", un2, err)
	}

	// DELETE under a parenthesised nested AND: no top-level equality, so
	// the write takes no index hint, as a read of it takes none.
	dn, err = db.Exec("DELETE FROM orders WHERE (id = ? AND category = 'books') AND quantity > 0", Int(1))
	if err != nil || dn != 1 {
		t.Fatalf("nested-AND delete = %d, %v", dn, err)
	}
	dn2, err = db.Delete("orders2", Where{Pred: func(r Row) bool { return r[0].I == 1 && r[1].S == "books" && r[2].I > 0 }})
	if err != nil || dn2 != 1 {
		t.Fatalf("nested-AND delete = %d, %v", dn2, err)
	}

	want, err := db.Table("orders2").OrderBy(Asc("id")).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || want[0][0].I != 3 || want[0][2].I != 4 {
		t.Fatalf("after DML orders2 = %v, want the one row id 3 with quantity 4", want)
	}
	got, err := db.Query("SELECT * FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tables diverge after DML\n sql: %v\nwant: %v", got, want)
	}

	// A two-column unique key (a, b): SQL on pairs, the Go API on pairs2.
	// A statement that pins a and b is a point write and visits no buffer
	// row; one that pins only a seeks a's key range.
	pairs := func() *Schema {
		s := NewSchema(
			Column{Name: "a", Type: Int64T},
			Column{Name: "b", Type: Int64T},
			Column{Name: "v", Type: Int64T},
		)
		s.UniqueKey = []int{0, 1}
		s.ShardKey = []int{0}
		return s
	}
	var rows []Row
	for a := int64(0); a < 4; a++ {
		for b := int64(0); b < 4; b++ {
			rows = append(rows, Row{Int(a), Int(b), Int(a*10 + b)})
		}
	}
	for _, name := range []string{"pairs", "pairs2"} {
		if err := db.CreateTable(name, pairs()); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(name, rows...); err != nil {
			t.Fatal(err)
		}
	}
	visited := func() (n int64) {
		for pi := 0; pi < db.cluster.Partitions(); pi++ {
			tbl, err := db.cluster.Master(pi).Table("pairs")
			if err != nil {
				t.Fatal(err)
			}
			n += tbl.Stats.BufferRowsScanned.Load()
		}
		return n
	}
	ab := func(a, b int64) []Pin { return []Pin{{Col: 0, Val: Int(a)}, {Col: 1, Val: Int(b)}} }
	setV := func(v int64) func(Row) Row {
		return func(r Row) Row {
			out := append(Row(nil), r...)
			out[2] = Int(v)
			return out
		}
	}
	over := func(v int64) func(Row) bool { return func(r Row) bool { return r[2].I > v } }
	for _, c := range []struct {
		sql   string
		binds []Value
		where Where
		set   func(Row) Row
		want  int
		point bool
	}{
		{"UPDATE pairs SET v = ? WHERE a = ? AND b = ?", []Value{Int(100), Int(1), Int(2)}, Where{Pins: ab(1, 2)}, setV(100), 1, true},
		{"DELETE FROM pairs WHERE b = ? AND a = ?", []Value{Int(3), Int(2)}, Where{Pins: ab(2, 3)}, nil, 1, true},
		{"UPDATE pairs SET v = ? WHERE a = ? AND b = ? AND v > ?", []Value{Int(200), Int(3), Int(1), Int(30)}, Where{Pins: ab(3, 1), Pred: over(30)}, setV(200), 1, true},
		{"UPDATE pairs SET v = ? WHERE a = ? AND b = ? AND v > ?", []Value{Int(300), Int(3), Int(0), Int(30)}, Where{Pins: ab(3, 0), Pred: over(30)}, setV(300), 0, true},
		{"DELETE FROM pairs WHERE a = ? AND b = ? AND v > ?", []Value{Int(0), Int(1), Int(0)}, Where{Pins: ab(0, 1), Pred: over(0)}, nil, 1, true},
		{"DELETE FROM pairs WHERE a = ? AND b = ? AND v > ?", []Value{Int(0), Int(2), Int(50)}, Where{Pins: ab(0, 2), Pred: over(50)}, nil, 0, true},
		{"UPDATE pairs SET v = ? WHERE a = ?", []Value{Int(7), Int(1)}, Where{Pins: []Pin{{Col: 0, Val: Int(1)}}}, setV(7), 4, false},
		{"DELETE FROM pairs WHERE a = ? AND v > ?", []Value{Int(3), Int(32)}, Where{Pins: []Pin{{Col: 0, Val: Int(3)}}, Pred: over(32)}, nil, 2, false},
	} {
		before := visited()
		n, err := db.Exec(c.sql, c.binds...)
		if err != nil || n != c.want {
			t.Fatalf("%s %v = %d, %v; want %d", c.sql, c.binds, n, err, c.want)
		}
		if v := visited() - before; c.point != (v == 0) {
			t.Fatalf("%s %v visited %d buffer rows; point write %v", c.sql, c.binds, v, c.point)
		}
		if c.set != nil {
			n, err = db.Update("pairs2", c.where, c.set)
		} else {
			n, err = db.Delete("pairs2", c.where)
		}
		if err != nil || n != c.want {
			t.Fatalf("builder twin of %s %v = %d, %v; want %d", c.sql, c.binds, n, err, c.want)
		}
	}
	got, err = db.Query("SELECT * FROM pairs ORDER BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	want, err = db.Table("pairs2").OrderBy(Asc("a"), Asc("b")).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows)-4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs diverge after DML\n sql: %v\nwant: %v", got, want)
	}
}

// TestSQLPlanCacheConcurrent executes one parameterized query from many
// goroutines — first warming the cache, so most preparations are hits —
// and asserts every run sees the same rows. Run under -race this checks
// that a shared cached plan is safe to bind and execute concurrently.
func TestSQLPlanCacheConcurrent(t *testing.T) {
	db := openSQLTestDB(t, 64)
	loadOrders(t, db, 300)

	const q = "SELECT id, price FROM orders WHERE category = ? AND quantity >= 2 ORDER BY id LIMIT 20"
	want, err := db.Query(q, Str("books"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("warm-up query returned no rows")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := db.Query(q, Str("books"))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent cached run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()

	s := db.PlanCacheStats()
	if s.TextHits < 200 {
		t.Fatalf("text-tier hits = %d, want the 200 repeat executions to hit", s.TextHits)
	}
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want exactly the warm-up compilation", s.Misses)
	}
}

// TestSQLPlanCacheStatsAndExplain checks the observable cache life cycle:
// miss on first preparation, text hit on re-execution, template hit on a
// literal variant, and the outcome surfaced through Explain and ScanStats.
func TestSQLPlanCacheStatsAndExplain(t *testing.T) {
	db := openSQLTestDB(t, 64)
	loadOrders(t, db, 100)

	_, q1, err := db.sqlQuery(context.Background(), "SELECT * FROM orders WHERE quantity = 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := q1.Stats(); s.PlanCacheMisses != 1 || s.PlanCacheHits != 0 {
		t.Fatalf("first run: %d hits / %d misses, want 0/1", s.PlanCacheHits, s.PlanCacheMisses)
	}
	_, q2, err := db.sqlQuery(context.Background(), "SELECT * FROM orders WHERE quantity = 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := q2.Stats(); s.PlanCacheHits != 1 || s.PlanCacheMisses != 0 {
		t.Fatalf("second run: %d hits / %d misses, want 1/0", s.PlanCacheHits, s.PlanCacheMisses)
	}

	// A different literal shares the template-tier plan.
	if _, _, err := db.sqlQuery(context.Background(), "SELECT * FROM orders WHERE quantity = 6", nil); err != nil {
		t.Fatal(err)
	}
	s := db.PlanCacheStats()
	if s.Misses != 1 || s.Hits != 2 || s.TextHits != 1 || s.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss, 2 hits (1 text), 1 template", s)
	}

	plan, err := db.Explain("SELECT * FROM orders WHERE quantity = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.PlanCacheHit {
		t.Fatal("Explain of a cached statement did not report a hit")
	}
	if plan.SQL != "select * from orders where quantity = ?" {
		t.Fatalf("plan template = %q", plan.SQL)
	}
	if plan.Statement != "select" {
		t.Fatalf("plan statement = %q", plan.Statement)
	}
	rendered := plan.String()
	for _, want := range []string{"sql: select * from orders", "plan cache: hit"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("plan rendering missing %q:\n%s", want, rendered)
		}
	}

	// DML explains without executing.
	before, _ := db.Table("orders").Count()
	dplan, err := db.Explain("DELETE FROM orders WHERE quantity = 3")
	if err != nil {
		t.Fatal(err)
	}
	if dplan.Statement != "delete" {
		t.Fatalf("delete plan statement = %q", dplan.Statement)
	}
	after, _ := db.Table("orders").Count()
	if before != after {
		t.Fatal("Explain executed the DELETE")
	}
}

// TestSQLPlanCacheDisabled covers the PlanCacheEntries=0 ablation: every
// preparation compiles, stats stay zero, results are unaffected.
func TestSQLPlanCacheDisabled(t *testing.T) {
	db := openSQLTestDB(t, 0)
	loadOrders(t, db, 100)

	const q = "SELECT count(*) FROM orders WHERE quantity = ?"
	for i := 0; i < 3; i++ {
		rows, err := db.Query(q, Int(3))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].I == 0 {
			t.Fatalf("rows = %v", rows)
		}
	}
	if s := db.PlanCacheStats(); s != (PlanCacheStats{}) {
		t.Fatalf("disabled cache reported activity: %+v", s)
	}
	plan, err := db.Explain(q, Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if plan.PlanCacheHit {
		t.Fatal("disabled cache reported a hit")
	}
	if !strings.Contains(plan.String(), "plan cache: off") {
		t.Fatalf("plan rendering should say the cache is off:\n%s", plan.String())
	}
}

// TestSQLErrors pins the error surface: typed parse errors with positions,
// column errors annotated with the identifier's position in the original
// text (including on the cache-hit path, where no lexing happened), bind
// arity and type mismatches.
func TestSQLErrors(t *testing.T) {
	db := openSQLTestDB(t, 64)
	loadOrders(t, db, 50)

	t.Run("parse error position", func(t *testing.T) {
		_, err := db.Query("SELECT * FROM orders WHERE price > > 1")
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("error %T is not *ParseError: %v", err, err)
		}
		if pe.Pos.Line != 1 || pe.Pos.Col != 36 {
			t.Fatalf("position = %s, want 1:36", pe.Pos)
		}
	})

	t.Run("unknown column position on cache hit", func(t *testing.T) {
		const q = "SELECT * FROM orders WHERE nope = 1"
		for i := 0; i < 2; i++ { // second iteration prepares via the cache
			_, err := db.Query(q)
			var ce *ColumnError
			if !errors.As(err, &ce) {
				t.Fatalf("run %d: error %T is not *ColumnError: %v", i, err, err)
			}
			if ce.Name != "nope" {
				t.Fatalf("run %d: column = %q", i, ce.Name)
			}
			if ce.Pos.Line != 1 || ce.Pos.Col != 28 {
				t.Fatalf("run %d: position = %s, want 1:28", i, ce.Pos)
			}
		}
	})

	t.Run("bind arity", func(t *testing.T) {
		if _, err := db.Query("SELECT * FROM orders WHERE id = ?"); err == nil {
			t.Fatal("missing bind accepted")
		}
		if _, err := db.Query("SELECT * FROM orders WHERE id = ?", Int(1), Int(2)); err == nil {
			t.Fatal("extra bind accepted")
		}
	})

	t.Run("type mismatch", func(t *testing.T) {
		_, err := db.Query("SELECT * FROM orders WHERE quantity = 'three'")
		var ce *ColumnError
		if !errors.As(err, &ce) {
			t.Fatalf("error %T is not *ColumnError: %v", err, err)
		}
	})

	t.Run("unknown table", func(t *testing.T) {
		if _, err := db.Query("SELECT * FROM nothere"); err == nil {
			t.Fatal("unknown table accepted")
		}
	})

	t.Run("select via exec and dml via query", func(t *testing.T) {
		if _, err := db.Exec("SELECT * FROM orders"); err == nil {
			t.Fatal("Exec accepted a SELECT")
		}
		if _, err := db.Query("DELETE FROM orders"); err == nil {
			t.Fatal("Query accepted a DELETE")
		}
	})

	t.Run("negative limit bind", func(t *testing.T) {
		if _, err := db.Query("SELECT * FROM orders LIMIT ?", Int(-1)); err == nil {
			t.Fatal("negative LIMIT accepted")
		}
	})
}

// TestSQLTextTierSkipsLexing sanity-checks the exact-text fast path
// end-to-end through fmt-built texts that are bytewise identical.
func TestSQLTextTierSkipsLexing(t *testing.T) {
	db := openSQLTestDB(t, 8)
	loadOrders(t, db, 60)
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("SELECT * FROM orders WHERE quantity = %d", i%2)
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := db.PlanCacheStats()
	// 5 executions over 2 distinct texts sharing 1 template: the first text
	// compiles, the second hits the template tier, and the 3 repeats hit
	// the exact-text tier.
	if s.Misses != 1 || s.TextHits != 3 || s.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss / 4 hits (3 text)", s)
	}
}
