package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"s2db"
	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/sql"
	"s2db/internal/types"
)

// The statement classes of the sqlmix workload.
var stmtClasses = []string{"point", "seclookup", "smallagg", "groupagg", "insert", "update", "delete"}

func sqlmixWorkload() *workloadDef {
	return &workloadDef{
		name:       "sqlmix",
		primary:    stmtClasses,
		reads:      []string{"point", "seclookup", "smallagg", "groupagg"},
		spansPerOp: 8,
		load:       newSQLMix,
	}
}

const (
	sqlTable = "orders"
	// sqlRows is the bulk-loaded table size; about ten orders per customer.
	sqlRows       = 200_000
	ordersPerCust = 10
)

var sqlCategories = []string{"books", "games", "tools", "music", "garden", "toys", "food", "sport"}

// order is the non-key part of an orders row.
type order struct {
	customer int64
	category string
	quantity int64
	price    float64
}

func (o order) row(id int64) types.Row {
	return types.Row{types.NewInt(id), types.NewInt(o.customer), types.NewString(o.category), types.NewInt(o.quantity), types.NewFloat(o.price)}
}

// shadow is one client's exact model of the rows it owns (ids congruent to
// its index modulo the client count): only the owner ever writes them.
type shadow struct {
	changed  map[int64]order
	deleted  map[int64]bool
	inserted int64
}

// sqlRun is the sqlmix workload: short statements as SQL text.
type sqlRun struct {
	h       *harness
	rows    int64
	stmts   int // per client
	shadows [clients]*shadow
	// cache is the plan cache of the traced pipeline; the database's own is
	// not reachable from outside.
	cache *sql.Cache
}

func newSQLMix(h *harness) (instance, error) {
	s := &sqlRun{h: h, rows: sqlRows, stmts: h.opt.scaled(4600) / clients, cache: sql.NewCache(s2db.DefaultPlanCacheEntries)}
	if h.opt.smoke {
		s.rows = sqlRows / 20
	}
	for i := range s.shadows {
		s.shadows[i] = &shadow{changed: make(map[int64]order), deleted: make(map[int64]bool)}
	}
	schema := s2db.NewSchema(
		s2db.Column{Name: "id", Type: s2db.Int64T},
		s2db.Column{Name: "customer", Type: s2db.Int64T},
		s2db.Column{Name: "category", Type: s2db.StringT},
		s2db.Column{Name: "quantity", Type: s2db.Int64T},
		s2db.Column{Name: "price", Type: s2db.Float64T},
	)
	schema.UniqueKey = []int{0}
	schema.ShardKey = []int{0}
	schema.SecondaryKeys = [][]int{{1}}
	if err := h.db.CreateTable(sqlTable, schema); err != nil {
		return nil, err
	}
	data := make([]types.Row, s.rows)
	for id := range data {
		data[id] = s.base(int64(id)).row(int64(id))
		h.userBytes.Add(rowBytes(data[id]))
	}
	return s, h.db.BulkLoad(sqlTable, data)
}

// base is the row the loader wrote for id: a pure function of seed and id,
// so the shadow only has to remember what changed.
func (s *sqlRun) base(id int64) order {
	x := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(s.h.opt.seed)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return order{
		customer: id / ordersPerCust,
		category: sqlCategories[x%uint64(len(sqlCategories))],
		quantity: int64(x>>8%10) + 1,
		price:    float64(x>>16%100000) / 100,
	}
}

// expected is the row the model holds for id, if any.
func (s *sqlRun) expected(id int64) (order, bool) {
	sh := s.shadows[id%clients]
	if sh.deleted[id] {
		return order{}, false
	}
	if o, ok := sh.changed[id]; ok {
		return o, true
	}
	if id < s.rows {
		return s.base(id), true
	}
	return order{}, false
}

// stmt is one generated statement.
type stmt struct {
	class string
	text  string
	binds []types.Value
	// affected is the row count a write must report, from the shadow.
	affected int
}

// stmtGen generates one client's statement stream from its own random
// stream, updating the client's shadow as it goes.
type stmtGen struct {
	s      *sqlRun
	client int64
	rng    *rand.Rand
	mix    *deck
	zipf   *rand.Zipf
}

func (s *sqlRun) generator(client int, salt int64) *stmtGen {
	rng := rand.New(rand.NewSource(s.h.opt.seed + salt + int64(client+1)*7919))
	return &stmtGen{s: s, client: int64(client), rng: rng, mix: newDeck(rng), zipf: rand.NewZipf(rng, 1.1, 1, uint64(s.rows-1))}
}

// hotID draws a loaded id, Zipf(1.1)-skewed; ranks are scattered over the id
// space so the hot rows are not all in one segment.
func (g *stmtGen) hotID() int64 {
	return int64(g.zipf.Uint64() * 0x9E3779B1 % uint64(g.s.rows))
}

// own moves id to the nearest id this client owns.
func (g *stmtGen) own(id int64) int64 {
	id = id - id%clients + g.client
	if id >= g.s.rows {
		id -= clients
	}
	return id
}

// next generates a statement of the standard mix; readsOnly redraws until
// the statement is a SELECT.
func (g *stmtGen) next(readsOnly bool) stmt {
	for {
		roll := g.mix.draw()
		if readsOnly && roll >= 85 {
			continue
		}
		return g.statement(roll)
	}
}

func (g *stmtGen) statement(roll int) stmt {
	sh := g.s.shadows[g.client]
	switch {
	case roll < 55:
		id := g.hotID()
		if roll%2 == 0 {
			// The literal inlined: every distinct id is a new text for the
			// normaliser and a template-tier hit for the plan cache.
			return stmt{class: "point", text: fmt.Sprintf("SELECT * FROM orders WHERE id = %d", id)}
		}
		return stmt{class: "point", text: "SELECT * FROM orders WHERE id = ?", binds: []types.Value{types.NewInt(id)}}
	case roll < 75:
		return stmt{class: "seclookup", text: "SELECT * FROM orders WHERE customer = ? ORDER BY id LIMIT 10",
			binds: []types.Value{types.NewInt(g.hotID() / ordersPerCust)}}
	case roll < 83:
		return stmt{class: "smallagg", text: "SELECT count(*), sum(quantity), max(price) FROM orders WHERE customer = ?",
			binds: []types.Value{types.NewInt(g.hotID() / ordersPerCust)}}
	case roll < 85:
		return stmt{class: "groupagg", text: "SELECT category, count(*), sum(quantity), avg(price) FROM orders GROUP BY category"}
	case roll < 93:
		id := g.s.rows + sh.inserted*clients + g.client
		sh.inserted++
		o := order{customer: g.hotID() / ordersPerCust, category: sqlCategories[g.rng.Intn(len(sqlCategories))],
			quantity: int64(g.rng.Intn(10) + 1), price: float64(g.rng.Intn(100000)) / 100}
		sh.changed[id] = o
		return stmt{class: "insert", text: "INSERT INTO orders VALUES (?, ?, ?, ?, ?)", binds: o.row(id), affected: 1}
	case roll < 99:
		id := g.own(g.hotID())
		st := stmt{class: "update", text: "UPDATE orders SET quantity = ?, price = ? WHERE id = ?"}
		o, ok := g.s.expected(id)
		if ok {
			o.quantity, o.price = int64(g.rng.Intn(10)+1), float64(g.rng.Intn(100000))/100
			sh.changed[id] = o
			st.affected = 1
		}
		st.binds = []types.Value{types.NewInt(o.quantity), types.NewFloat(o.price), types.NewInt(id)}
		return st
	default:
		// Deletes pick uniformly: deleting the Zipf head would turn the
		// hottest point reads into misses within the first seconds.
		id := g.own(g.rng.Int63n(g.s.rows))
		st := stmt{class: "delete", text: "DELETE FROM orders WHERE id = ?", binds: []types.Value{types.NewInt(id)}}
		if _, ok := g.s.expected(id); ok {
			sh.deleted[id] = true
			st.affected = 1
		}
		return st
	}
}

func isRead(class string) bool { return class != "insert" && class != "update" && class != "delete" }

// execute runs one statement through the database's SQL entry points, or
// through the spelled-out pipeline when traced, and holds a write's row
// count against the shadow.
func (s *sqlRun) execute(st stmt, tr *tracer) error {
	if isRead(st.class) {
		var err error
		if tr != nil {
			_, err = s.tracedQuery(tr, st.text, st.binds)
		} else {
			_, err = s.h.db.Query(st.text, st.binds...)
		}
		return err
	}
	var n int
	var err error
	if tr != nil {
		n, err = s.tracedExec(tr, st.text, st.binds)
	} else {
		n, err = s.h.db.Exec(st.text, st.binds...)
	}
	if err == nil && n != st.affected {
		err = fmt.Errorf("%d rows affected, the model says %d (%s %v)", n, st.affected, st.text, st.binds)
	}
	return err
}

func (s *sqlRun) warmup() error {
	g := s.generator(0, 0x5eed)
	for i := 0; i < 500; i++ {
		st := g.next(false)
		if err := s.execute(st, nil); err != nil {
			return fmt.Errorf("%s: %w", st.class, err)
		}
	}
	return nil
}

func (s *sqlRun) run(logs []*clientLog) {
	s.drive(logs, 0, s.stmts, 0)
	if logs[0].tr != nil {
		cs := s.cache.Stats()
		s.h.planHitRatio = cs.HitRate()
		s.h.planTextRatio = ratio(float64(cs.TextHits), float64(cs.Hits+cs.Misses))
	}
}

// after runs a tenth as many statements again, a probe after every tenth.
func (s *sqlRun) after(logs []*clientLog) { s.drive(logs, 0x7a11, s.stmts/10, 10) }

// drive runs stmts statements of the mix on every client, with a freshness
// probe after every probeEvery-th when that is not 0. salt tells the
// statement streams of run and after apart.
func (s *sqlRun) drive(logs []*clientLog, salt int64, stmts, probeEvery int) {
	runClients(logs, func(l *clientLog) {
		g := s.generator(l.client%clients, salt)
		for i := 1; i <= stmts; i++ {
			st := g.next(false)
			l.op(st.class, func() error { return s.execute(st, l.tr) })
			if probeEvery > 0 && i%probeEvery == 0 {
				s.h.probe(l)
			}
		}
	})
}

// check holds the table against the shadow — the row count and 1000 sampled
// ids — then runs 1000 generated SELECTs through both DB.Query and the
// spelled-out pipeline, which must agree row for row, and finally compares
// the workspace with the primary.
func (s *sqlRun) check(*phase) error {
	db := s.h.db
	want := s.rows
	var touched []int64
	for _, sh := range s.shadows {
		want += sh.inserted - int64(len(sh.deleted))
		for id := range sh.changed {
			touched = append(touched, id)
		}
		for id := range sh.deleted {
			touched = append(touched, id)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	rows, err := db.Query("SELECT count(*) FROM orders")
	if err != nil {
		return err
	}
	if got := rows[0][0].I; got != want {
		return fmt.Errorf("orders holds %d rows, the model says %d", got, want)
	}
	rng := rand.New(rand.NewSource(s.h.opt.seed ^ 0xc4ec))
	for i := 0; i < 1000; i++ {
		id := rng.Int63n(s.rows)
		if i%2 == 0 && len(touched) > 0 {
			id = touched[rng.Intn(len(touched))]
		}
		got, err := db.Query("SELECT * FROM orders WHERE id = ?", types.NewInt(id))
		if err != nil {
			return err
		}
		var wantRows []types.Row
		if o, ok := s.expected(id); ok {
			wantRows = []types.Row{o.row(id)}
		}
		if err := sameRows(got, wantRows); err != nil {
			return fmt.Errorf("orders id %d: %w", id, err)
		}
	}
	g := s.generator(0, 0xc4ec)
	for i := 0; i < 1000; i++ {
		st := g.next(true)
		want, err := db.Query(st.text, st.binds...)
		if err != nil {
			return err
		}
		got, err := s.tracedQuery(nil, st.text, st.binds)
		if err != nil {
			return err
		}
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("spelled-out pipeline differs from DB.Query on %q %v: %w", st.text, st.binds, err)
		}
	}
	_, err = s.h.checkWorkspace()
	return err
}

// tracedQuery is DB.QueryCtx spelled out as the public layer calls it
// makes, a span around each: plan-cache lookup and bind are sql, the
// snapshot of the partition views is cluster, the fan-out and the
// sort/limit/project after it are exec. It runs without a QoS admission
// (the governor is not reachable from outside).
func (s *sqlRun) tracedQuery(tr *tracer, text string, binds []types.Value) ([]types.Row, error) {
	cl := s.h.db.Cluster()
	tr.begin(layerSQL, "prepare")
	p, err := s.cache.Prepare(text)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(layerSQL, "bind")
	b, schema, err := bindSelect(cl, p, text, binds)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(layerCluster, "targets")
	views, err := cl.Views(b.Table)
	tr.end()
	if err != nil {
		return nil, err
	}

	span := "collect"
	if len(b.Aggs) > 0 {
		span = "aggregate"
	}
	tr.begin(layerExec, span)
	defer tr.end()
	filter, err := exec.ResolveNames(b.Filter, schema)
	if err != nil {
		return nil, err
	}
	groupCols := make([]int, len(b.GroupBy))
	for i, g := range b.GroupBy {
		groupCols[i] = schema.ColIndex(g)
	}
	aggs, err := exec.ResolveAggSpecs(b.Aggs, schema)
	if err != nil {
		return nil, err
	}
	order := make([]exec.SortKey, len(b.Order))
	for i, k := range b.Order {
		col := schema.ColIndex(k.Name)
		if len(aggs) > 0 {
			// Aggregate rows are ordered by group-by output position.
			for gi, gc := range groupCols {
				if gc == col {
					col = gi
				}
			}
		}
		order[i] = exec.SortKey{Col: col, Desc: k.Desc}
	}
	earlyLimit := -1
	if b.Limit >= 0 && len(order) == 0 && len(aggs) == 0 && len(groupCols) == 0 {
		earlyLimit = b.Limit
	}
	var stats exec.ScanStats
	var rows []types.Row
	ctx, par := context.Background(), exec.DefaultParallelism(0)
	if len(aggs) == 0 {
		rows, err = exec.CollectRowsAdmitted(ctx, views, filter, earlyLimit, par, &stats, exec.Admission{})
	} else {
		rows, err = exec.AggregateViewsAdmitted(ctx, views, filter, groupCols, aggs, par, &stats, exec.Admission{})
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		s.h.addScan(stats)
	}
	if len(order) > 0 {
		exec.SortRows(rows, order)
	}
	if b.Limit >= 0 {
		rows = exec.Limit(rows, b.Limit)
	}
	if b.Project != nil {
		for i, r := range rows {
			rows[i] = r.Project(b.Project)
		}
	}
	return rows, nil
}

func bindSelect(cl *cluster.Cluster, p *sql.Prepared, text string, binds []types.Value) (*sql.BoundSelect, *types.Schema, error) {
	vals, err := p.Bind(binds)
	if err != nil {
		return nil, nil, err
	}
	schema, err := cl.Schema(p.Stmt.Table)
	if err != nil {
		return nil, nil, err
	}
	b, err := p.Stmt.BindSelect(text, vals, schema)
	return b, schema, err
}

// tracedExec is DB.Exec spelled out: sql for prepare and bind, then per
// partition a core span around the table mutation and a cluster span around
// the durability wait.
func (s *sqlRun) tracedExec(tr *tracer, text string, binds []types.Value) (int, error) {
	cl := s.h.db.Cluster()
	tr.begin(layerSQL, "prepare")
	p, err := s.cache.Prepare(text)
	tr.end()
	if err != nil {
		return 0, err
	}
	tr.begin(layerSQL, "bind")
	vals, err := p.Bind(binds)
	var schema *types.Schema
	if err == nil {
		schema, err = cl.Schema(p.Stmt.Table)
	}
	var rows []types.Row
	var m *sql.BoundMutation
	if err == nil {
		switch p.Stmt.Kind {
		case sql.StmtInsert:
			rows, err = p.Stmt.BindInsert(text, vals, schema)
		case sql.StmtUpdate:
			m, err = p.Stmt.BindUpdate(text, vals, schema)
		case sql.StmtDelete:
			m, err = p.Stmt.BindDelete(text, vals, schema)
		default:
			err = fmt.Errorf("%s statement returns rows", p.Stmt.Kind)
		}
	}
	tr.end()
	if err != nil {
		return 0, err
	}

	w := layerWriter{c: cl, tr: tr, h: s.h}
	if p.Stmt.Kind == sql.StmtInsert {
		for _, r := range rows {
			if err := w.insert(p.Stmt.Table, r); err != nil {
				return 0, err
			}
		}
		return len(rows), nil
	}
	total := 0
	for pi := 0; pi < cl.Partitions(); pi++ {
		part := cl.Master(pi)
		t, err := part.Table(m.Table)
		if err != nil {
			return total, err
		}
		tr.begin(layerCore, "write")
		var n int
		if m.Set != nil {
			n, err = t.UpdateWhere(m.Where, w.counted(m.Set))
		} else {
			n, err = t.DeleteWhere(m.Where)
		}
		tr.end()
		if err != nil {
			return total, err
		}
		total += n
		part.NoteAppend()
		if n > 0 {
			if err := w.durable(part, part.Log().Head()-1); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// commitTimeout bounds a traced write's durability wait; it matches the
// cluster's own default.
const commitTimeout = 10 * time.Second

// layerWriter is the write path of cluster.Insert / UpdateByUnique spelled
// out with spans: the table mutation is core, the wait for the sync
// replica's acknowledgement is cluster. It also counts the user payload.
type layerWriter struct {
	c  *cluster.Cluster
	tr *tracer
	h  *harness
}

// counted wraps a row rewrite so the new row's bytes count as user payload.
func (w layerWriter) counted(set func(types.Row) types.Row) func(types.Row) types.Row {
	return func(r types.Row) types.Row {
		out := set(r)
		w.h.userBytes.Add(rowBytes(out))
		return out
	}
}

func (w layerWriter) durable(p *cluster.Partition, lsn uint64) error {
	w.tr.begin(layerCluster, "durable_wait")
	err := p.WaitDurable(lsn, commitTimeout)
	w.tr.end()
	return err
}

func (w layerWriter) insert(table string, row types.Row) error {
	schema, err := w.c.Schema(table)
	if err != nil {
		return err
	}
	p := w.c.Master(int(schema.ShardHash(row) % uint64(w.c.Partitions())))
	t, err := p.Table(table)
	if err != nil {
		return err
	}
	w.h.userBytes.Add(rowBytes(row))
	w.tr.begin(layerCore, "write")
	res, err := t.InsertBatch([]types.Row{row}, core.InsertOptions{})
	w.tr.end()
	if err != nil {
		return err
	}
	p.NoteAppend()
	return w.durable(p, res.LSN)
}
