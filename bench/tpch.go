package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"s2db/internal/baseline"
	"s2db/internal/cluster"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/workload/tpch"
)

// tpchSF is the scale factor: about 120k lineitem rows, about 14 MB
// decoded, so the whole working set fits the primary's 24 MiB hot tier of
// the 64 MiB vector cache (the attached workspace and the shared tier hold
// the rest of the budget).
const tpchSF = 0.02

// tpchUnsteady names the queries the measured passes leave out. On the seed
// commit Q7 and Q20 run in either of two ways, ten times apart (3 ms or
// 30 ms, 2 ms or 20 ms): their conjunctions switch to exec's per-row "group
// filter" once the clauses' observed selectivities pass 0.75, which depends
// on the order segments happen to be laid out in, and that path allocates a
// row per value — 6 MB a query, enough to slow every other query through the
// collector. No other query moves by more than a fifth between runs. Both
// still run in the warm-up pass and are checked against the reference
// engine, and the after hook times them once the measured passes are over,
// so that client.q07_p50_ms and client.q20_p50_ms keep the defect in view.
var tpchUnsteady = map[string]bool{"Q7": true, "Q20": true}

// tpchClass is the operation class of the i-th query (0-based).
func tpchClass(i int) string { return fmt.Sprintf("q%02d", i+1) }

// tpchAllClasses lists the classes of all 22 queries, tpchClasses those of
// the measured passes.
var tpchAllClasses, tpchClasses = func() (all, steady []string) {
	for i, q := range tpch.Queries() {
		all = append(all, tpchClass(i))
		if !tpchUnsteady[q.Name] {
			steady = append(steady, tpchClass(i))
		}
	}
	return all, steady
}()

func tpchWorkload() *workloadDef {
	return &workloadDef{name: "tpch", primary: tpchClasses, reads: tpchClasses, spansPerOp: 24, load: newTPCH}
}

// tpchRun is the tpch workload: one client runs the 22 queries in order,
// pass after pass, on the primary.
type tpchRun struct {
	h      *harness
	sf     float64
	passes int
	// warm holds the warm-up pass's result rows, which check compares with
	// the row-at-a-time reference engine.
	warm [][]types.Row
	// first holds the first measured pass's rows when that pass ran on the
	// traced engine, which check holds against the warm-up pass.
	first [][]types.Row
}

// countingTPCHLoader adds the loaded payload to the harness's user bytes.
type countingTPCHLoader struct {
	tpch.S2Loader
	h *harness
}

func (l *countingTPCHLoader) Load(table string, rows []types.Row) error {
	for _, r := range rows {
		l.h.userBytes.Add(rowBytes(r))
	}
	return l.S2Loader.Load(table, rows)
}

func newTPCH(h *harness) (instance, error) {
	t := &tpchRun{h: h, sf: tpchSF, passes: h.opt.scaled(11)}
	if h.opt.smoke {
		t.sf = tpchSF / 20
	}
	l := &countingTPCHLoader{S2Loader: tpch.S2Loader{C: h.db.Cluster()}, h: h}
	return t, tpch.Generate(l, t.sf, h.opt.seed)
}

func (t *tpchRun) warmup() error {
	e := &tpch.S2Engine{C: t.h.db.Cluster()}
	t.warm = t.warm[:0]
	for _, q := range tpch.Queries() {
		rows, err := q.Run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		t.warm = append(t.warm, rows)
	}
	return nil
}

func (t *tpchRun) run(logs []*clientLog) { t.drive(logs[0], t.passes, false) }

// after runs a tenth as many passes again with a probe after every query,
// then times the two unsteady queries as often.
func (t *tpchRun) after(logs []*clientLog) {
	l, passes := logs[0], (t.passes+9)/10
	t.drive(l, passes, true)
	e := &tpch.S2Engine{C: t.h.db.Cluster()}
	for pass := 0; pass < passes; pass++ {
		for i, q := range tpch.Queries() {
			if tpchUnsteady[q.Name] {
				q := q
				l.op(tpchClass(i), func() error {
					_, err := q.Run(e)
					return err
				})
			}
		}
	}
}

// drive runs the measured queries in order, pass after pass, with a
// freshness probe after each when probes is set.
func (t *tpchRun) drive(l *clientLog, passes int, probes bool) {
	var e tpch.Engine = &tpch.S2Engine{C: t.h.db.Cluster()}
	if l.tr != nil {
		e = &tracedEngine{c: t.h.db.Cluster(), tr: l.tr, h: t.h}
	}
	queries := tpch.Queries()
	if l.tr != nil {
		t.first = make([][]types.Row, len(queries))
	}
	for pass := 0; pass < passes; pass++ {
		for i, q := range queries {
			if tpchUnsteady[q.Name] {
				continue
			}
			i, q := i, q
			l.op(tpchClass(i), func() error {
				l.tr.begin(layerWorkload, "plan")
				rows, err := q.Run(e)
				l.tr.end()
				if pass == 0 && l.tr != nil {
					t.first[i] = rows
				}
				return err
			})
			if probes {
				t.h.probe(l)
			}
		}
	}
}

// check replays the warm-up pass on the row-at-a-time reference engine,
// loaded from the same generator and seed, and compares row for row; then it
// compares the workspace with the primary.
func (t *tpchRun) check(*phase) error {
	for i, rows := range t.first {
		if rows == nil {
			continue // untraced pass, or a query the passes leave out
		}
		if err := sameRows(rows, t.warm[i]); err != nil {
			return fmt.Errorf("traced engine differs from tpch.S2Engine on query %d: %w", i+1, err)
		}
	}
	if t.h.sess.tpchRef == nil {
		ref := baseline.NewRowDB()
		if err := tpch.Generate(&tpch.RowLoader{DB: ref}, t.sf, t.h.opt.seed); err != nil {
			return err
		}
		e := &tpch.RowEngine{DB: ref}
		for _, q := range tpch.Queries() {
			rows, err := q.Run(e)
			if err != nil {
				return fmt.Errorf("%s on the reference engine: %w", q.Name, err)
			}
			t.h.sess.tpchRef = append(t.h.sess.tpchRef, rows)
		}
	}
	for i, q := range tpch.Queries() {
		if err := sameRows(t.warm[i], t.h.sess.tpchRef[i]); err != nil {
			return fmt.Errorf("%s differs from the reference engine: %w", q.Name, err)
		}
	}
	_, err := t.h.checkWorkspace()
	return err
}

// sameRows compares two result sets as multisets: the engines may order
// ties differently, and sum floats in different orders.
func sameRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	got, want = sortedRows(got), sortedRows(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			g, w := got[i][c], want[i][c]
			if g.Type == types.Float64 && w.Type == types.Float64 && !g.IsNull && !w.IsNull {
				if !closeTo(g.F, w.F) {
					return fmt.Errorf("row %d column %d: %v, want %v", i, c, g.F, w.F)
				}
			} else if !types.Equal(g, w) || g.IsNull != w.IsNull {
				return fmt.Errorf("row %d column %d: %v, want %v", i, c, g, w)
			}
		}
	}
	return nil
}

// sortedRows orders rows by a rendering that keeps six significant digits
// of each float, so that rounding noise does not reorder them.
func sortedRows(rows []types.Row) []types.Row {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			if v.Type == types.Float64 && !v.IsNull {
				fmt.Fprintf(&sb, "|%.6g", v.F)
			} else {
				sb.WriteString("|" + v.String())
			}
		}
		keys[i] = sb.String()
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]types.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// tracedEngine is tpch.S2Engine with a span around each of the three
// operations and a real ScanStats passed down, so the traced run also
// yields the scan counters. Row callbacks run inside the exec span that
// drives them: plan code executed per emitted row is charged to exec.
type tracedEngine struct {
	c  *cluster.Cluster
	tr *tracer
	h  *harness
}

func (e *tracedEngine) Name() string { return "s2db-traced" }

func (e *tracedEngine) Scan(table string, filter exec.Node, cols []int, emit func(types.Row) bool) error {
	views, err := e.c.Views(table)
	if err != nil {
		return err
	}
	e.tr.begin(layerExec, "scan")
	defer e.tr.end()
	for _, v := range views {
		stop := false
		scan := exec.NewScan(v, filter)
		scan.Project = cols
		scan.Run(func(r types.Row) bool {
			if !emit(r) {
				stop = true
				return false
			}
			return true
		})
		e.h.addScan(scan.Stats)
		if stop {
			break
		}
	}
	return nil
}

func (e *tracedEngine) Aggregate(table string, filter exec.Node, groupCols []int, aggs []exec.AggSpec) ([]types.Row, error) {
	views, err := e.c.Views(table)
	if err != nil {
		return nil, err
	}
	var stats exec.ScanStats
	e.tr.begin(layerExec, "aggregate")
	rows, err := exec.AggregateViewsParallel(context.Background(), views, filter, groupCols, aggs, 0, &stats)
	e.tr.end()
	e.h.addScan(stats)
	return rows, err
}

func (e *tracedEngine) Join(build []types.Row, buildKey []int, probeTable string, probeKey []int,
	probeFilter exec.Node, emit func(b, p types.Row) bool) error {
	views, err := e.c.Views(probeTable)
	if err != nil {
		return err
	}
	var stats exec.ScanStats
	e.tr.begin(layerExec, "join")
	for _, v := range views {
		exec.EquiJoin(build, buildKey, v, probeKey, probeFilter, exec.JoinAuto, &stats, emit)
	}
	e.tr.end()
	e.h.addScan(stats)
	return nil
}
