package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/workload/tpcc"
)

// The five TPC-C transaction classes, in mix order.
var txnClasses = []string{"neworder", "payment", "orderstatus", "delivery", "stocklevel"}

// Warehouse counts. tpcc loads more warehouses than it has terminals, so
// that each terminal can be given a home warehouse on a partition of its own
// (homeWarehouses); with six, one run in 32 still finds every warehouse on
// one partition. chbench's analytic side is steadier the less it has to
// scan, so it loads two, and main sees to it that they are on two
// partitions.
const (
	tpccWarehouses    = 6
	chbenchWarehouses = 2
)

func tpccWorkload() *workloadDef {
	return &workloadDef{
		name:       "tpcc",
		primary:    txnClasses,
		reads:      []string{"orderstatus", "stocklevel"},
		spansPerOp: 80,
		load:       newTPCC,
	}
}

// tpccRun is the tpcc workload: every client is a terminal of its own home
// warehouse running the standard mix.
type tpccRun struct {
	h          *harness
	warehouses int
	txns       int // per client
}

func loadTPCC(h *harness, warehouses int) (int, error) {
	if h.opt.smoke {
		warehouses = 2
	}
	b := &countingLoader{Backend: &tpcc.S2Backend{C: h.db.Cluster()}, h: h}
	return warehouses, tpcc.Load(b, warehouses, h.opt.seed)
}

// warehousePartition is the partition warehouse w lives on: every TPC-C
// table but item is sharded by warehouse id alone.
func warehousePartition(w int) int {
	return int(types.HashMany([]types.Value{types.NewInt(int64(w))}) % partitions)
}

// homeWarehouses gives client i the lowest-numbered free warehouse that
// lives on partition i. The engine routes rows by a hash whose seed is drawn
// per process, so which warehouses share a partition — and with it a log, a
// commit lock and a replication link — changes from process to process; two
// terminals on one partition run a third slower than on two. Choosing the
// homes by partition takes that coin toss out of the measurement. A
// partition that got no warehouse leaves its client the next free one.
func homeWarehouses(warehouses int) [clients]int {
	var homes [clients]int
	taken := make(map[int]bool)
	pick := func(want func(w int) bool) int {
		for w := 1; w <= warehouses; w++ {
			if !taken[w] && want(w) {
				taken[w] = true
				return w
			}
		}
		return 0
	}
	for i := range homes {
		homes[i] = pick(func(w int) bool { return warehousePartition(w) == i%partitions })
	}
	for i := range homes {
		if homes[i] == 0 {
			homes[i] = pick(func(int) bool { return true })
		}
	}
	fmt.Fprintf(os.Stderr, "bench: home warehouses %v", homes)
	for w := 1; w <= warehouses; w++ {
		fmt.Fprintf(os.Stderr, " w%d:p%d", w, warehousePartition(w))
	}
	fmt.Fprintln(os.Stderr)
	return homes
}

// countingLoader adds the loaded payload to the harness's user-byte count.
type countingLoader struct {
	tpcc.Backend
	h *harness
}

func (b *countingLoader) Load(table string, rows []types.Row) error {
	for _, r := range rows {
		b.h.userBytes.Add(rowBytes(r))
	}
	return b.Backend.Load(table, rows)
}

func newTPCC(h *harness) (instance, error) {
	warehouses, err := loadTPCC(h, tpccWarehouses)
	if err != nil {
		return nil, err
	}
	return &tpccRun{h: h, warehouses: warehouses, txns: h.opt.scaled(1000) / clients}, nil
}

// warmup runs a short burst of the mix so the first measured transactions
// do not pay for cold caches and lazily started goroutines.
func (t *tpccRun) warmup() error {
	l := &clientLog{lat: make(map[string][]float64)}
	mix := newDeck(rand.New(rand.NewSource(t.h.opt.seed ^ 0x5eed)))
	b := t.h.backend(nil)
	for i := 0; i < 100; i++ {
		runTxn(l, b, mix, 1+i%t.warehouses, t.warehouses)
	}
	// The warm-up's rollbacks leave short orders behind like any others.
	t.h.warmRollbacks = l.rollbacks
	return l.err
}

func (t *tpccRun) run(logs []*clientLog) { t.drive(logs, t.txns, 0) }

// after runs a tenth as many transactions again, a probe after every second.
func (t *tpccRun) after(logs []*clientLog) { t.drive(logs, t.txns/10, 2) }

// drive runs txns transactions on every terminal, with a freshness probe
// after every probeEvery-th when that is not 0.
func (t *tpccRun) drive(logs []*clientLog, txns, probeEvery int) {
	homes := homeWarehouses(t.warehouses)
	runClients(logs, func(l *clientLog) {
		mix := newDeck(rand.New(rand.NewSource(t.h.opt.seed + int64(l.client+1)*7919)))
		b := t.h.backend(l.tr)
		home := homes[l.client%clients]
		for i := 1; i <= txns; i++ {
			runTxn(l, b, mix, home, t.warehouses)
			if probeEvery > 0 && i%probeEvery == 0 {
				t.h.probe(l)
			}
		}
	})
}

// check verifies the TPC-C consistency conditions on the primary, compares
// the workspace with it, then fails both masters and compares the promoted
// sync replicas with what the masters held: every acknowledged write
// survives.
func (t *tpccRun) check(p *phase) error {
	cl := t.h.db.Cluster()
	state, err := tpccDigest(cl)
	if err != nil {
		return err
	}
	if err := state.consistent(p.rollbacks + t.h.warmRollbacks); err != nil {
		return err
	}
	masters, err := t.h.checkWorkspace()
	if err != nil {
		return err
	}
	// The masters' snapshot has to stay readable once they are closed.
	for _, views := range masters {
		for _, v := range views {
			if err := v.HydrateAll(context.Background()); err != nil {
				return err
			}
		}
	}
	if err := cl.DetachWorkspace(t.h.ws.Name); err != nil {
		return err
	}
	for pi := 0; pi < cl.Partitions(); pi++ {
		if err := cl.FailMaster(pi); err != nil {
			return err
		}
	}
	promoted, err := snapshotTables(cl.TableNames(), cl.Views)
	if err != nil {
		return err
	}
	t.h.failoverStale, err = t.h.heldBy(masters, promoted, "promoted replicas")
	return err
}

// backend returns the TPC-C backend a client drives: the engine's own
// one-call-per-operation backend, or the traced one that spells each call
// out layer by layer.
func (h *harness) backend(tr *tracer) tpcc.Backend {
	inner := &tpcc.S2Backend{C: h.db.Cluster()}
	if tr == nil {
		return inner
	}
	return &tracedBackend{S2Backend: inner, w: layerWriter{c: inner.C, tr: tr, h: h}}
}

// rollbackMessage is how tpcc.NewOrder reports the spec's intentional 1%
// rollback; the error value itself is not exported.
const rollbackMessage = "tpcc: intentional rollback"

// runTxn runs one transaction of the standard 45/43/4/4/4 mix. An
// intentional NewOrder rollback is a completed operation, not a failure.
func runTxn(l *clientLog, b tpcc.Backend, mix *deck, w, warehouses int) {
	rng := mix.rng
	switch roll := mix.draw(); {
	case roll < 45:
		l.op("neworder", func() error {
			err := tpcc.NewOrder(b, rng, w, warehouses)
			if err != nil && err.Error() == rollbackMessage {
				l.rollbacks++
				return nil
			}
			return err
		})
	case roll < 88:
		l.op("payment", func() error { return tpcc.Payment(b, rng, w, warehouses) })
	case roll < 92:
		l.op("orderstatus", func() error { return tpcc.OrderStatus(b, rng, w) })
	case roll < 96:
		l.op("delivery", func() error { return tpcc.Delivery(b, rng, w) })
	default:
		l.op("stocklevel", func() error { return tpcc.StockLevel(b, rng, w) })
	}
}

// tracedBackend replaces each one-call entry point of tpcc.S2Backend by the
// sequence of public layer calls the cluster makes for it, with a span
// around each: the table operation is core, the durability wait is cluster.
// Load, CreateTables and Name are inherited.
type tracedBackend struct {
	*tpcc.S2Backend
	w layerWriter
}

// routeUnique is cluster.routeByUnique: the partition owning the unique key
// when the shard key is part of it, else -1.
func routeUnique(c *cluster.Cluster, schema *types.Schema, vals []types.Value) int {
	shard := schema.ShardColumns()
	shardVals := make([]types.Value, 0, len(shard))
	for _, col := range shard {
		pos := -1
		for i, uc := range schema.UniqueKey {
			if uc == col {
				pos = i
				break
			}
		}
		if pos < 0 {
			return -1
		}
		shardVals = append(shardVals, vals[pos])
	}
	return int(types.HashMany(shardVals) % uint64(c.Partitions()))
}

// onOwner runs apply on the partition owning the key, or on every partition
// until one reports the key, as the cluster does for unroutable keys.
func (b *tracedBackend) onOwner(table string, key []types.Value, apply func(p *cluster.Partition, t *core.Table) (bool, error)) (bool, error) {
	schema, err := b.C.Schema(table)
	if err != nil {
		return false, err
	}
	try := func(pi int) (bool, error) {
		p := b.C.Master(pi)
		t, err := p.Table(table)
		if err != nil {
			return false, err
		}
		return apply(p, t)
	}
	if pi := routeUnique(b.C, schema, key); pi >= 0 {
		return try(pi)
	}
	for pi := 0; pi < b.C.Partitions(); pi++ {
		if ok, err := try(pi); err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

func (b *tracedBackend) Insert(table string, row types.Row) error { return b.w.insert(table, row) }

func (b *tracedBackend) Get(table string, key []types.Value) (types.Row, bool, error) {
	var row types.Row
	ok, err := b.onOwner(table, key, func(_ *cluster.Partition, t *core.Table) (bool, error) {
		b.w.tr.begin(layerCore, "point_read")
		r, ok, err := t.GetByUnique(key)
		b.w.tr.end()
		row = r
		return ok, err
	})
	return row, ok, err
}

func (b *tracedBackend) Update(table string, key []types.Value, set func(types.Row) types.Row) (bool, error) {
	return b.onOwner(table, key, func(p *cluster.Partition, t *core.Table) (bool, error) {
		b.w.tr.begin(layerCore, "write")
		ok, err := t.UpdateByUnique(key, b.w.counted(set))
		b.w.tr.end()
		if err != nil || !ok {
			return ok, err
		}
		p.NoteAppend()
		return true, b.w.durable(p, p.Log().Head()-1)
	})
}

func (b *tracedBackend) Delete(table string, key []types.Value) (bool, error) {
	return b.onOwner(table, key, func(p *cluster.Partition, t *core.Table) (bool, error) {
		b.w.tr.begin(layerCore, "write")
		ok, err := t.DeleteByUnique(key)
		b.w.tr.end()
		if err != nil || !ok {
			return ok, err
		}
		p.NoteAppend()
		return true, b.w.durable(p, p.Log().Head()-1)
	})
}

// ScanEq is an index scan run by internal/exec over per-partition views; it
// is one exec span.
func (b *tracedBackend) ScanEq(table string, cols []int, vals []types.Value, emit func(types.Row) bool) error {
	b.w.tr.begin(layerExec, "scaneq")
	err := b.S2Backend.ScanEq(table, cols, vals, emit)
	b.w.tr.end()
	return err
}

// number reads an aggregate value that may be an integer or a float.
func number(v types.Value) float64 {
	if v.IsNull {
		return 0
	}
	if v.Type == types.Int64 {
		return float64(v.I)
	}
	return v.F
}

// closeTo compares sums that were accumulated in different orders.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// tableDigest is a table's row count and the sum of each numeric column.
type tableDigest struct {
	rows int64
	sums []float64
}

func digestViews(views []*core.View, schema *types.Schema) tableDigest {
	aggs := []exec.AggSpec{{Func: exec.Count, Col: -1}}
	for i, c := range schema.Columns {
		if c.Type != types.String {
			aggs = append(aggs, exec.AggSpec{Func: exec.Sum, Col: i})
		}
	}
	var d tableDigest
	for _, r := range exec.AggregateViews(views, nil, nil, aggs, nil) {
		d.rows = r[0].I
		for _, v := range r[1:] {
			d.sums = append(d.sums, number(v))
		}
	}
	return d
}

func (d tableDigest) equal(o tableDigest) error {
	if d.rows != o.rows {
		return fmt.Errorf("%d rows against %d", d.rows, o.rows)
	}
	for i := range d.sums {
		if i >= len(o.sums) {
			return fmt.Errorf("%d numeric columns against %d", len(d.sums), len(o.sums))
		}
		if !closeTo(d.sums[i], o.sums[i]) {
			return fmt.Errorf("numeric column %d sums to %v against %v", i, d.sums[i], o.sums[i])
		}
	}
	return nil
}

// rowCopies is a table's rows as a multiset: hash of the whole row ->
// copies. Replication ships values, not arithmetic, so a replica's copy of a
// row hashes like the original.
func rowCopies(views []*core.View) map[uint64]int {
	c := make(map[uint64]int)
	for _, v := range views {
		exec.NewScan(v, nil).Run(func(r types.Row) bool {
			c[types.HashMany(r)]++
			return true
		})
	}
	return c
}

// tableViews is a snapshot of every table of one copy of the database.
type tableViews map[string][]*core.View

func snapshotTables(tables []string, views func(table string) ([]*core.View, error)) (tableViews, error) {
	all := make(tableViews, len(tables))
	for _, table := range tables {
		vs, err := views(table)
		if err != nil {
			return nil, err
		}
		all[table] = vs
	}
	return all, nil
}

// heldBy holds a replica's tables against the primary's: first by digest,
// and where the digests differ, row by row. A row of the primary that the
// replica lacks is an acknowledged write lost or altered, and an error. Rows
// the replica holds beyond the primary's are counted and reported, not an
// error: on the seed commit a replica now and then keeps the old version of
// an updated row beside the new one (the delete half of an UPDATE replayed
// while a merge rewrites the row's segment is lost), so about half of all
// tpcc phases end with one to three such stale order_line rows on the
// workspace or a sync replica (README.md, known traps), and a check that
// fails on the parent commit cannot gate a change.
func (h *harness) heldBy(primary, replica tableViews, who string) (stale int, err error) {
	for table, pv := range primary {
		schema, err := h.db.Cluster().Schema(table)
		if err != nil {
			return stale, err
		}
		differ := digestViews(pv, schema).equal(digestViews(replica[table], schema))
		if differ == nil {
			continue
		}
		lost, extra := 0, 0
		theirs := rowCopies(replica[table])
		for row, n := range rowCopies(pv) {
			if m := theirs[row]; m < n {
				lost += n - m
			} else {
				extra += m - n
			}
			delete(theirs, row)
		}
		for _, m := range theirs {
			extra += m
		}
		if lost > 0 || extra == 0 {
			return stale, fmt.Errorf("%s: %d rows of %s that the primary holds are missing (%w)", who, lost, table, differ)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d stale rows of %s beyond the primary's\n", who, extra, table)
		stale += extra
	}
	return stale, nil
}

// checkWorkspace waits for the workspace to catch up and holds its tables
// against the primary's, whose snapshot it returns.
func (h *harness) checkWorkspace() (tableViews, error) {
	cl := h.db.Cluster()
	if err := cl.WaitCaughtUp(h.ws, 30*time.Second); err != nil {
		return nil, err
	}
	primary, err := snapshotTables(cl.TableNames(), cl.Views)
	if err != nil {
		return nil, err
	}
	ws, err := snapshotTables(cl.TableNames(), h.ws.Views)
	if err != nil {
		return nil, err
	}
	h.wsStale, err = h.heldBy(primary, ws, "workspace")
	return primary, err
}

// districtKey identifies a district.
type districtKey struct{ w, d int64 }

// tpccState is what the TPC-C consistency conditions are stated over.
type tpccState struct {
	wYTD       map[int64]float64
	dYTD       map[int64]float64 // summed per warehouse
	nextOID    map[districtKey]int64
	maxOID     map[districtKey]int64
	maxNewOID  map[districtKey]int64
	olCntTotal int64
	orderLines int64
}

func tpccDigest(c *cluster.Cluster) (*tpccState, error) {
	s := &tpccState{
		wYTD:      make(map[int64]float64),
		dYTD:      make(map[int64]float64),
		nextOID:   make(map[districtKey]int64),
		maxOID:    make(map[districtKey]int64),
		maxNewOID: make(map[districtKey]int64),
	}
	agg := func(table string, groupCols []int, aggs ...exec.AggSpec) ([]types.Row, error) {
		views, err := c.Views(table)
		if err != nil {
			return nil, err
		}
		return exec.AggregateViews(views, nil, groupCols, aggs, nil), nil
	}
	rows, err := agg(tpcc.TWarehouse, []int{tpcc.WID}, exec.AggSpec{Func: exec.Sum, Col: tpcc.WYtd})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s.wYTD[r[0].I] = number(r[1])
	}
	rows, err = agg(tpcc.TDistrict, []int{tpcc.DWID, tpcc.DID},
		exec.AggSpec{Func: exec.Sum, Col: tpcc.DYtd}, exec.AggSpec{Func: exec.Max, Col: tpcc.DNextOID})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s.dYTD[r[0].I] += number(r[2])
		s.nextOID[districtKey{r[0].I, r[1].I}] = r[3].I
	}
	rows, err = agg(tpcc.TOrders, []int{tpcc.OWID, tpcc.ODID},
		exec.AggSpec{Func: exec.Max, Col: tpcc.OOID}, exec.AggSpec{Func: exec.Sum, Col: tpcc.OOlCnt})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s.maxOID[districtKey{r[0].I, r[1].I}] = r[2].I
		s.olCntTotal += int64(number(r[3]))
	}
	rows, err = agg(tpcc.TNewOrder, []int{tpcc.NOWID, tpcc.NODID}, exec.AggSpec{Func: exec.Max, Col: tpcc.NOOID})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s.maxNewOID[districtKey{r[0].I, r[1].I}] = r[2].I
	}
	rows, err = agg(tpcc.TOrderLine, nil, exec.AggSpec{Func: exec.Count, Col: -1})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s.orderLines = r[0].I
	}
	return s, nil
}

// consistent checks TPC-C consistency conditions 1, 2/3 and 4/6 in the form
// this implementation's per-row commits keep them: each rolled-back NewOrder
// leaves its order one line short.
func (s *tpccState) consistent(rollbacks int) error {
	for w, ytd := range s.wYTD {
		if !closeTo(ytd, s.dYTD[w]) {
			return fmt.Errorf("warehouse %d: W_YTD %.2f but its districts' D_YTD sum to %.2f", w, ytd, s.dYTD[w])
		}
	}
	for k, next := range s.nextOID {
		if s.maxOID[k] != next-1 {
			return fmt.Errorf("district %v: D_NEXT_O_ID %d but max O_ID %d", k, next, s.maxOID[k])
		}
		if no, ok := s.maxNewOID[k]; ok && no != next-1 {
			return fmt.Errorf("district %v: D_NEXT_O_ID %d but max NO_O_ID %d", k, next, no)
		}
	}
	if want := s.olCntTotal - int64(rollbacks); s.orderLines != want {
		return fmt.Errorf("%d order lines, but O_OL_CNT sums to %d less %d rollbacks", s.orderLines, s.olCntTotal, rollbacks)
	}
	return nil
}
