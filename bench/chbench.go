package main

import (
	"math/rand"
	"sync/atomic"

	"s2db/internal/core"
	"s2db/internal/workload/chbench"
)

// chQueryClasses names the CH-BenCHmark analytic queries.
var chQueryClasses = func() []string {
	var names []string
	for _, q := range chbench.Queries() {
		names = append(names, q.Name)
	}
	return names
}()

func chbenchWorkload() *workloadDef {
	return &workloadDef{
		name:       "chbench",
		primary:    txnClasses,
		reads:      chQueryClasses,
		spansPerOp: 80,
		load:       newCHBench,
	}
}

// chRun is the chbench workload: one transactional client on the primary
// beside one analytic client on the workspace, over the same tables. The
// transaction count is fixed; the analytic client loops until the
// transactional one is done, so order_line has grown by the same amount in
// every run whatever the speed of either side.
type chRun struct {
	h          *harness
	warehouses int
	txns       int
}

func newCHBench(h *harness) (instance, error) {
	warehouses, err := loadTPCC(h, chbenchWarehouses)
	if err != nil {
		return nil, err
	}
	return &chRun{h: h, warehouses: warehouses, txns: h.opt.scaled(660)}, nil
}

func (c *chRun) warmup() error {
	if err := (&tpccRun{h: c.h, warehouses: c.warehouses}).warmup(); err != nil {
		return err
	}
	for _, q := range chbench.Queries() {
		if err := q.Run(c.h.ws.Views); err != nil {
			return err
		}
	}
	return nil
}

func (c *chRun) run(logs []*clientLog) {
	var done atomic.Bool
	runClients(logs, func(l *clientLog) {
		if l.client == 0 {
			defer done.Store(true)
			mix := newDeck(rand.New(rand.NewSource(c.h.opt.seed + 7919)))
			b := c.h.backend(l.tr)
			for i := 0; i < c.txns; i++ {
				runTxn(l, b, mix, 1+i%c.warehouses, c.warehouses)
			}
			return
		}
		views := c.h.ws.Views
		if l.tr != nil {
			views = func(table string) ([]*core.View, error) {
				l.tr.begin(layerCluster, "ws_views")
				defer l.tr.end()
				return c.h.ws.Views(table)
			}
		}
		queries := chbench.Queries()
		for i := 0; !done.Load(); i++ {
			q := queries[i%len(queries)]
			l.op(q.Name, func() error {
				l.tr.begin(layerExec, "query")
				defer l.tr.end()
				return q.Run(views)
			})
			if i%4 == 3 {
				c.h.probe(l)
			}
		}
	})
}

// after has nothing to add: chbench probes freshness while it runs.
func (c *chRun) after([]*clientLog) {}

// check verifies the TPC-C consistency conditions on the primary and
// compares the caught-up workspace with it.
func (c *chRun) check(p *phase) error {
	state, err := tpccDigest(c.h.db.Cluster())
	if err != nil {
		return err
	}
	if err := state.consistent(p.rollbacks + c.h.warmRollbacks); err != nil {
		return err
	}
	_, err = c.h.checkWorkspace()
	return err
}
