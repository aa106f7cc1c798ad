package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"s2db/internal/types"
)

// instance is one workload on one freshly loaded database.
type instance interface {
	// warmup is the unmeasured pass that ends set-up.
	warmup() error
	// run is the measured phase: it drives the clients to completion.
	run(logs []*clientLog)
	// after follows the measured phase, outside its clocks and counters: a
	// short continuation of the workload that takes the freshness probes. A
	// probe is a replicated write plus a polling reader, and inside the
	// measured phase it would put write-path and workspace cost into the
	// timings of workloads that are there to show their absence. Only
	// chbench, whose subject is freshness beside analytics, probes in run.
	after(logs []*clientLog)
	// check verifies the outputs once the phase is over and every reading
	// has been taken; it may leave the database unusable.
	check(p *phase) error
}

// workloadDef describes a workload to the harness.
type workloadDef struct {
	name string
	// primary lists the operation classes that are the workload's unit of
	// work: op_per_s, op_p50_ms and cpu_ms_per_op count these.
	primary []string
	// reads lists the read-only classes query_geomean_ms is taken over.
	reads []string
	// spansPerOp bounds the spans one operation records when traced.
	spansPerOp int
	// load creates and fills the workload's tables.
	load func(h *harness) (instance, error)
}

func workloads() []*workloadDef {
	return []*workloadDef{tpccWorkload(), tpchWorkload(), chbenchWorkload(), sqlmixWorkload()}
}

func findWorkload(name string) *workloadDef {
	for _, d := range workloads() {
		if d.name == name {
			return d
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, d := range workloads() {
		names = append(names, d.name)
	}
	return names
}

// phases is how many times an untraced run sets up a fresh database and
// measures on it. Each phase gets a third of the run's operations and every
// reported value is the median of the three phases: how fast one database
// instance runs depends on where the allocator happened to put its rows,
// when the collector ran and how the post-load merges laid the segments out,
// so the middle one of three short independent instances repeats better than
// one long one, and setup_s is the median of three set-ups.
const phases = 3

// setup is everything before the measured phase: open, generate, load,
// attach the workspace, let the background settle, warm up.
func setup(def *workloadDef, opt options, sess *session) (*harness, instance, time.Duration, error) {
	start := time.Now()
	h, err := openHarness(opt, sess)
	if err != nil {
		return nil, nil, 0, err
	}
	inst, err := def.load(h)
	if err == nil {
		h.startMaintenance()
		err = h.attachWorkspace()
	}
	if err == nil {
		h.settle()
		err = inst.warmup()
	}
	if err == nil {
		h.settle()
	}
	if err != nil {
		h.close()
		return nil, nil, 0, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	return h, inst, time.Since(start), nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the metrics as a table for people.
func (r result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// session is what the phases of one run share.
type session struct {
	// tpchRef caches the reference engine's answers: the phases load the same
	// data, so the row-at-a-time engine has to answer only once.
	tpchRef [][]types.Row
}

// runWorkload performs one benchmark run. Untraced, it runs the phases and
// reports the end-to-end metrics. Traced, it measures one phase's worth of
// the workload twice on two fresh databases — first untraced, for the wall
// time tracing is compared against, then with spans — and reports the
// per-layer metrics.
func runWorkload(def *workloadDef, opt options, traceOut string) (result, error) {
	sess := &session{}
	opt.seconds /= phases
	if opt.trace {
		return runTraced(def, opt, sess, traceOut)
	}
	res := result{Correct: true, Metrics: make(map[string]metric)}
	values := make(map[string][]float64)
	for i := 0; i < phases; i++ {
		h, inst, took, err := setup(def, opt, sess)
		if err != nil {
			return result{}, err
		}
		p := h.measure(0, inst)
		vals := endToEndValues(def, p, took.Seconds(), liveHeapMB())
		fmt.Fprintf(os.Stderr, "bench: phase %d: wall=%.3gs", i+1, p.wall.Seconds())
		for _, d := range endToEnd {
			values[d.name] = append(values[d.name], vals[d.name])
			fmt.Fprintf(os.Stderr, " %s=%.4g", d.name, vals[d.name])
		}
		fmt.Fprintln(os.Stderr)
		res.add(p, inst.check(p))
		h.close()
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: median(values[d.name]), Unit: d.unit}
	}
	return res, nil
}

// add folds one phase's counts and verdict into the result.
func (r *result) add(p *phase, checkErr error) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.err != nil {
		fmt.Fprintf(os.Stderr, "bench: first failure: %v\n", p.err)
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "bench: correctness check failed: %v\n", checkErr)
		r.Correct = false
	}
}

func runTraced(def *workloadDef, opt options, sess *session, traceOut string) (result, error) {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	h, inst, _, err := setup(def, opt, sess)
	if err != nil {
		return result{}, err
	}
	base := h.measure(0, inst)
	h.close()
	if base.err != nil {
		fmt.Fprintf(os.Stderr, "bench: untraced pass: first failure: %v\n", base.err)
	}

	if h, inst, _, err = setup(def, opt, sess); err != nil {
		return result{}, err
	}
	defer h.close()
	p := h.measure(def.spansPerOp*base.attempted/clients, inst)
	vals := layerValues(def, h, p, base.wall)
	if err := writeSpans(traceOut, p.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(p.spans), traceOut)
	res.add(p, inst.check(p))
	// The check is what compares the replicas with the primary.
	vals["cluster.ws_stale_rows"] = float64(h.wsStale)
	vals["cluster.failover_stale_rows"] = float64(h.failoverStale)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	if extra := undeclared(vals, perLayer); len(extra) > 0 {
		return result{}, fmt.Errorf("metrics computed but not declared: %v", extra)
	}
	return res, nil
}
