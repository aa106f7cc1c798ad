// Command bench is the repository's one end-to-end benchmark: four HTAP
// workloads (tpcc, tpch, chbench, sqlmix) on one shared database profile,
// measured from outside the engine. BENCHMARK.json at the repository root
// names its workloads and metrics; README.md in this directory explains
// them.
//
//	go run ./bench -workload tpcc -seed 1 -seconds 16 -trace 0
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; everything meant for people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: tpcc, tpch, chbench or sqlmix")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for the data generators and the per-client random streams")
	flag.Float64Var(&opt.seconds, "seconds", 16, "sizes the fixed operation counts: per-second constants times this")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	scale := flag.String("scale", "full", "full, or smoke: data and counts divided by 20")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.jsonl)")
	selfcheck := flag.Int("selfcheck", 0, "run every workload this many times on successive seeds and report each metric's spread against its bound")
	flag.Parse()
	opt.trace = trace != 0
	opt.smoke = *scale == "smoke"
	if *scale != "full" && *scale != "smoke" {
		fatal(fmt.Errorf("unknown -scale %q (want full or smoke)", *scale))
	}

	if *selfcheck > 0 {
		if err := runSelfcheck(*selfcheck, opt); err != nil {
			fatal(err)
		}
		return
	}

	def := findWorkload(opt.workload)
	if def == nil {
		fatal(fmt.Errorf("unknown -workload %q (want one of %v)", opt.workload, workloadNames()))
	}
	// Whether chbench's two warehouses share a partition is decided by a hash
	// the engine seeds per process, and moves its analytic queries by a fifth
	// (README.md, known traps). A process on the wrong side of that coin toss
	// replaces itself until the two are split.
	if opt.workload == "chbench" && warehousePartition(1) == warehousePartition(2) {
		self, err := os.Executable()
		if err == nil {
			err = syscall.Exec(self, os.Args, os.Environ())
		}
		fatal(err)
	}
	limit := deadline(opt)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v deadline; goroutines:\n", opt.workload, limit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d seconds=%g trace=%v scale=%s clients=%d cores=%d gomaxprocs=%d go=%s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, *scale, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	if *traceOut == "" {
		*traceOut = ".bench_build/trace-" + opt.workload + ".jsonl"
	}
	res, err := runWorkload(def, opt, *traceOut)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// deadline is the hard limit of a run, three times its expected wall: the
// measured work, which -seconds sizes, and ten seconds for each set-up with
// the checks that follow it. Past it the run dumps its goroutines and exits
// 3 instead of hanging.
func deadline(opt options) time.Duration {
	setups := phases
	if opt.trace {
		setups = 2 // the untraced pass and the traced one
	}
	return 3 * (time.Duration(opt.seconds*float64(time.Second)) + time.Duration(setups)*10*time.Second)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
