package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runSelfcheck is the steadiness check the benchmark driver applies, run
// here: each workload (or only -workload, when given) runs n times as a
// child process, on n successive seeds, and for every end-to-end metric the
// distance between the first and third quartile of the n values, as a share
// of their median, is held against the metric's bound in BENCHMARK.json. It
// also prints the bound the observed spread would justify — three times the
// spread, at least 0.10, at most 0.25 — for whoever changes a bound.
func runSelfcheck(n int, opt options) error {
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	scale := "full"
	if opt.smoke {
		scale = "smoke"
	}
	unsteady := 0
	for _, w := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			seed := opt.seed + int64(i)
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", "0", "-scale", scale)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", w, seed, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s, %d runs, seeds %d..%d\n", w, n, opt.seed, opt.seed+int64(n)-1)
		fmt.Printf("  %-20s %12s %12s %12s %8s %6s %9s\n", "metric", "q1", "median", "q3", "spread", "bound", "suggested")
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			sp := spread(values[m.Name])
			verdict := ""
			if sp > m.Bound {
				verdict = "  UNSTEADY"
				unsteady++
			}
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %7.1f%% %5.0f%% %8.0f%%%s\n",
				m.Name, q1, q2, q3, 100*sp, 100*m.Bound, 100*suggestedBound(sp), verdict)
		}
		if len(values) != len(spec.EndToEnd) {
			return fmt.Errorf("%s reported %d metrics, BENCHMARK.json lists %d end-to-end metrics", w, len(values), len(spec.EndToEnd))
		}
	}
	if unsteady > 0 {
		return fmt.Errorf("%d metric/workload pairs spread wider than their bound", unsteady)
	}
	return nil
}

// suggestedBound is the bound an observed spread justifies.
func suggestedBound(spread float64) float64 {
	b := 3 * spread
	if b < 0.10 {
		b = 0.10
	}
	if b > 0.25 {
		b = 0.25
	}
	return b
}
