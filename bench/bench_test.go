package main

import (
	"math"
	"path/filepath"
	"testing"

	"s2db/internal/blob"
)

func TestCountingStore(t *testing.T) {
	s := newCountingStore()
	var _ blob.Store = s
	if err := s.Put("a/1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/2", []byte("wide world")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/1", []byte("hi")); err != nil { // overwrite: counted as put, stored once
		t.Fatal(err)
	}
	got, err := s.Get("a/2")
	if err != nil || string(got) != "wide world" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("Get of a missing key succeeded")
	}
	keys, err := s.List("a/")
	if err != nil || len(keys) != 2 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := s.Delete("a/1"); err != nil {
		t.Fatal(err)
	}
	if s.puts.Load() != 3 || s.putBytes.Load() != 5+10+2 {
		t.Errorf("puts %d / %d bytes, want 3 / 17", s.puts.Load(), s.putBytes.Load())
	}
	if s.gets.Load() != 2 || s.getBytes.Load() != 10 {
		t.Errorf("gets %d / %d bytes, want 2 / 10", s.gets.Load(), s.getBytes.Load())
	}
	if s.storedBytes() != 10 {
		t.Errorf("stored %d bytes, want 10", s.storedBytes())
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the lists in
// metrics.go in step: same names, same units, same order, and the workloads
// the harness knows.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if m := spec.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s (%s), metrics.go has %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(spec.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range perLayer {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), metrics.go has %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("%s is declared twice", d.name)
		}
		seen[d.name] = true
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(names))
	}
	for i, n := range names {
		if spec.Workloads[i].Name != n {
			t.Errorf("workloads[%d] = %s, the harness has %s", i, spec.Workloads[i].Name, n)
		}
	}
}

// TestSmoke runs every workload once untraced and once traced at smoke
// scale: every metric the run's list declares comes out exactly once, finite,
// no operation fails and the outputs check out. End-to-end metrics may not
// be zero; per-layer ones may, where the workload has no source for them.
func TestSmoke(t *testing.T) {
	for _, def := range workloads() {
		for _, trace := range []bool{false, true} {
			def, trace := def, trace
			name := def.name
			list := endToEnd
			if trace {
				name += "/traced"
				list = perLayer
			}
			t.Run(name, func(t *testing.T) {
				opt := options{workload: def.name, seed: 7, seconds: 9, trace: trace, smoke: true}
				out := filepath.Join(t.TempDir(), "trace.jsonl")
				res, err := runWorkload(def, opt, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Error("correctness check failed")
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(list))
				}
				for _, d := range list {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s not reported", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s reported in %q, declared in %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace {
					if got := res.Metrics["trace.spans"].Value; got < 1 {
						t.Errorf("trace.spans = %v", got)
					}
					var shares float64
					for _, l := range layerNames {
						shares += res.Metrics["trace."+l+"_self_pct"].Value
					}
					if math.Abs(shares-100) > 5 {
						t.Errorf("per-layer self times sum to %.2f%% of the traced operations' time, want 100 within 5", shares)
					}
				}
			})
		}
	}
}
