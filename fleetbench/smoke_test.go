package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchContract is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchContract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload for a few intervals through the
// correctness gate, untraced and traced, and checks that each run
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchContract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, ok := findWorkload(cw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", cw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res, err := run(w, 7, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				exp = append(exp, m.Name)
				if g, ok := res.Metrics[m.Name]; ok && g.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, g.Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Fatalf("%s traced=%v: metrics %v, BENCHMARK.json names %v", w.Name, traced, got, exp)
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("%s traced=%v: metrics %v, BENCHMARK.json names %v", w.Name, traced, got, exp)
				}
			}
		}
	}
}
