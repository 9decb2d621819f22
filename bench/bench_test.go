package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

// tiny keeps every workload to seconds: a 12-mutant campaign, 10 random
// programs, one session round, 20 serve sessions.
var tiny = sizes{mutationBudget: 12, mutationSeeds: 1, diffPrograms: 10, setupReps: 1, serveSessions: 20}

// TestSmoke runs every workload at a tiny size, untraced and traced. It
// requires every check (correctness and replay fidelity) to pass, every
// metric BENCHMARK.json names, and no other, to be printed with a
// finite value and its declared unit, and the written Chrome traces to
// pass cmd/tracecheck.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		want := sp.EndToEnd
		if traced {
			want = sp.PerLayer
		}
		for _, w := range sp.Workloads {
			e := &env{seed: 1, traced: traced, root: "..", size: tiny, out: io.Discard}
			sum, err := runWorkloads(e, w.Name, dir)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d ops failed", w.Name, traced, sum.Correct, sum.Failed, sum.Attempted)
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", w.Name, traced, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s not printed", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}

	traces, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(traces) != len(sp.Workloads) {
		t.Fatalf("traces written: %v (%v), want one per workload", traces, err)
	}
	out, err := exec.Command("go", append([]string{"run", "gadt/cmd/tracecheck"}, traces...)...).CombinedOutput()
	if err != nil {
		t.Errorf("tracecheck: %v\n%s", err, out)
	}
}
