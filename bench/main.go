// Command bench is the end-to-end benchmark of the GADT system. It
// drives the mutation campaign, the differential transform harness, a
// cold reference debugging session and the HTTP debugging service
// through their public packages, checks every output, and prints each
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_p50_ms": {"value": 812.4, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 the workload is replayed one layer call at
// a time under an in-memory tracer and the metrics are per layer.
//
// Usage (from the repository root; see README.md):
//
//	bash bench/run.sh [-workload all|mutation|diff|session|serve] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads in the order -workload all runs them.
var workloads = []struct {
	name string
	run  func(*env) (*result, error)
}{
	{"mutation", runMutation},
	{"diff", runDiff},
	{"session", runSession},
	{"serve", runServe},
}

// env is what a workload run is given.
type env struct {
	seed    int64
	measure time.Duration // how long the measured loop runs (at least one op)
	traced  bool          // replay with per-layer spans instead of the untraced measurement
	root    string        // repository root, for the checked-in fixtures
	size    sizes
	out     io.Writer // the human-readable report
}

// sizes fixes the amount of work per op; the smoke test shrinks it.
type sizes struct {
	mutationBudget int // campaign.Config.Budget
	mutationSeeds  int // campaign seeds one run cycles through
	diffPrograms   int // diffharness.Config.Programs
	setupReps      int // set-ups per diff and session run
	serveSessions  int // sessions per fresh server
}

var fullSize = sizes{
	mutationBudget: 240,
	mutationSeeds:  4,
	diffPrograms:   250,
	setupReps:      3,
	// Terminal sessions keep counting toward serve.Options.MaxSessions
	// (4096) until their tombstone expires, so each server stays below
	// it (see README.md).
	serveSessions: 3000,
}

func main() {
	workload := flag.String("workload", "all", "mutation | diff | session | serve | all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long each workload measures, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = traced per-layer replay")
	traceDir := flag.String("trace-dir", "", "with -trace 1, write <workload>.trace.json and layers.json here")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	// One P for the whole run. On a two-vCPU VM shared with other
	// tenants, interleaved runs of the mutation workload spread 15%
	// (quartile distance over median) with two Ps and 4% with one: the
	// second vCPU's speed swings with the neighbours' load. The
	// workloads keep their two campaign workers and two HTTP clients,
	// which then interleave on the one P.
	runtime.GOMAXPROCS(1)
	e := &env{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		root:    ".",
		size:    fullSize,
		out:     os.Stdout,
	}
	res, err := runWorkloads(e, *workload, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkloads runs one workload, or all of them with their metric
// names prefixed by the workload, prints the report, and writes the
// traces when traceDir is set.
func runWorkloads(e *env, name, traceDir string) (*summary, error) {
	sum := &summary{Correct: true, Metrics: make(map[string]jsonMetric)}
	perWorkload := make(map[string]map[string]float64) // layers.json
	ran := false
	for _, w := range workloads {
		if name != "all" && name != w.name {
			continue
		}
		ran = true
		res, err := w.run(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(e.out)
		sum.Attempted += res.attempted
		sum.Failed += res.failed
		sum.Correct = sum.Correct && res.correct()
		perWorkload[w.name] = make(map[string]float64)
		for _, m := range res.metrics {
			key := m.name
			if name == "all" {
				key = w.name + "." + m.name
			}
			sum.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
			perWorkload[w.name][m.name] = m.value
		}
		if traceDir != "" && res.rec != nil {
			if err := res.rec.writeChrome(filepath.Join(traceDir, w.name+".trace.json")); err != nil {
				return nil, err
			}
		}
	}
	if !ran {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if traceDir != "" && e.traced {
		if err := writeJSON(filepath.Join(traceDir, "layers.json"), perWorkload); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

func writeJSON(file string, v any) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(b, '\n'), 0o644)
}
