// Command interp-bench measures the interpreter hot-path benchmarks
// (the same workloads as BenchmarkInterpIntLoop / BenchmarkInterpProgen
// in the repo benchmark suite) and writes BENCH_interp.json: current
// ns/op, B/op and allocs/op per workload, compared against the
// committed pre-overhaul baseline so the speedup from the slot-frame /
// unboxed-value design stays a tracked number rather than a claim.
//
// Usage:
//
//	interp-bench [-o BENCH_interp.json] [-baseline testdata/bench/baseline_interp.txt]
//
// The baseline file is ordinary `go test -bench` output recorded before
// the overhaul (dynamic map environments, boxed interface values). Pass
// -baseline "" to skip the comparison and record raw numbers only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"gadt/internal/benchparse"
	"gadt/internal/perfbench"
)

type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Baseline comparison, present when the benchmark appears in the
	// baseline file. Speedup is baseline ns/op over current ns/op;
	// AllocsReductionPct is the share of baseline allocations removed.
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
	AllocsReductionPct  float64 `json:"allocs_reduction_pct,omitempty"`
}

type report struct {
	Generated    string  `json:"generated"`
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	NumCPU       int     `json:"num_cpu"`
	BaselineFile string  `json:"baseline_file,omitempty"`
	Benchmarks   []entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_interp.json", "report destination (\"-\" = stdout)")
	baseline := flag.String("baseline", "testdata/bench/baseline_interp.txt",
		"pre-overhaul `go test -bench` output to compare against (\"\" = none)")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*out, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "interp-bench:", err)
		os.Exit(1)
	}
}

func run(out, baseline string) error {
	var base map[string]benchparse.Result
	if baseline != "" {
		rs, err := benchparse.ParseFile(baseline)
		if err != nil {
			return err
		}
		base = benchparse.ByName(rs)
	}

	workloads := []struct {
		name string
		body func(b *testing.B)
	}{
		{"BenchmarkInterpIntLoop", perfbench.IntLoop()},
	}
	for _, d := range perfbench.ProgenDepths {
		workloads = append(workloads, struct {
			name string
			body func(b *testing.B)
		}{fmt.Sprintf("BenchmarkInterpProgen/depth=%d", d), perfbench.Progen(d)})
	}

	rep := report{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		BaselineFile: baseline,
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "running %s...\n", w.name)
		r := testing.Benchmark(w.body)
		e := entry{
			Name:        w.name,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
		}
		if b, ok := base[w.name]; ok {
			e.BaselineNsPerOp = b.NsPerOp
			e.BaselineAllocsPerOp = b.AllocsPerOp
			if e.NsPerOp > 0 {
				e.Speedup = b.NsPerOp / e.NsPerOp
			}
			if b.AllocsPerOp > 0 {
				e.AllocsReductionPct = 100 * (b.AllocsPerOp - e.AllocsPerOp) / b.AllocsPerOp
			}
			fmt.Fprintf(os.Stderr, "  %s: %.0f ns/op (%.2fx vs baseline), %.0f allocs/op (-%.1f%%)\n",
				w.name, e.NsPerOp, e.Speedup, e.AllocsPerOp, e.AllocsReductionPct)
		} else {
			fmt.Fprintf(os.Stderr, "  %s: %.0f ns/op, %.0f allocs/op\n", w.name, e.NsPerOp, e.AllocsPerOp)
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}

	dst := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		dst = f
	}
	w := bufio.NewWriter(dst)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if out != "-" {
		if err := dst.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", out)
	}
	return nil
}
