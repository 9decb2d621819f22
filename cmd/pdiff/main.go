// Command pdiff runs a seeded differential-testing campaign over the
// transformation pipeline: every subject program is executed
// untransformed and after each transformation stage combination
// (globals-only, gotos+globals, loops+globals, full), and the two
// behaviors — stdout plus final global state — must agree. Any
// disagreement is a transformation bug; divergent subjects are shrunk
// to minimal counterexamples and written to a directory of standing
// regression tests.
//
// Usage:
//
//	pdiff [flags]
//
//	-n n           random programs to generate (default 250)
//	-seed n        generation seed; same seed, same campaign (default 1)
//	-corpus        also include corpus fixtures and progen shapes (default true)
//	-workers n     worker pool size (0 = GOMAXPROCS)
//	-fuel n        untransformed statement budget (transformed runs get 8x)
//	-timeout d     per-comparison wall-clock backstop
//	-shrink        minimize divergent programs (default true)
//	-dir d         write minimized counterexamples to d ("" = don't write)
//	-json file     report destination ("-" = stdout; default BENCH_diff.json)
//	-stats         print the obs metrics snapshot on exit
//	-ops addr      serve /metrics, /healthz, expvar and pprof on addr
//	-trace-out f   write a Perfetto-loadable Chrome trace (one lane per worker)
//	-progress      heartbeat lines on stderr (throughput, ETA, divergences so far)
//	-v             progress lines on stderr
//
// Exit status is 1 when any divergence (or pipeline panic) was found,
// so CI can gate on equivalence.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gadt/internal/diffharness"
	"gadt/internal/obs"
)

func main() {
	var (
		n        = flag.Int("n", 250, "random programs to generate")
		seed     = flag.Int64("seed", 1, "generation seed")
		corpus   = flag.Bool("corpus", true, "also include corpus fixtures and progen shapes")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		fuel     = flag.Int("fuel", 0, "untransformed statement budget (0 = default)")
		timeout  = flag.Duration("timeout", 0, "per-comparison wall-clock backstop (0 = default)")
		shrink   = flag.Bool("shrink", true, "minimize divergent programs")
		dir      = flag.String("dir", "", "write minimized counterexamples to this directory")
		jsonOut  = flag.String("json", "BENCH_diff.json", "report destination (\"-\" = stdout)")
		stats    = flag.Bool("stats", false, "print a metrics snapshot on exit")
		opsAddr  = flag.String("ops", "", "serve the live ops endpoint (/metrics, /healthz, pprof) on this address")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable; \".jsonl\" = raw events, \"-\" = stderr text)")
		progress = flag.Bool("progress", false, "heartbeat lines on stderr (throughput, ETA, divergences so far)")
		verbose  = flag.Bool("v", false, "progress lines on stderr")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	divergent, err := run(runOpts{
		n: *n, seed: *seed, corpus: *corpus, workers: *workers,
		fuel: *fuel, timeout: *timeout, shrink: *shrink, dir: *dir,
		jsonOut: *jsonOut, stats: *stats, opsAddr: *opsAddr,
		traceOut: *traceOut, progress: *progress, verbose: *verbose,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdiff:", err)
		os.Exit(1)
	}
	if divergent {
		fmt.Fprintln(os.Stderr, "pdiff: transformation divergences found")
		os.Exit(1)
	}
}

type runOpts struct {
	n        int
	seed     int64
	corpus   bool
	workers  int
	fuel     int
	timeout  time.Duration
	shrink   bool
	dir      string
	jsonOut  string
	stats    bool
	opsAddr  string
	traceOut string
	progress bool
	verbose  bool
}

func run(o runOpts) (divergent bool, err error) {
	reg, tracer, closeTrace, err := obs.Setup(o.traceOut)
	if err != nil {
		return false, err
	}
	defer func() {
		if cerr := closeTrace(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if o.opsAddr != "" {
		srv, serr := obs.ServeOps(o.opsAddr, reg)
		if serr != nil {
			return false, serr
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pdiff: ops endpoint on http://%s (metrics, healthz, pprof)\n", srv.Addr())
	}

	cfg := diffharness.Config{
		Programs: o.n,
		Seed:     o.seed,
		Corpus:   o.corpus,
		Workers:  o.workers,
		Fuel:     o.fuel,
		Timeout:  o.timeout,
		Shrink:   o.shrink,
		Metrics:  reg,
		Tracer:   tracer,
	}
	if o.progress {
		cfg.Progress = os.Stderr
	}
	if o.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := diffharness.Run(cfg)
	if err != nil {
		return false, err
	}

	// Buffer the summary (and, with -json -, the report itself): the
	// tables are written line by line and a campaign can emit thousands
	// of them; everything is flushed once before exit.
	summaryDst := bufio.NewWriter(os.Stdout)
	reportDst := summaryDst
	if o.jsonOut == "-" {
		summaryDst = bufio.NewWriter(os.Stderr)
	}
	defer func() {
		if ferr := summaryDst.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if ferr := reportDst.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	summarize(summaryDst, rep)

	if o.dir != "" && len(rep.Divergences) > 0 {
		if err := writeCounterexamples(o.dir, rep, summaryDst); err != nil {
			return false, err
		}
	}

	switch o.jsonOut {
	case "":
	case "-":
		if err := rep.WriteJSON(reportDst); err != nil {
			return false, err
		}
	default:
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return false, err
		}
		w := bufio.NewWriter(f)
		if err := rep.WriteJSON(w); err != nil {
			f.Close()
			return false, err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return false, err
		}
		if err := f.Close(); err != nil {
			return false, err
		}
		fmt.Fprintf(summaryDst, "report written to %s\n", o.jsonOut)
	}
	if o.stats {
		fmt.Fprintln(summaryDst, "\nmetrics:")
		reg.Snapshot().WriteText(summaryDst)
	}
	return len(rep.Divergences) > 0, nil
}

// writeCounterexamples lands each divergence's (minimized) reproducer
// in dir as a self-describing .pas file; regress tests replay them.
func writeCounterexamples(dir string, rep *diffharness.Report, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, d := range rep.Divergences {
		src := d.Minimized
		if src == "" {
			src = d.Source
		}
		body := diffharness.EncodeCounterexample(d, src)
		name := filepath.Join(dir, fmt.Sprintf("diverge_%s_%d.pas", sanitize(d.Subject), i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(log, "counterexample written to %s\n", name)
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		}
		return '_'
	}, s)
}

func summarize(w io.Writer, rep *diffharness.Report) {
	fmt.Fprintf(w, "differential campaign: %d subjects x %d combos = %d comparisons (seed %d, %d workers, %s)\n",
		rep.Subjects, len(rep.Combos), rep.Compared, rep.Seed, rep.Workers,
		time.Duration(rep.ElapsedMS)*time.Millisecond)
	fmt.Fprintf(w, "  equivalent %d  divergent %d  rejected %d  inconclusive %d  panics %d  timeouts %d\n",
		rep.Equivalent, rep.Divergent, rep.Rejected, rep.Inconclusive, rep.Panics, rep.Timeouts)

	fmt.Fprintf(w, "\n%-22s %9s %11s %10s %9s %13s\n", "stages", "compared", "equivalent", "divergent", "rejected", "inconclusive")
	var keys []string
	for k := range rep.ByStages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := rep.ByStages[k]
		fmt.Fprintf(w, "%-22s %9d %11d %10d %9d %13d\n",
			k, st.Compared, st.Equivalent, st.Divergent, st.Rejected, st.Inconclusive)
	}

	for _, d := range rep.Divergences {
		fmt.Fprintf(w, "\nDIVERGENCE %s [%s] %s\n  %s\n", d.Subject, d.Stages, d.Kind, d.Detail)
	}
}
