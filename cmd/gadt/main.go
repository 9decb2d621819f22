// Command gadt is the interactive generalized algorithmic debugger: it
// transforms a Pascal program, runs it building the execution tree, and
// guides the user through bug localization with yes/no/assertion
// answers, optionally consulting a T-GEN test-report database and
// pruning the tree by dynamic slicing.
//
// Usage:
//
//	gadt [flags] program.pas
//
//	-input string      program input (passed to read/readln)
//	-strategy string   top-down | divide | bottom-up (default top-down)
//	-no-slicing        disable dynamic slicing on "n <output>" answers
//	-no-transform      trace the original program (side-effect-free only)
//	-no-lint           skip the plint pre-flight (anomaly report + hints)
//	-reports file      T-GEN report database (JSON) to consult
//	-spec file         T-GEN specification matching -reports
//	-tree              print the execution tree before debugging
//	-stats             print a metrics snapshot on exit
//	-ops addr          serve /metrics, /healthz, expvar and pprof on addr
//	-trace-out file    write a Chrome trace-event JSON file (loads in
//	                   Perfetto / chrome://tracing; ".jsonl" suffix = raw
//	                   JSONL events, "-" = stderr text)
//	-journal file      record every oracle query/answer as JSONL
//	-replay file       re-answer a session from a recorded journal
//	-cpuprofile file   write a pprof CPU profile
//	-memprofile file   write a pprof heap profile on exit
//
// Interactive replies: y(es), n(o), `n <output>` (wrong output →
// slicing), `a <expr>` (assertion), t(rust), d(ontknow).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gadt/internal/analysis/lint"
	"gadt/internal/assertion"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
	"gadt/internal/tgen"
)

// terminalChooser implements the paper's menu-based test-frame selection
// (Section 5.3.2) on stdin/stdout.
type terminalChooser struct{}

func (terminalChooser) Choose(unit string, cat *tgen.Category, eligible []*tgen.Choice, ins []interp.Binding) *tgen.Choice {
	var vals []string
	for _, b := range ins {
		vals = append(vals, b.String())
	}
	fmt.Printf("classify the call %s(%s)\n", unit, strings.Join(vals, ", "))
	fmt.Printf("  category %s:\n", cat.Name)
	for i, ch := range eligible {
		fmt.Printf("    %d) %s\n", i+1, ch.Name)
	}
	fmt.Printf("  choice (1-%d, empty to skip)> ", len(eligible))
	r := bufio.NewReader(os.Stdin)
	line, err := r.ReadString('\n')
	if err != nil {
		return nil
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}
	i, err := strconv.Atoi(line)
	if err != nil || i < 1 || i > len(eligible) {
		return nil
	}
	return eligible[i-1]
}

type options struct {
	input      string
	strategy   string
	slicing    bool
	transform  bool
	lint       bool
	reports    string
	specFile   string
	showTree   bool
	reference  string
	stats      bool
	ops        string
	traceOut   string
	journal    string
	replay     string
	cpuprofile string
	memprofile string
}

func main() {
	var o options
	flag.StringVar(&o.input, "input", "", "program input")
	flag.StringVar(&o.strategy, "strategy", "top-down", "top-down | divide | weighted | bottom-up")
	noSlicing := flag.Bool("no-slicing", false, "disable dynamic slicing")
	noTransform := flag.Bool("no-transform", false, "trace the original program")
	noLint := flag.Bool("no-lint", false, "skip the plint pre-flight")
	flag.StringVar(&o.reports, "reports", "", "T-GEN report database (JSON)")
	flag.StringVar(&o.specFile, "spec", "", "T-GEN specification for -reports")
	flag.BoolVar(&o.showTree, "tree", false, "print the execution tree first")
	flag.StringVar(&o.reference, "reference", "", "known-good reference program answering queries instead of the user")
	flag.BoolVar(&o.stats, "stats", false, "print a metrics snapshot on exit")
	flag.StringVar(&o.ops, "ops", "", "serve the live ops endpoint (/metrics, /healthz, pprof) on this address, e.g. :80 or :0")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable; \".jsonl\" = raw events, \"-\" = stderr text)")
	flag.StringVar(&o.journal, "journal", "", "record every oracle query/answer as JSONL to this file")
	flag.StringVar(&o.replay, "replay", "", "re-answer the session from a recorded journal")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()
	o.slicing = !*noSlicing
	o.transform = !*noTransform
	o.lint = !*noLint

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gadt [flags] program.pas")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "gadt:", err)
		os.Exit(1)
	}
}

func run(file string, o options) (err error) {
	if o.replay != "" && o.reference != "" {
		return fmt.Errorf("-replay and -reference are mutually exclusive")
	}
	// Batch output (program output, lint report, tree render, summary)
	// goes through one buffered writer. The session is interactive, so
	// the buffer is flushed before any phase that prompts on stdin —
	// oracle queries and T-GEN menu selection stay on raw stdout.
	w := bufio.NewWriter(os.Stdout)
	defer func() {
		if ferr := w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	reg, tracer, closeTrace, err := obs.Setup(o.traceOut)
	if err != nil {
		return err
	}
	stopProfiles, err := obs.StartProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	if o.ops != "" {
		srv, serr := obs.ServeOps(o.ops, reg)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "gadt: ops endpoint on http://%s (metrics, healthz, pprof)\n", srv.Addr())
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
		if o.stats {
			fmt.Fprintln(w, "\nmetrics:")
			reg.Snapshot().WriteText(w)
		}
		if cerr := closeTrace(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// The whole run is one root span: every pipeline phase started below
	// (parse, sem, transform, trace, debug) nests under it in the trace.
	session := tracer.Start("session")
	session.SetAttr("file", file)
	defer session.End()

	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	sys, err := gadt.LoadObserved(file, string(src), reg, tracer)
	if err != nil {
		return err
	}

	// Pre-flight: report static dataflow anomalies before spending any
	// oracle interaction, and convert them into suspiciousness hints so
	// the traversal asks about anomalous units first.
	var hints map[string]float64
	if o.lint {
		if diags := sys.Lint(lint.Options{}); len(diags) > 0 {
			fmt.Fprintf(w, "static anomalies (plint; these units are asked about first):\n")
			lint.Text(w, diags)
			fmt.Fprintln(w)
			hints = lint.Hints(diags)
		}
	}

	var run *gadt.Run
	if o.transform {
		run, err = sys.Trace(o.input)
		if err != nil {
			return err
		}
	} else {
		run = sys.TraceOriginal(o.input, 0, 0)
	}
	fmt.Fprintf(w, "program output:\n%s", run.Output)
	if run.RunErr != nil {
		fmt.Fprintf(w, "the program stopped with a runtime error: %v\n", run.RunErr)
	}
	if o.showTree {
		fmt.Fprintf(w, "\nexecution tree (%d nodes):\n", run.Tree.Size())
		run.Tree.Render(w, nil, nil)
	}

	cfg := gadt.DebugConfig{Slicing: o.slicing, Hints: hints}
	strat, ok := debugger.ParseStrategy(o.strategy)
	if !ok {
		return fmt.Errorf("unknown strategy %q", o.strategy)
	}
	cfg.Strategy = strat

	db := assertion.NewDB()
	cfg.Assertions = db

	if o.reports != "" {
		if o.specFile == "" {
			return fmt.Errorf("-reports requires -spec")
		}
		specSrc, err := os.ReadFile(o.specFile)
		if err != nil {
			return err
		}
		spec, err := tgen.ParseSpec(string(specSrc))
		if err != nil {
			return err
		}
		rdb, err := tgen.LoadReportDB(o.reports)
		if err != nil {
			return err
		}
		// When match expressions cannot classify a call, fall back to
		// the paper's menu-based frame selection on the terminal.
		cfg.Tests = &tgen.MenuLookup{
			Lookup:  tgen.Lookup{Spec: spec, DB: rdb},
			Chooser: terminalChooser{},
		}
	}

	var oracle debugger.Oracle
	var replayer *debugger.ReplayOracle
	switch {
	case o.replay != "":
		jf, err := os.Open(o.replay)
		if err != nil {
			return err
		}
		journal, err := debugger.LoadJournal(jf)
		jf.Close()
		if err != nil {
			return err
		}
		replayer = debugger.NewReplayOracle(journal)
		oracle = replayer
		fmt.Fprintf(w, "\nreplaying %d recorded answers from %s (no questions will be asked)\n",
			len(journal.Entries), o.replay)
	case o.reference != "":
		refSrc, err := os.ReadFile(o.reference)
		if err != nil {
			return err
		}
		if o.transform {
			oracle, err = gadt.IntendedOracle(string(refSrc))
		} else {
			oracle, err = gadt.IntendedOracleOriginal(string(refSrc))
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nanswering queries from the reference implementation %s\n", o.reference)
	default:
		oracle = &debugger.InteractiveOracle{In: os.Stdin, Out: os.Stdout, DB: db}
		fmt.Fprintln(w, "\nstarting algorithmic debugging; reply y, n, n <output>, a <assertion>, t, d")
	}

	if o.journal != "" {
		jf, err := os.Create(o.journal)
		if err != nil {
			return err
		}
		defer jf.Close()
		jw := debugger.NewJournalWriter(jf)
		if err := jw.WriteHeader(file, cfg.Strategy.String(), o.input); err != nil {
			return err
		}
		oracle = &debugger.JournalingOracle{Inner: oracle, Journal: jw}
	}

	// The debugging phase prompts on stdin: everything queued so far must
	// be visible before the first question.
	if err := w.Flush(); err != nil {
		return err
	}

	out, err := run.Debug(oracle, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if out.Localized() {
		fmt.Fprintf(w, "%s.\n", out.Reason)
	} else {
		fmt.Fprintln(w, "no bug could be localized (the answers were 'correct' or 'don't know' everywhere a bug could hide).")
	}
	fmt.Fprintf(w, "questions: %d  answered by tests: %d  by assertions: %d  remembered: %d  slices: %d\n",
		out.Questions, out.ByTests, out.ByAssertions, out.ByMemo, out.Slices)
	if replayer != nil && replayer.Remaining() > 0 {
		// Leftover recorded answers mean the replayed session traversed
		// the tree differently from the recorded one — a divergence, and
		// an error (not a log line): replay's whole point is determinism.
		return fmt.Errorf("replay divergence: %d recorded journal entries were never consulted (the session asked different questions than the recorded one)", replayer.Remaining())
	}
	return nil
}
