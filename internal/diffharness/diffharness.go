// Package diffharness implements differential testing of the
// transformation pipeline: the GADT method rests on the claim that the
// Section 5.1/6 transformation is semantics-preserving, and this
// package checks that claim end-to-end. Every subject program is run
// untransformed and after each transformation stage combination; the
// two executions must agree on stdout and on the final values of the
// program's global variables. Any disagreement is a transformation (or
// interpreter) bug.
//
// Subjects come from three pools: the seeded random generator
// (progen.Random, exercising loops of all forms, nested routines,
// global communication and global gotos), the corpus fixtures, and a
// spread of progen shapes. Divergent subjects are shrunk to minimal
// counterexamples (see shrink.go) that land in testdata/diff/ as
// standing regression tests.
package diffharness

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gadt/internal/corpus"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/pool"
	"gadt/internal/progen"
	"gadt/internal/transform"
)

// Subject is one program whose transformed executions are compared
// against its untransformed execution.
type Subject struct {
	Name   string
	Source string
	Input  string
}

// Combos returns the stage combinations every subject runs through.
// Passes always execute in pipeline order; the subsets attribute an
// equivalence failure to the pass whose addition introduced it.
func Combos() []transform.Stages {
	return []transform.Stages{
		{Globals: true},
		{Gotos: true, Globals: true},
		{Loops: true, Globals: true},
		transform.AllStages(),
	}
}

// Comparison status values.
const (
	StatusEquivalent   = "equivalent"   // all comparisons agreed
	StatusDivergent    = "divergent"    // a transformation changed behavior: a bug
	StatusRejected     = "rejected"     // transformer refused the subject (known limitation)
	StatusInconclusive = "inconclusive" // fuel/depth budget exhausted on either side
	StatusPanic        = "panic"        // pipeline panicked (isolated to the subject)
	StatusTimeout      = "timeout"      // wall-clock backstop exceeded
)

// Config shapes a differential campaign.
type Config struct {
	// Programs is the number of random programs to generate (0 = 200).
	Programs int
	// Seed drives program generation; same seed, same campaign.
	Seed int64
	// Corpus additionally includes the corpus fixtures and progen shapes.
	Corpus bool
	// Workers sizes the pool (<= 0 = GOMAXPROCS).
	Workers int
	// Fuel is the untransformed run's statement budget (0 = 1e6).
	// Transformed runs get 8x: loop extraction multiplies statement
	// counts, and a fuel divergence must mean non-termination, not a
	// constant-factor slowdown.
	Fuel int
	// Timeout is the wall-clock backstop of each comparison, and of
	// each subject's base build (0 = 20s).
	Timeout time.Duration
	// Shrink minimizes divergent subjects to counterexamples.
	Shrink bool
	// Metrics, when non-nil, receives diff.* counters, the live
	// diff.inflight/diff.done gauges, and the labeled
	// diff.outcomes{status=...} series.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per comparison on a
	// per-worker lane (one Perfetto track per pool worker) and one span
	// per shrink.
	Tracer *obs.Tracer
	// Progress, when non-nil, receives the pool's periodic progress
	// lines (throughput, ETA, divergences so far) during the run.
	Progress io.Writer
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Programs <= 0 {
		out.Programs = 200
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Fuel <= 0 {
		out.Fuel = 1_000_000
	}
	if out.Timeout <= 0 {
		out.Timeout = 20 * time.Second
	}
	return out
}

// Divergence describes one semantic disagreement between an
// untransformed and a transformed execution.
type Divergence struct {
	Subject string `json:"subject"`
	Stages  string `json:"stages"`
	// Kind classifies the disagreement: "output" (stdout differs),
	// "state" (final global values differ), "status" (one run errored
	// or ran out of fuel while the other completed), "error" (both
	// errored, differently), "transform" (the pipeline failed on a
	// valid program).
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Source/Input reproduce the divergence; Minimized is the shrunk
	// counterexample when shrinking ran (else "").
	Source    string `json:"source"`
	Input     string `json:"input,omitempty"`
	Minimized string `json:"minimized,omitempty"`
}

// Outcome is the verdict on one (subject, stage combination) pair.
type Outcome struct {
	Subject   string      `json:"subject"`
	Stages    string      `json:"stages"`
	Status    string      `json:"status"`
	Detail    string      `json:"detail,omitempty"`
	Div       *Divergence `json:"divergence,omitempty"`
	ElapsedMS int64       `json:"elapsed_ms"`
}

// Subjects builds the campaign subject pool for a config.
func Subjects(cfg Config) []Subject {
	cfg = cfg.withDefaults()
	var subs []Subject
	for i := 0; i < cfg.Programs; i++ {
		p := progen.Random(progen.RandomConfig{Seed: cfg.Seed + int64(i), Gotos: true, Reads: i%2 == 0})
		subs = append(subs, Subject{Name: p.Name, Source: p.Source, Input: p.Input})
	}
	if cfg.Corpus {
		for _, p := range corpus.Subjects() {
			subs = append(subs, Subject{Name: p.Name, Source: p.Source, Input: p.Input})
		}
	}
	return subs
}

// Run executes the campaign and returns the aggregated report. Each
// worker takes one subject at a time, builds its base once and compares
// every stage combination against it.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	subs := Subjects(cfg)
	combos := Combos()
	total := len(subs) * len(combos)
	if cfg.Logf != nil {
		cfg.Logf("diff: %d subjects x %d stage combos = %d comparisons (%d workers)",
			len(subs), len(combos), total, cfg.Workers)
	}

	outcomes := make([]Outcome, total)
	pool.Run(pool.Config{
		Name:     "diff",
		Workers:  cfg.Workers,
		Tasks:    total,
		Show:     []string{StatusEquivalent, StatusDivergent},
		Metrics:  cfg.Metrics,
		Tracer:   cfg.Tracer,
		Progress: cfg.Progress,
	}, len(subs), func(w *pool.Worker, i int) {
		s := subs[i]
		b := sync.OnceValue(func() *base { return newBase(cfg, s) })
		runSubject(cfg, w, s, b, outcomes[i*len(combos):(i+1)*len(combos)])
	})
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].Subject != outcomes[j].Subject {
			return outcomes[i].Subject < outcomes[j].Subject
		}
		return outcomes[i].Stages < outcomes[j].Stages
	})

	if cfg.Shrink {
		for i := range outcomes {
			o := &outcomes[i]
			if o.Status != StatusDivergent || o.Div == nil || o.Div.Kind == "transform" {
				continue
			}
			if cfg.Logf != nil {
				cfg.Logf("diff: shrinking %s [%s]", o.Subject, o.Stages)
			}
			sp := cfg.Tracer.Start("shrink")
			sp.SetAttr("subject", o.Subject)
			sp.SetAttr("stages", o.Stages)
			min := Shrink(o.Div.Source, o.Div.Input, parseStages(o.Stages), cfg)
			o.Div.Minimized = min
			sp.End()
		}
	}

	rep := aggregate(cfg, len(subs), outcomes, time.Since(start))
	record(cfg.Metrics, rep)
	return rep, nil
}

// runSubject is one job: it builds the subject's base b under the
// backstop, then compares every stage combination against it, one task
// and one slot of out per combination. A base that overruns the
// backstop ends every comparison at once with the timeout verdict,
// timed by the base's wall time. A panic is left to the comparisons'
// backstops: b re-panics with the same value on every call.
func runSubject(cfg Config, w *pool.Worker, s Subject, b func() *base, out []Outcome) {
	bsp := w.Lane.Start("base")
	bsp.SetAttr("subject", s.Name)
	start := time.Now()
	_, late := pool.Backstop(cfg.Timeout, func() { b() })
	baseTime := time.Since(start)
	bsp.End()
	for k, st := range Combos() {
		o := &out[k]
		d := w.Task("compare", []string{"subject", s.Name, "stages", st.String()}, func() string {
			if late {
				*o = timeoutOutcome(cfg, s, st)
			} else {
				*o = compareWithBackstop(cfg, s, st, b)
			}
			return o.Status
		})
		o.ElapsedMS = d.Milliseconds()
		if late {
			o.ElapsedMS = baseTime.Milliseconds()
		}
	}
}

// timeoutOutcome is the verdict of a comparison stopped by the
// wall-clock backstop.
func timeoutOutcome(cfg Config, s Subject, stages transform.Stages) Outcome {
	return Outcome{
		Subject: s.Name, Stages: stages.String(),
		Status: StatusTimeout,
		Detail: fmt.Sprintf("wall-clock backstop (%s) exceeded", cfg.Timeout),
	}
}

// compareWithBackstop runs one comparison under pool.Backstop. A
// timeout or a panic yields a fresh outcome: the abandoned comparison
// may still write o.
func compareWithBackstop(cfg Config, s Subject, stages transform.Stages, b func() *base) Outcome {
	var o Outcome
	p, late := pool.Backstop(cfg.Timeout, func() { o = compare(cfg, s, stages, b()) })
	switch {
	case late:
		return timeoutOutcome(cfg, s, stages)
	case p != nil:
		return Outcome{
			Subject: s.Name, Stages: stages.String(),
			Status: StatusPanic, Detail: fmt.Sprint(p),
			Div: &Divergence{
				Subject: s.Name, Stages: stages.String(),
				Kind: "panic", Detail: fmt.Sprint(p),
				Source: s.Source, Input: s.Input,
			},
		}
	}
	return o
}

// baseMaxDepth is the untransformed run's call-depth budget; the
// transformed run gets 10x (loops become recursion), still small
// enough that the interpreter's Go stack survives hitting it.
const baseMaxDepth = 2_000

// runResult is the observable behavior of one execution.
type runResult struct {
	status  string // "ok", "error", "fuel"
	output  string
	errMsg  string            // normalized runtime error text ("" unless status "error")
	globals map[string]string // final global values by name (only for "ok")
}

// exec runs an analyzed program and snapshots its observable behavior.
// keep restricts the final-state snapshot to the given global names
// (the transformation introduces fresh helper variables that have no
// counterpart in the original program).
func exec(info *sem.Info, input string, fuel, depth int, keep map[string]bool) *runResult {
	var out strings.Builder
	it := interp.New(info, interp.Config{
		Input:    strings.NewReader(input),
		Output:   &out,
		MaxSteps: fuel,
		MaxDepth: depth,
	})
	err := it.Run()
	r := &runResult{output: out.String()}
	switch {
	case err == nil:
		r.status = "ok"
		r.globals = make(map[string]string)
		for _, b := range it.Globals() {
			if keep[b.Name] {
				r.globals[b.Name] = interp.FormatValue(b.Value)
			}
		}
	case errors.Is(err, interp.ErrFuelExhausted), errors.Is(err, interp.ErrDepthExhausted):
		r.status = "fuel"
	default:
		r.status = "error"
		r.errMsg = normalizeErr(err)
	}
	return r
}

// normalizeErr strips source positions from a runtime error so the
// original and the transformed program (whose positions differ) can be
// compared by failure kind.
func normalizeErr(err error) string {
	var re *interp.RuntimeError
	if errors.As(err, &re) {
		return re.Msg
	}
	return err.Error()
}

// globalNames collects the names of the program block's variables: the
// observable final state both executions must agree on.
func globalNames(info *sem.Info) map[string]bool {
	names := make(map[string]bool)
	for _, v := range info.Main.Locals {
		names[v.Name] = true
	}
	return names
}

// Compare runs one subject untransformed and through one stage
// combination, and compares the two behaviors.
func Compare(cfg Config, s Subject, stages transform.Stages) Outcome {
	cfg = cfg.withDefaults()
	start := time.Now()
	o := compare(cfg, s, stages, newBase(cfg, s))
	o.ElapsedMS = time.Since(start).Milliseconds()
	return o
}

// compare turns the comparison of one stage combination against the
// subject's base into an outcome.
func compare(cfg Config, s Subject, stages transform.Stages, b *base) Outcome {
	o := Outcome{Subject: s.Name, Stages: stages.String()}
	d := b.diff(cfg, s.Input, stages)
	switch {
	case d == nil:
		o.Status = StatusEquivalent
	case d.kind == "invalid":
		o.Status = StatusInconclusive
		o.Detail = "subject does not compile: " + d.detail
	case d.kind == "rejected":
		o.Status = StatusRejected
		o.Detail = d.detail
	case d.kind == "fuel":
		o.Status = StatusInconclusive
		o.Detail = d.detail
	default:
		o.Status = StatusDivergent
		o.Detail = fmt.Sprintf("%s: %s", d.kind, d.detail)
		o.Div = &Divergence{
			Subject: s.Name, Stages: stages.String(),
			Kind: d.kind, Detail: d.detail,
			Source: s.Source, Input: s.Input,
		}
	}
	return o
}

// delta is an internal comparison verdict (nil = equivalent).
type delta struct {
	kind   string
	detail string
}

// base is the untransformed side of a subject, shared by all its
// comparisons: the analysis, the global names both runs must agree on
// and the untransformed run, or the verdict that ends every comparison
// of the subject ("invalid" or "fuel"). Comparisons only read it, since
// transform.ApplyStages leaves its input untouched.
type base struct {
	info *sem.Info
	keep map[string]bool
	run  *runResult
	end  *delta
}

// newBase parses, analyzes and runs the untransformed subject.
func newBase(cfg Config, s Subject) *base {
	prog, err := parser.ParseProgram(s.Name+".pas", s.Source)
	if err != nil {
		return &base{end: &delta{kind: "invalid", detail: err.Error()}}
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return &base{end: &delta{kind: "invalid", detail: err.Error()}}
	}
	keep := globalNames(info)
	run := exec(info, s.Input, cfg.Fuel, baseMaxDepth, keep)
	if run.status == "fuel" {
		return &base{end: &delta{kind: "fuel", detail: "untransformed run exhausted its budget"}}
	}
	return &base{info: info, keep: keep, run: run}
}

// diff transforms the base program by stages, runs it on input and
// compares the run with the base's; nil means the behaviors agree. The
// shrinker calls it on a fresh base to re-check candidate reductions.
func (b *base) diff(cfg Config, input string, stages transform.Stages) *delta {
	if b.end != nil {
		return b.end
	}
	res, err := transform.ApplyStages(b.info, stages)
	if err != nil {
		if strings.Contains(err.Error(), "non-local goto") {
			// The paper's transformation cannot break a goto that exits
			// a function (Section 6): a documented rejection, not a bug.
			return &delta{kind: "rejected", detail: err.Error()}
		}
		return &delta{kind: "transform", detail: err.Error()}
	}

	// 8x fuel and 10x call depth: loop extraction turns iteration into
	// recursion, multiplying both counters by a constant factor. The
	// depth cap stays far below the Go stack limit so an introduced
	// infinite recursion degrades into ErrDepthExhausted, not a crash.
	trans := exec(res.Info, input, 8*cfg.Fuel, 10*baseMaxDepth, b.keep)
	if trans.status == "fuel" {
		// The untransformed run finished within 1x budget, so at 8x this
		// is overwhelmingly a transformation-introduced loop — but it
		// cannot be told apart from a pathological slowdown, so it is
		// reported as its own kind rather than folded into "status".
		return &delta{kind: "status", detail: "transformed run exhausted 8x budget while original completed"}
	}

	orig := b.run
	if orig.status != trans.status {
		return &delta{kind: "status", detail: fmt.Sprintf(
			"original %s (%s) but transformed %s (%s)",
			describeStatus(orig), orig.errMsg, describeStatus(trans), trans.errMsg)}
	}
	if orig.output != trans.output {
		return &delta{kind: "output", detail: pool.OutputDiff("original", "transformed", orig.output, trans.output)}
	}
	if orig.status == "error" {
		if orig.errMsg != trans.errMsg {
			return &delta{kind: "error", detail: fmt.Sprintf(
				"original failed with %q, transformed with %q", orig.errMsg, trans.errMsg)}
		}
		return nil // same failure, same output up to the failure point
	}
	if d := stateDiff(orig.globals, trans.globals); d != "" {
		return &delta{kind: "state", detail: d}
	}
	return nil
}

func describeStatus(r *runResult) string {
	switch r.status {
	case "ok":
		return "completed"
	case "error":
		return "failed"
	}
	return r.status
}

// stateDiff reports the first differing global ("" when equal).
func stateDiff(base, trans map[string]string) string {
	var names []string
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		got, ok := trans[n]
		if !ok {
			return fmt.Sprintf("global %s missing after transformation", n)
		}
		if got != base[n] {
			return fmt.Sprintf("global %s: original %s, transformed %s", n, base[n], got)
		}
	}
	return ""
}

// parseStages inverts Stages.String.
func parseStages(s string) transform.Stages {
	var st transform.Stages
	for _, part := range strings.Split(s, "+") {
		switch part {
		case "loops":
			st.Loops = true
		case "gotos":
			st.Gotos = true
		case "globals":
			st.Globals = true
		}
	}
	return st
}
