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
	"strconv"
	"strings"
	"sync"
	"time"

	"gadt/internal/corpus"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
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
	// Timeout is the per-(subject, combo) wall-clock backstop (0 = 20s).
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
	// Progress, when non-nil, receives periodic heartbeat lines
	// (throughput, ETA, divergences so far) during the run.
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
		for _, p := range corpus.All() {
			subs = append(subs, Subject{Name: p.Name, Source: p.Source, Input: p.Input})
		}
		for _, shape := range []progen.Config{
			{Depth: 2, Fanout: 2},
			{Depth: 3, Fanout: 2},
			{Depth: 2, Fanout: 2, Style: progen.Globals},
			{Depth: 2, Fanout: 2, Loops: true},
		} {
			style := "params"
			if shape.Style == progen.Globals {
				style = "globals"
			}
			p := progen.Generate(shape)
			subs = append(subs, Subject{
				Name:   fmt.Sprintf("synth(d=%d,f=%d,%s,loops=%v)", shape.Depth, shape.Fanout, style, shape.Loops),
				Source: p.Fixed,
			})
		}
	}
	return subs
}

type job struct {
	subject Subject
	stages  transform.Stages
}

// Run executes the campaign and returns the aggregated report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	subs := Subjects(cfg)

	var jobs []job
	for _, s := range subs {
		for _, st := range Combos() {
			jobs = append(jobs, job{subject: s, stages: st})
		}
	}
	if cfg.Logf != nil {
		cfg.Logf("diff: %d subjects x %d stage combos = %d comparisons (%d workers)",
			len(subs), len(Combos()), len(jobs), cfg.Workers)
	}

	rec := obs.NewReportRecorder(cfg.Metrics, "diff")
	var hb *obs.Heartbeat
	if cfg.Progress != nil {
		hb = obs.StartHeartbeat(obs.HeartbeatConfig{
			W:     cfg.Progress,
			Label: "diff",
			Total: int64(len(jobs)),
			Done:  rec.DoneCount,
			Extra: func() string {
				return fmt.Sprintf("equivalent=%d divergent=%d",
					rec.StatusCount(StatusEquivalent), rec.StatusCount(StatusDivergent))
			},
		})
	}

	in := make(chan job)
	out := make(chan Outcome, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lane := cfg.Tracer.Lane("diff-worker-" + strconv.Itoa(id))
			// One "worker" span covers the lane's whole lifetime; the
			// per-comparison spans nest under it, so Perfetto shows both
			// the worker occupancy bar and the individual comparisons.
			wsp := lane.Start("worker")
			defer wsp.End()
			for j := range in {
				sp := lane.Start("compare")
				sp.SetAttr("subject", j.subject.Name)
				sp.SetAttr("stages", j.stages.String())
				rec.JobStart()
				jobStart := time.Now()
				o := compareWithBackstop(cfg, j)
				rec.JobDone(o.Status, time.Since(jobStart))
				sp.SetAttr("status", o.Status)
				sp.End()
				out <- o
			}
		}(w)
	}
	for _, j := range jobs {
		in <- j
	}
	close(in)
	wg.Wait()
	close(out)
	rec.Finish(cfg.Workers)
	hb.Stop()

	var outcomes []Outcome
	for o := range out {
		outcomes = append(outcomes, o)
	}
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

// compareWithBackstop runs one comparison with panic isolation and a
// wall-clock watchdog; both runs are fuel-bounded, so an abandoned
// evaluation always terminates shortly after.
func compareWithBackstop(cfg Config, j job) Outcome {
	ch := make(chan Outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- Outcome{
					Subject: j.subject.Name, Stages: j.stages.String(),
					Status: StatusPanic, Detail: fmt.Sprint(r),
					Div: &Divergence{
						Subject: j.subject.Name, Stages: j.stages.String(),
						Kind: "panic", Detail: fmt.Sprint(r),
						Source: j.subject.Source, Input: j.subject.Input,
					},
				}
			}
		}()
		ch <- Compare(cfg, j.subject, j.stages)
	}()
	select {
	case o := <-ch:
		return o
	case <-time.After(cfg.Timeout):
		return Outcome{
			Subject: j.subject.Name, Stages: j.stages.String(),
			Status: StatusTimeout,
			Detail: fmt.Sprintf("wall-clock backstop (%s) exceeded", cfg.Timeout),
		}
	}
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
	o := Outcome{Subject: s.Name, Stages: stages.String()}
	defer func() { o.ElapsedMS = time.Since(start).Milliseconds() }()

	diverge := func(kind, detail string) Outcome {
		o.Status = StatusDivergent
		o.Detail = fmt.Sprintf("%s: %s", kind, detail)
		o.Div = &Divergence{
			Subject: s.Name, Stages: stages.String(),
			Kind: kind, Detail: detail,
			Source: s.Source, Input: s.Input,
		}
		return o
	}

	d := diff(cfg, s, stages)
	if d == nil {
		o.Status = StatusEquivalent
		return o
	}
	switch d.kind {
	case "invalid":
		o.Status = StatusInconclusive
		o.Detail = "subject does not compile: " + d.detail
		return o
	case "rejected":
		o.Status = StatusRejected
		o.Detail = d.detail
		return o
	case "fuel":
		o.Status = StatusInconclusive
		o.Detail = d.detail
		return o
	}
	return diverge(d.kind, d.detail)
}

// delta is an internal comparison verdict (nil = equivalent).
type delta struct {
	kind   string
	detail string
}

// diff performs the actual differential comparison for one subject and
// stage combination; nil means the behaviors agree. The shrinker calls
// this directly to re-check candidate reductions.
func diff(cfg Config, s Subject, stages transform.Stages) *delta {
	prog, err := parser.ParseProgram(s.Name+".pas", s.Source)
	if err != nil {
		return &delta{kind: "invalid", detail: err.Error()}
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return &delta{kind: "invalid", detail: err.Error()}
	}
	keep := globalNames(info)

	base := exec(info, s.Input, cfg.Fuel, baseMaxDepth, keep)
	if base.status == "fuel" {
		return &delta{kind: "fuel", detail: "untransformed run exhausted its budget"}
	}

	res, err := transform.ApplyStages(info, stages)
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
	trans := exec(res.Info, s.Input, 8*cfg.Fuel, 10*baseMaxDepth, keep)
	if trans.status == "fuel" {
		// The untransformed run finished within 1x budget, so at 8x this
		// is overwhelmingly a transformation-introduced loop — but it
		// cannot be told apart from a pathological slowdown, so it is
		// reported as its own kind rather than folded into "status".
		return &delta{kind: "status", detail: "transformed run exhausted 8x budget while original completed"}
	}

	if base.status != trans.status {
		return &delta{kind: "status", detail: fmt.Sprintf(
			"original %s (%s) but transformed %s (%s)",
			describeStatus(base), base.errMsg, describeStatus(trans), trans.errMsg)}
	}
	if base.output != trans.output {
		return &delta{kind: "output", detail: outputDiff(base.output, trans.output)}
	}
	if base.status == "error" {
		if base.errMsg != trans.errMsg {
			return &delta{kind: "error", detail: fmt.Sprintf(
				"original failed with %q, transformed with %q", base.errMsg, trans.errMsg)}
		}
		return nil // same failure, same output up to the failure point
	}
	if d := stateDiff(base.globals, trans.globals); d != "" {
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

// outputDiff summarizes the first stdout divergence.
func outputDiff(want, got string) string {
	max := len(want)
	if len(got) < max {
		max = len(got)
	}
	i := 0
	for i < max && want[i] == got[i] {
		i++
	}
	lo := i - 16
	if lo < 0 {
		lo = 0
	}
	trunc := func(s string) string {
		hi := i + 16
		if hi > len(s) {
			hi = len(s)
		}
		return fmt.Sprintf("%q", s[lo:hi])
	}
	return fmt.Sprintf("stdout diverges at byte %d: original ...%s, transformed ...%s", i, trunc(want), trunc(got))
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
