package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"gadt/internal/diffharness"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/transform"
)

// The harness's budgets, set explicitly so the traced replay applies
// the same ones as diffharness.Run: the untransformed run gets diffFuel
// statements and diffDepth frames, the transformed run 8x and 10x.
const (
	diffFuel  = 1_000_000
	diffDepth = 2_000
)

func diffConfig(e *env, workers int) diffharness.Config {
	return diffharness.Config{Seed: e.seed, Programs: e.size.diffPrograms, Corpus: true, Workers: workers, Fuel: diffFuel}
}

// runDiff measures diffharness.Run with two workers over the seeded
// random programs plus the corpus and progen shapes. Set-up is a
// one-worker reference run; every comparison must be equivalent, in
// the reference and in every op.
func runDiff(e *env) (*result, error) {
	res := &result{workload: "diff"}
	var setups []time.Duration
	var ref *diffharness.Report
	for i := 0; i < e.size.setupReps; i++ {
		start := time.Now()
		rep, err := diffharness.Run(diffConfig(e, 1))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		if err := checkDiff(rep); err != nil {
			res.mismatch("reference: %v", err)
		}
		ref = rep
	}
	want := diffPrint(ref.Outcomes)

	if e.traced {
		rec := newRecorder()
		var walls []float64
		l := runLoop(e.measure, 1, res, func(i int) (int, error) {
			start := time.Now()
			outcomes := replayDiff(rec, diffConfig(e, 1))
			walls = append(walls, time.Since(start).Seconds())
			if got := diffPrint(outcomes); got != want {
				return len(outcomes), fmt.Errorf("replay differs from diffharness.Compare: %s", firstDiff(want, got))
			}
			return len(outcomes), nil
		})
		res.perLayer(rec, l, &tally{}, percentile(walls, 50)/percentile(seconds(setups), 50), minCoverage)
		return res, nil
	}

	l := runLoop(e.measure, 1, res, func(int) (int, error) {
		rep, err := diffharness.Run(diffConfig(e, 2))
		if err != nil {
			return 0, err
		}
		if err := checkDiff(rep); err != nil {
			return rep.Compared, err
		}
		if got := diffPrint(rep.Outcomes); got != want {
			return rep.Compared, fmt.Errorf("statuses differ from the one-worker reference: %s", firstDiff(want, got))
		}
		return rep.Compared, nil
	})
	res.endToEnd(setups, l)
	return res, nil
}

// checkDiff requires every comparison of every subject to be
// equivalent: no divergence, rejection, panic or timeout.
func checkDiff(rep *diffharness.Report) error {
	want := rep.Subjects * len(diffharness.Combos())
	if rep.Compared != want || rep.Equivalent != want {
		return fmt.Errorf("%d of %d comparisons equivalent (divergent %d, rejected %d, inconclusive %d, panics %d, timeouts %d)",
			rep.Equivalent, want, rep.Divergent, rep.Rejected, rep.Inconclusive, rep.Panics, rep.Timeouts)
	}
	return nil
}

// diffPrint renders one line per comparison: subject, stages, status.
func diffPrint(outcomes []diffharness.Outcome) string {
	var b strings.Builder
	for _, o := range outcomes {
		fmt.Fprintf(&b, "%s [%s] %s\n", o.Subject, o.Stages, o.Status)
	}
	return b.String()
}

// replayDiff follows diffharness.Run on one goroutine: generate the
// subjects, then compare each under every stage combination.
func replayDiff(rec *recorder, cfg diffharness.Config) []diffharness.Outcome {
	sp := rec.span("progen", "subjects")
	subjects := diffharness.Subjects(cfg)
	sp.End()
	var out []diffharness.Outcome
	for _, s := range subjects {
		for _, st := range diffharness.Combos() {
			out = append(out, rec.compare(s, st))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		return out[i].Stages < out[j].Stages
	})
	return out
}

// execResult is the observable behaviour of one untraced run.
type execResult struct {
	status  string // "ok", "error" or "fuel"
	output  string
	errMsg  string
	globals map[string]string
}

// compare follows diffharness's diff for one subject and stage
// combination: parse, sem, base run, ApplyStages, transformed run, and
// the comparison of status, output, error and final globals.
func (rec *recorder) compare(s diffharness.Subject, st transform.Stages) diffharness.Outcome {
	op := s.Name + "/" + st.String()
	root := rec.span("comparison", op)
	defer root.End()
	o := diffharness.Outcome{Subject: s.Name, Stages: st.String(), Status: diffharness.StatusDivergent}

	sp := rec.span("parser", op)
	prog, err := parser.ParseProgram(s.Name+".pas", s.Source)
	sp.End()
	if err != nil {
		o.Status = diffharness.StatusInconclusive
		return o
	}
	sp = rec.span("sem", op)
	info, err := sem.Analyze(prog)
	sp.End()
	if err != nil {
		o.Status = diffharness.StatusInconclusive
		return o
	}
	keep := make(map[string]bool)
	for _, v := range info.Main.Locals {
		keep[v.Name] = true
	}
	base := rec.exec(op, info, s.Input, diffFuel, diffDepth, keep)
	if base.status == "fuel" {
		o.Status = diffharness.StatusInconclusive
		return o
	}
	sp = rec.span("transform", op)
	res, err := transform.ApplyStages(info, st)
	sp.End()
	if err != nil {
		if strings.Contains(err.Error(), "non-local goto") {
			o.Status = diffharness.StatusRejected
		}
		return o
	}
	trans := rec.exec(op, res.Info, s.Input, 8*diffFuel, 10*diffDepth, keep)
	switch {
	case base.status != trans.status, base.output != trans.output:
		return o
	case base.status == "error":
		if base.errMsg != trans.errMsg {
			return o
		}
	default:
		for name, v := range base.globals {
			if trans.globals[name] != v {
				return o
			}
		}
	}
	o.Status = diffharness.StatusEquivalent
	return o
}

// exec is diffharness's exec on the interpreter backend: run, then
// snapshot status, output, normalized error and the kept globals.
func (rec *recorder) exec(op string, info *sem.Info, input string, fuel, depth int, keep map[string]bool) execResult {
	sp := rec.span("interp", op)
	defer sp.End()
	var out strings.Builder
	it := interp.New(info, interp.Config{Input: strings.NewReader(input), Output: &out, MaxSteps: fuel, MaxDepth: depth})
	err := it.Run()
	r := execResult{output: out.String()}
	var re *interp.RuntimeError
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
	case errors.As(err, &re):
		r.status, r.errMsg = "error", re.Msg
	default:
		r.status, r.errMsg = "error", err.Error()
	}
	return r
}
