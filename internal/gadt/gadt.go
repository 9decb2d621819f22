// Package gadt is the top-level facade of the Generalized Algorithmic
// Debugging and Testing system, wiring the paper's three phases
// (Figure 3) into one API:
//
//  1. Transformation phase — side-effect analysis and program
//     transformation to a form without global side-effects
//     (package transform).
//  2. Tracing phase — execution of the transformed program building the
//     execution tree (package exectree). The dynamic dependence graph
//     that slicing reads is built on the first slice, by executing the
//     traced run again (package slicing/dynamic).
//  3. Debugging phase — algorithmic debugging with assertion lookup,
//     category-partition test lookup and program slicing
//     (packages debugger, assertion, tgen).
//
// Typical use:
//
//	sys, err := gadt.Load("bug.pas", source)
//	run, err := sys.Trace("")                       // phases 1–2
//	out, err := run.Debug(oracle, gadt.DebugConfig{ // phase 3
//	    Slicing: true,
//	})
//	if out.Localized() { fmt.Println(out.Reason) }
package gadt

import (
	"fmt"

	"gadt/internal/analysis/lint"
	"gadt/internal/assertion"
	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/obs"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/dynamic"
	"gadt/internal/slicing/static"
	"gadt/internal/transform"
)

// System is a loaded subject program.
type System struct {
	File   string
	Source string

	// Info is the semantic analysis of the original program.
	Info *sem.Info

	// Transformed is the transformation-phase result, computed lazily by
	// Trace (or eagerly by Transform).
	Transformed *transform.Result

	// Metrics and Tracer, when non-nil, observe every phase run through
	// this system: phase spans (parse, sem, transform, trace, debug) and
	// the per-layer counters documented in README.md. Both are nil-safe
	// throughout, so an unobserved system pays nothing.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Load parses and analyzes a subject program.
func Load(file, source string) (*System, error) {
	return LoadObserved(file, source, nil, nil)
}

// LoadObserved is Load with observability attached: the registry and
// tracer (either may be nil) observe this load and every later phase of
// the returned system.
func LoadObserved(file, source string, m *obs.Registry, t *obs.Tracer) (*System, error) {
	sp := t.Start("parse")
	prog, err := parser.ParseProgram(file, source)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = t.Start("sem")
	info, err := sem.Analyze(prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &System{File: file, Source: source, Info: info, Metrics: m, Tracer: t}, nil
}

// Transform runs the transformation phase (idempotent).
func (s *System) Transform() (*transform.Result, error) {
	if s.Transformed != nil {
		return s.Transformed, nil
	}
	sp := s.Tracer.Start("transform")
	res, err := transform.Apply(s.Info)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.RecordMetrics(s.Metrics)
	s.Transformed = res
	return res, nil
}

// TransformedSource renders the transformed program (the internal form
// the user normally never sees, Section 6.1).
func (s *System) TransformedSource() (string, error) {
	res, err := s.Transform()
	if err != nil {
		return "", err
	}
	return printer.Print(res.Program), nil
}

// StaticSlicer builds the SDG-based interprocedural slicer over the
// ORIGINAL program (Section 4).
func (s *System) StaticSlicer() *static.Slicer {
	return static.New(s.Info)
}

// Lint runs the dataflow anomaly checks over the ORIGINAL program.
func (s *System) Lint(opts lint.Options) []lint.Diagnostic {
	sp := s.Tracer.Start("lint")
	diags := lint.RunInfo(s.Info, s.Source, opts)
	sp.End()
	lint.Record(s.Metrics, diags)
	return diags
}

// LintHints aggregates the lint findings into per-unit suspiciousness
// scores for DebugConfig.Hints: the debugger asks about invocations of
// statically anomalous routines first, spending fewer oracle questions
// when an anomaly and the bug coincide — the cheapest oracle question is
// the one never asked.
func (s *System) LintHints() map[string]float64 {
	return lint.Hints(s.Lint(lint.Options{}))
}

// Run is a completed tracing phase: the execution tree of the
// transformed program, and its dynamic dependence graph, built on the
// first slice.
type Run struct {
	System *System
	Tree   *exectree.Tree
	Deps   *dynamic.Deps
	Output string
	RunErr error // runtime error of the traced execution, if any
	Steps  int
}

// Trace runs phases 1–2: transform (if not yet done) and execute with
// tracing. A runtime error in the subject program is reported in
// Run.RunErr but still yields the partial tree (crashes are debuggable).
func (s *System) Trace(input string) (*Run, error) {
	return s.TraceLimited(input, 0, 0)
}

// TraceLimited is Trace under explicit resource budgets: the traced
// execution stops with interp.ErrFuelExhausted after maxSteps statements
// and errors past maxDepth call depth (<= 0 uses interpreter defaults).
// The mutation campaign uses it so a mutant with a planted infinite loop
// yields a bounded partial tree instead of hanging a worker.
func (s *System) TraceLimited(input string, maxSteps, maxDepth int) (*Run, error) {
	res, err := s.Transform()
	if err != nil {
		return nil, err
	}
	return s.trace(res.Info, input, maxSteps, maxDepth), nil
}

// TraceOriginal traces the UNTRANSFORMED program (no loop units, no
// goto/global rewrites) under the budgets of TraceLimited (<= 0 uses
// interpreter defaults). Useful for figure-faithful execution trees of
// programs that are already side-effect free, and for comparisons.
func (s *System) TraceOriginal(input string, maxSteps, maxDepth int) *Run {
	return s.trace(s.Info, input, maxSteps, maxDepth)
}

// trace executes info under the given budgets, building its execution
// tree; the dependence graph waits for the first slice.
func (s *System) trace(info *sem.Info, input string, maxSteps, maxDepth int) *Run {
	sp := s.Tracer.Start("trace")
	tr := exectree.TraceWith(info, exectree.TraceOpts{
		Input:    input,
		Metrics:  s.Metrics,
		MaxSteps: maxSteps,
		MaxDepth: maxDepth,
	})
	sp.End()
	return &Run{
		System: s,
		Tree:   tr.Tree,
		Deps: &dynamic.Deps{
			Info: info, Input: input, MaxSteps: maxSteps, MaxDepth: maxDepth,
			Nodes: tr.Tree.Size(), Metrics: s.Metrics, Tracer: s.Tracer,
		},
		Output: tr.Output,
		RunErr: tr.Err,
		Steps:  tr.Steps,
	}
}

// DebugConfig selects the debugging-phase components (Section 5.3).
type DebugConfig struct {
	Strategy   debugger.Strategy
	Assertions *assertion.DB
	Tests      debugger.TestLookup
	Slicing    bool
	// MaxQuestions bounds oracle interactions (0 = default).
	MaxQuestions int
	// Hints maps unit names to static suspiciousness scores; see
	// debugger.Options.Hints. Usually System.LintHints().
	Hints map[string]float64
	// NoRootAssumption disables the symptom premise; see
	// debugger.Options.NoRootAssumption.
	NoRootAssumption bool
}

// Debug runs the debugging phase over this trace.
func (r *Run) Debug(oracle debugger.Oracle, cfg DebugConfig) (*debugger.Outcome, error) {
	if r.Tree == nil || r.Tree.Root == nil {
		return nil, fmt.Errorf("gadt: no execution tree (program did not start)")
	}
	opts := debugger.Options{
		Strategy:         cfg.Strategy,
		Assertions:       cfg.Assertions,
		Tests:            cfg.Tests,
		Slicing:          cfg.Slicing,
		Deps:             r.Deps,
		Meta:             r.System.Transformed,
		Hints:            cfg.Hints,
		MaxQuestions:     cfg.MaxQuestions,
		Metrics:          r.System.Metrics,
		NoRootAssumption: cfg.NoRootAssumption,
	}
	sp := r.System.Tracer.Start("debug")
	out, err := debugger.New(r.Tree, oracle, opts).Run()
	sp.End()
	return out, err
}

// Oracle returns an intended-semantics oracle that treats this system
// as the reference ("intended") implementation, transformed (Transform
// is idempotent) the same way as the subject so unit names line up.
// maxSteps bounds each reference replay (0 = the oracle's default). The
// oracle keeps no state between questions, so concurrent sessions may
// share it.
func (s *System) Oracle(maxSteps int) (debugger.Oracle, error) {
	res, err := s.Transform()
	if err != nil {
		return nil, err
	}
	return &debugger.IntendedOracle{Ref: res.Info, MaxSteps: maxSteps}, nil
}

// IntendedOracle builds an oracle from the source of a reference
// implementation (see System.Oracle). The reference must be
// structurally identical modulo the bug.
func IntendedOracle(refSource string) (debugger.Oracle, error) {
	return IntendedOracleLimited(refSource, 0)
}

// IntendedOracleLimited is IntendedOracle with a per-query step budget
// on the reference replays, for campaigns over generated programs where
// even the reference could be driven into a long run by extreme inputs.
func IntendedOracleLimited(refSource string, maxSteps int) (debugger.Oracle, error) {
	ref, err := Load("reference.pas", refSource)
	if err != nil {
		return nil, fmt.Errorf("gadt: reference: %w", err)
	}
	o, err := ref.Oracle(maxSteps)
	if err != nil {
		return nil, fmt.Errorf("gadt: reference: %w", err)
	}
	return o, nil
}

// IntendedOracleOriginal is IntendedOracle without transformation, for
// debugging untransformed traces.
func IntendedOracleOriginal(refSource string) (debugger.Oracle, error) {
	ref, err := Load("reference.pas", refSource)
	if err != nil {
		return nil, fmt.Errorf("gadt: reference: %w", err)
	}
	return &debugger.IntendedOracle{Ref: ref.Info}, nil
}
