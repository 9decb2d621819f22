package gadt_test

import (
	"strings"
	"testing"

	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/paper"
)

func TestEndToEndSqrtest(t *testing.T) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Trace("")
	if err != nil {
		t.Fatal(err)
	}
	if run.RunErr != nil {
		t.Fatalf("run error: %v", run.RunErr)
	}
	if run.Output != "false\n" {
		t.Errorf("output = %q", run.Output)
	}
	oracle, err := gadt.IntendedOracle(paper.SqrtestFixed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement", out.Bug)
	}
	if out.Slices == 0 {
		t.Error("no slicing steps recorded")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := gadt.Load("bad.pas", "not a program"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := gadt.Load("bad.pas", "program t; begin x := 1; end."); err == nil {
		t.Error("expected semantic error")
	}
}

func TestTransformedSource(t *testing.T) {
	sys, err := gadt.Load("g.pas", paper.GlobalSideEffects)
	if err != nil {
		t.Fatal(err)
	}
	src, err := sys.TransformedSource()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "out z: integer") {
		t.Errorf("transformed source missing out param:\n%s", src)
	}
}

func TestTraceOriginalMatchesFigure7(t *testing.T) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		t.Fatal(err)
	}
	run := sys.TraceOriginal("", 0, 0)
	if run.Tree.Size() != 14 {
		t.Errorf("original tree size = %d, want 14", run.Tree.Size())
	}
}

func TestCrashedProgramStillDebuggable(t *testing.T) {
	src := `
program t;
var x, y: integer;

procedure setup(var v: integer);
begin
  v := 0; (* bug: should be 2 *)
end;

procedure use(d: integer; var r: integer);
begin
  r := 10 div d;
end;

begin
  setup(x);
  use(x, y);
  writeln(y);
end.`
	sys, err := gadt.Load("crash.pas", src)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Trace("")
	if err != nil {
		t.Fatal(err)
	}
	if run.RunErr == nil {
		t.Fatal("expected a runtime error (division by zero)")
	}
	// The partial tree still contains setup with its wrong output; a
	// scripted oracle localizes it.
	oracle := &debugger.ScriptedOracle{
		ByUnit: map[string]debugger.Answer{
			"setup": {Verdict: debugger.Incorrect},
			"use":   {Verdict: debugger.Correct},
		},
		Default: debugger.Answer{Verdict: debugger.DontKnow},
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "setup" {
		t.Fatalf("bug = %v, want setup", out.Bug)
	}
}

func TestStaticSlicerAccessor(t *testing.T) {
	sys, err := gadt.Load("p.pas", paper.SliceExample)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.StaticSlicer()
	if s == nil || s.SDG == nil {
		t.Fatal("no slicer")
	}
}

// TestMisnamedVariableArgument reproduces the paper's Section 5.3.3
// question: the bug is a wrong variable passed at a call site; every
// subcomputation is correct on its actual inputs, so the error is
// correctly localized to the calling unit (here the program body).
func TestMisnamedVariableArgument(t *testing.T) {
	buggy := `
program t;
var x, y, r: integer;

procedure compute(a: integer; var res: integer);
begin
  res := a * 2;
end;

begin
  x := 3;
  y := 10;
  compute(y, r); (* bug: should pass x *)
  writeln(r);
end.`
	fixed := strings.Replace(buggy, "compute(y, r); (* bug: should pass x *)", "compute(x, r);", 1)
	sys, err := gadt.Load("misnamed.pas", buggy)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Trace("")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gadt.IntendedOracle(fixed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// compute(10) = 20 is correct per its own specification, so the bug
	// lands in the caller: the program body.
	if !out.Localized() || !out.Bug.IsRoot() {
		t.Fatalf("bug = %v, want the program body", out.Bug)
	}
	// With the symptom premise disabled the same search is inconclusive.
	out2, err := run.Debug(oracle, gadt.DebugConfig{NoRootAssumption: true})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Localized() {
		t.Fatalf("bug = %v, want inconclusive without the root assumption", out2.Bug)
	}
}

func TestDebugStrategiesAgree(t *testing.T) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gadt.IntendedOracle(paper.SqrtestFixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []debugger.Strategy{debugger.TopDown, debugger.DivideAndQuery, debugger.BottomUp} {
		run, err := sys.Trace("")
		if err != nil {
			t.Fatal(err)
		}
		out, err := run.Debug(oracle, gadt.DebugConfig{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !out.Localized() || out.Bug.Unit.Name != "decrement" {
			t.Errorf("%v localized %v, want decrement", strat, out.Bug)
		}
	}
}

// spans collects begin events.
type spans []obs.TraceEvent

func (s *spans) Emit(e obs.TraceEvent) {
	if e.Phase == "B" {
		*s = append(*s, e)
	}
}

// TestDependenceGraphOnFirstSlice: tracing builds no dependence graph;
// the first session that slices builds it once, under a deps span
// inside debug, and later sessions reuse it.
func TestDependenceGraphOnFirstSlice(t *testing.T) {
	reg := obs.NewRegistry()
	var got spans
	sys, err := gadt.LoadObserved("sqrtest.pas", paper.Sqrtest, reg, obs.NewTracer(&got))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Trace("")
	if err != nil {
		t.Fatal(err)
	}
	builds := reg.Counter("slicing.dynamic.builds")
	if builds.Value() != 0 || reg.Gauge("slicing.dynamic.events").Value() != 0 {
		t.Fatal("tracing built the dependence graph")
	}
	oracle, err := gadt.IntendedOracle(paper.SqrtestFixed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Slices == 0 {
			t.Fatal("the session did not slice")
		}
	}
	if builds.Value() != 1 {
		t.Errorf("slicing.dynamic.builds = %d, want 1 across two sessions", builds.Value())
	}
	rec, err := run.Deps.Recorder()
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("slicing.dynamic.events").Value(); got != int64(rec.Events()) {
		t.Errorf("slicing.dynamic.events = %d, want %d", got, rec.Events())
	}
	byID := map[int64]string{}
	var deps []obs.TraceEvent
	for _, e := range got {
		byID[e.ID] = e.Name
		if e.Name == "deps" {
			deps = append(deps, e)
		}
	}
	if len(deps) != 1 || byID[deps[0].Parent] != "debug" {
		t.Errorf("deps spans = %+v, want one inside debug", deps)
	}
}
