// Benchmarks regenerating the paper's figures and quantitative claims
// (see DESIGN.md's per-experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark is named for the figure/table/session it exercises.
package gadt_test

import (
	"fmt"
	"testing"
	"time"

	"gadt/internal/analysis/lint"
	"gadt/internal/assertion"
	"gadt/internal/campaign"
	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/gadt"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
	"gadt/internal/slicing/static"
	"gadt/internal/slicing/weiser"
	"gadt/internal/tgen"
	"gadt/internal/transform"
)

// --- front-end substrate ---------------------------------------------------

func BenchmarkParseSqrtest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseProgram("sqrtest.pas", paper.Sqrtest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeSqrtest(b *testing.B) {
	prog := parser.MustParse("sqrtest.pas", paper.Sqrtest)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sem.Analyze(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// --- S9: transformation phase ----------------------------------------------

func benchTransform(b *testing.B, src string) {
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Apply(info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformSqrtest(b *testing.B)    { benchTransform(b, paper.Sqrtest) }
func BenchmarkTransformGlobalGoto(b *testing.B) { benchTransform(b, paper.GlobalGoto) }

func BenchmarkTransformGrowthSynthetic(b *testing.B) {
	p := progen.Generate(progen.Config{Depth: 4, Fanout: 2, Style: progen.Globals, Loops: true})
	benchTransform(b, p.Buggy)
}

// --- F7: tracing phase -----------------------------------------------------

func BenchmarkTraceSqrtest(b *testing.B) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Transform(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := sys.Trace("")
		if err != nil || run.RunErr != nil {
			b.Fatalf("%v / %v", err, run.RunErr)
		}
	}
}

func BenchmarkTraceSynthetic(b *testing.B) {
	for _, depth := range []int{3, 5, 7} {
		p := progen.Generate(progen.Config{Depth: depth, Fanout: 2})
		sys, err := gadt.Load("synth.pas", p.Buggy)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := sys.TraceOriginal("", 0, 0)
				if run.RunErr != nil {
					b.Fatal(run.RunErr)
				}
			}
		})
	}
}

// --- interpreter-bound hot paths -------------------------------------------

// intLoopSrc is the integer-heavy subject of the PERF experiment: a
// tight arithmetic loop whose cost is dominated by variable access,
// integer binary operators and assignment — exactly the interpreter
// paths the slot-frame/unboxed-value design targets (EXPERIMENTS.md,
// PERF).
const intLoopSrc = `
program tight;
var i, s, t: integer;
begin
  s := 0;
  t := 1;
  for i := 1 to 20000 do
  begin
    s := s + i * i mod 97;
    if odd(s) then t := t + 1 else t := t - 1;
    while t > 50 do t := t - 7
  end;
  writeln(s, t)
end.
`

// BenchmarkInterpIntLoop measures raw interpreter throughput on the
// integer-heavy loop.
func BenchmarkInterpIntLoop(b *testing.B) { benchInterp(b, intLoopSrc) }

// BenchmarkInterpProgen measures whole-program interpretation of seeded
// progen subjects of graded size, without tracing sinks: the cost the
// mutation campaign and differential harness pay per evaluation.
func BenchmarkInterpProgen(b *testing.B) {
	for _, depth := range []int{3, 5, 7} {
		p := progen.Generate(progen.Config{Depth: depth, Fanout: 2, Loops: true})
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchInterp(b, p.Buggy) })
	}
}

func benchInterp(b *testing.B, src string) {
	prog := parser.MustParse("bench.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := interp.New(info, interp.Config{}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignEval measures the fixed-seed mutation campaign end to
// end on one worker: mutant evaluation is interpreter-bound, so this is
// the campaign-level view of the same hot path.
func BenchmarkCampaignEval(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(campaign.Config{
			Seed:    1,
			Budget:  24,
			Workers: 1,
			Timeout: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Proven-equivalent mutants bypass the budget, so only the
		// rest count against it.
		if got := rep.Mutants - rep.Equivalent; got != 24 {
			b.Fatalf("evaluated %d non-equivalent mutants, want 24", got)
		}
	}
}

// --- F1: T-GEN -------------------------------------------------------------

func BenchmarkTGenFrames(b *testing.B) {
	spec := tgen.MustParseSpec(paper.ArrsumSpec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frames := spec.Generate(); len(frames) != 8 {
			b.Fatalf("frames = %d", len(frames))
		}
	}
}

func BenchmarkTGenClassify(b *testing.B) {
	spec := tgen.MustParseSpec(paper.ArrsumSpec)
	sys, err := gadt.Load("s.pas", paper.Sqrtest)
	if err != nil {
		b.Fatal(err)
	}
	run := sys.TraceOriginal("", 0, 0)
	var arrsum *exectree.Node
	run.Tree.Walk(func(n *exectree.Node) bool {
		if n.Unit.Name == "arrsum" {
			arrsum = n
		}
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Classify(arrsum.Ins, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2 + interprocedural: static slicing ----------------------------------

func BenchmarkSDGBuildSqrtest(b *testing.B) {
	prog := parser.MustParse("s.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static.New(info)
	}
}

func BenchmarkStaticSliceF2(b *testing.B) {
	prog := parser.MustParse("p.pas", paper.SliceExample)
	info, err := sem.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	s := static.New(info)
	mul := static.LookupVar(info, info.Main, "mul")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sl := s.OnVarAtEnd(info.Main, mul); sl.StmtCount() == 0 {
			b.Fatal("empty slice")
		}
	}
}

func BenchmarkStaticSliceInterprocedural(b *testing.B) {
	prog := parser.MustParse("s.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	s := static.New(info)
	ps := info.LookupRoutine("partialsums")
	var s2 *sem.VarSym
	for _, p := range ps.Params {
		if p.Name == "s2" {
			s2 = p
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.OnOutput(ps, s2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F8/F9: dynamic slicing ------------------------------------------------

func benchDynamicSlice(b *testing.B, unit, output string) {
	sys, err := gadt.Load("s.pas", paper.Sqrtest)
	if err != nil {
		b.Fatal(err)
	}
	run := sys.TraceOriginal("", 0, 0)
	var target *exectree.Node
	run.Tree.Walk(func(n *exectree.Node) bool {
		if target == nil && n.Unit.Name == unit {
			target = n
		}
		return true
	})
	// Build the dependence graph first, so the loop times the slice alone.
	if _, err := run.Deps.Recorder(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Deps.SliceOnOutput(run.Tree, target, output); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicSliceF8(b *testing.B) { benchDynamicSlice(b, "computs", "r1") }
func BenchmarkDynamicSliceF9(b *testing.B) { benchDynamicSlice(b, "partialsums", "s2") }

// --- S3/S8 + strategy ablation: debugging sessions --------------------------

func benchDebug(b *testing.B, strat debugger.Strategy, slicing, tests bool) {
	sys, err := gadt.Load("s.pas", paper.Sqrtest)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := gadt.IntendedOracleOriginal(paper.SqrtestFixed)
	if err != nil {
		b.Fatal(err)
	}
	var lookup debugger.TestLookup
	if tests {
		l, err := buildArrsumLookup()
		if err != nil {
			b.Fatal(err)
		}
		lookup = l
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := sys.TraceOriginal("", 0, 0)
		out, err := run.Debug(oracle, gadt.DebugConfig{Strategy: strat, Slicing: slicing, Tests: lookup})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Localized() || out.Bug.Unit.Name != "decrement" {
			b.Fatalf("bug = %v", out.Bug)
		}
	}
}

func buildArrsumLookup() (*tgen.Lookup, error) {
	sys, err := gadt.Load("a.pas", paper.ArrsumProgram)
	if err != nil {
		return nil, err
	}
	spec := tgen.MustParseSpec(paper.ArrsumSpec)
	check := assertion.MustParse("arrsum", "b = sum(a, n)")
	runner := &tgen.Runner{
		Info: sys.Info,
		Spec: spec,
		Gen:  tgen.SearchGenerator(sys.Info, spec, 5000),
		Chk: func(_ *tgen.Frame, ci *interp.CallInfo) bool {
			env := assertion.Env{}
			for _, bd := range ci.Ins {
				env[bd.Name] = bd.Value
			}
			for _, bd := range ci.Outs {
				env[bd.Name] = bd.Value
			}
			return check.Eval(env) == assertion.Holds
		},
	}
	db, err := runner.RunAll()
	if err != nil {
		return nil, err
	}
	return &tgen.Lookup{Spec: spec, DB: db}, nil
}

func BenchmarkDebugPureAD(b *testing.B)         { benchDebug(b, debugger.TopDown, false, false) }
func BenchmarkDebugWithSlicing(b *testing.B)    { benchDebug(b, debugger.TopDown, true, false) }
func BenchmarkDebugGADT(b *testing.B)           { benchDebug(b, debugger.TopDown, true, true) }
func BenchmarkDebugDivideAndQuery(b *testing.B) { benchDebug(b, debugger.DivideAndQuery, false, false) }
func BenchmarkDebugBottomUp(b *testing.B)       { benchDebug(b, debugger.BottomUp, false, false) }

func BenchmarkDebugSynthetic(b *testing.B) {
	for _, depth := range []int{3, 5} {
		p := progen.Generate(progen.Config{Depth: depth, Fanout: 2, BugPath: []int{1, 0, 1, 0, 1}})
		sys, err := gadt.Load("synth.pas", p.Buggy)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := gadt.IntendedOracleOriginal(p.Fixed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := sys.TraceOriginal("", 0, 0)
				out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true})
				if err != nil || !out.Localized() {
					b.Fatalf("%v / %v", err, out)
				}
			}
		})
	}
}

// --- plint: dataflow anomaly diagnostics ------------------------------------

func benchLint(b *testing.B, src string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lint.Run("b.pas", src, lint.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLintSqrtest(b *testing.B) { benchLint(b, paper.Sqrtest) }

func BenchmarkLintSynthetic(b *testing.B) {
	p := progen.Generate(progen.Config{Depth: 5, Fanout: 2, Style: progen.Globals, Loops: true})
	benchLint(b, p.Buggy)
}

func BenchmarkWeiserSliceF2(b *testing.B) {
	prog := parser.MustParse("p.pas", paper.SliceExample)
	info, err := sem.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	mul := static.LookupVar(info, info.Main, "mul")
	w := &weiser.Slicer{Info: info}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.OnVarAtEnd(info.Main, mul); err != nil {
			b.Fatal(err)
		}
	}
}
