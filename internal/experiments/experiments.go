// Package experiments regenerates every figure and worked session of the
// paper's evaluation, plus the quantitative claims of Sections 8 and 9
// and the ablations called out in DESIGN.md. Each experiment returns its
// report as text; cmd/gadt-experiments prints them and EXPERIMENTS.md
// records the outputs next to the paper's versions.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gadt/internal/assertion"
	"gadt/internal/corpus"
	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/printer"
	"gadt/internal/progen"
	"gadt/internal/slicing/static"
	"gadt/internal/slicing/weiser"
	"gadt/internal/tgen"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (string, error)
}

// All returns the experiments in presentation order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 1: T-GEN test frames for arrsum", RunF1},
		{"F2", "Figure 2: static slice of program p on mul", RunF2},
		{"S3", "Section 3: algorithmic debugging session (P/Q/R)", RunS3},
		{"F7", "Figure 7: execution tree of the sqrtest program", RunF7},
		{"F8", "Figure 8: execution tree sliced on computs.r1", RunF8},
		{"F9", "Figure 9: execution tree sliced on partialsums.s2", RunF9},
		{"S6", "Section 6: program transformation examples", RunS6},
		{"S8", "Section 8: full GADT session on sqrtest", RunS8},
		{"BASELINE", "Slicer baseline: Weiser-84 vs the SDG slicer", RunBaseline},
		{"INTERACTIONS", "Interaction counts: pure AD vs +tests vs +slicing vs GADT", RunInteractions},
		{"GROWTH", "Section 9: transformation growth factors", RunGrowth},
		{"MULTIBUG", "Section 5.3.3 Q&A: bugs localized one correction cycle at a time", RunMultiBug},
		{"TRAVERSAL", "Ablation: execution-tree traversal strategies", RunTraversal},
		{"ABLATION", "Ablation: answer sources on sqrtest", RunAblation},
		{"HINTS", "Static anomaly hints: oracle queries with and without plint", RunHints},
	}
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) *Experiment {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return &e
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// F1 — T-GEN frames

// RunF1 generates the arrsum test frames and groups them by script,
// reproducing "script_1 contains two frames: (more, mixed, large) and
// (more, mixed, average)".
func RunF1() (string, error) {
	spec, err := tgen.ParseSpec(paper.ArrsumSpec)
	if err != nil {
		return "", err
	}
	frames := spec.Generate()
	var b strings.Builder
	fmt.Fprintf(&b, "test specification: %s (%d categories)\n", spec.Unit, len(spec.Categories))
	fmt.Fprintf(&b, "generated frames: %d\n", len(frames))
	for _, f := range frames {
		fmt.Fprintf(&b, "  %-34s scripts=%v results=%v\n", f, f.Scripts, f.Results)
	}
	byScript := tgen.FramesByScript(frames)
	var scripts []string
	for s := range byScript {
		scripts = append(scripts, s)
	}
	sort.Strings(scripts)
	for _, s := range scripts {
		var codes []string
		for _, f := range byScript[s] {
			codes = append(codes, f.String())
		}
		fmt.Fprintf(&b, "%s: %s\n", s, strings.Join(codes, " "))
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// F2 — static slicing

// RunF2 slices Figure 2's program p on mul at the last line.
func RunF2() (string, error) {
	sys, err := gadt.Load("p.pas", paper.SliceExample)
	if err != nil {
		return "", err
	}
	s := sys.StaticSlicer()
	mul := static.LookupVar(sys.Info, sys.Info.Main, "mul")
	sl := s.OnVarAtEnd(sys.Info.Main, mul)
	var b strings.Builder
	b.WriteString("--- original program ---\n")
	b.WriteString(printer.Print(sys.Info.Program))
	b.WriteString("--- slice on mul at the last line ---\n")
	b.WriteString(sl.Render())
	fmt.Fprintf(&b, "--- %s ---\n", sl.Describe())
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// BASELINE — Weiser-84 vs SDG slicing

// RunBaseline compares the Weiser-84 baseline slicer with the SDG-based
// slicer on intraprocedural criteria: both must compute the same
// statement sets (they do, differentially tested); the SDG slicer
// additionally crosses procedure boundaries with calling-context
// sensitivity.
func RunBaseline() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %12s %12s\n", "program", "criterion", "weiser-84", "sdg")
	type subject struct {
		name, src, varName string
	}
	subjects := []subject{
		{"figure-2", paper.SliceExample, "mul"},
		{"figure-2", paper.SliceExample, "sum"},
		{"loop-goto", paper.LoopGoto, "acc"},
		{"loop-goto", paper.LoopGoto, "i"},
	}
	for _, s := range subjects {
		sys, err := gadt.Load(s.name+".pas", s.src)
		if err != nil {
			return "", err
		}
		v := static.LookupVar(sys.Info, sys.Info.Main, s.varName)
		w := &weiser.Slicer{Info: sys.Info}
		wsl, err := w.OnVarAtEnd(sys.Info.Main, v)
		if err != nil {
			return "", err
		}
		ssl := sys.StaticSlicer().OnVarAtEnd(sys.Info.Main, v)
		fmt.Fprintf(&b, "%-22s %-10s %12d %12d\n", s.name, s.varName, wsl.StmtCount(), ssl.StmtCount())
	}
	b.WriteString("(identical statement sets on intraprocedural criteria — differentially tested;\n")
	b.WriteString(" the SDG slicer additionally crosses calls, e.g. sqrtest's r1 slice spans 7 routines)\n")
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// S3 — P/Q/R session

// RunS3 reproduces the Section 3 interaction session.
func RunS3() (string, error) {
	sys, err := gadt.Load("pqr.pas", paper.PQR)
	if err != nil {
		return "", err
	}
	run := sys.TraceOriginal("", 0, 0)
	oracle := &debugger.ScriptedOracle{
		ByUnit: map[string]debugger.Answer{
			"p": {Verdict: debugger.Incorrect},
			"q": {Verdict: debugger.Correct},
			"r": {Verdict: debugger.Incorrect},
		},
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{})
	if err != nil {
		return "", err
	}
	return renderSession(out), nil
}

// ---------------------------------------------------------------------------
// F7/F8/F9 — execution trees

// RunF7 prints the execution tree of the sqrtest program.
func RunF7() (string, error) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		return "", err
	}
	run := sys.TraceOriginal("", 0, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "program output: %s", run.Output)
	fmt.Fprintf(&b, "execution tree (%d nodes):\n", run.Tree.Size())
	run.Tree.Render(&b, nil, nil)
	return b.String(), nil
}

func slicedTree(unit, output string) (string, error) {
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		return "", err
	}
	run := sys.TraceOriginal("", 0, 0)
	var target *exectree.Node
	run.Tree.Walk(func(n *exectree.Node) bool {
		if target == nil && n.Unit.Name == unit {
			target = n
		}
		return true
	})
	if target == nil {
		return "", fmt.Errorf("unit %s not traced", unit)
	}
	sl, err := run.Deps.SliceOnOutput(run.Tree, target, output)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "slice on output %s of %s: %d of %d nodes kept\n",
		output, unit, sl.Size(), run.Tree.Size())
	run.Tree.Render(&b, sl.Keep, nil)
	return b.String(), nil
}

// RunF8 prints the tree after the first slicing step (computs, r1).
func RunF8() (string, error) { return slicedTree("computs", "r1") }

// RunF9 prints the tree after the second slicing step (partialsums, s2).
func RunF9() (string, error) { return slicedTree("partialsums", "s2") }

// ---------------------------------------------------------------------------
// S6 — the transformation examples

// RunS6 reproduces the paper's Section 6 transformation examples:
// conversion of global variables to parameters, breaking a global goto
// into an exit-condition parameter, and handling a goto that leaves a
// loop — each shown as original → transformed, with the outputs proven
// equal.
func RunS6() (string, error) {
	var b strings.Builder
	subjects := []struct{ title, src string }{
		{"conversion of global variables to parameters", paper.GlobalSideEffects},
		{"breaking a global goto (nested q -> label 9 in p)", paper.GlobalGoto},
		{"goto out of a loop", paper.LoopGoto},
	}
	for _, s := range subjects {
		sys, err := gadt.Load("s6.pas", s.src)
		if err != nil {
			return "", err
		}
		res, err := sys.Transform()
		if err != nil {
			return "", err
		}
		orig := sys.TraceOriginal("", 0, 0)
		xform, err := sys.Trace("")
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "--- %s ---\n", s.title)
		b.WriteString("original:\n")
		b.WriteString(indent(printer.Print(sys.Info.Program)))
		b.WriteString("transformed:\n")
		b.WriteString(indent(printer.Print(res.Program)))
		fmt.Fprintf(&b, "outputs equal: %v (%q)\n\n", orig.Output == xform.Output, xform.Output)
	}
	return b.String(), nil
}

func indent(s string) string {
	var b strings.Builder
	for _, l := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + l + "\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// S8 — the full GADT session

// arrsumGen generates concrete inputs for arrsum frames.
func arrsumGen(f *tgen.Frame) ([]interp.Value, bool) {
	mk := func(vals ...int64) *interp.ArrayVal {
		a := &interp.ArrayVal{Lo: 1, Hi: 100, Elems: make([]interp.Value, 100)}
		for i := range a.Elems {
			a.Elems[i] = interp.IntV(0)
		}
		for i, v := range vals {
			a.Elems[i] = interp.IntV(v)
		}
		return a
	}
	var vals []int64
	var n int64
	switch f.Choices[0].Name {
	case "zero":
		n = 0
	case "one":
		n, vals = 1, []int64{5}
	case "two":
		n = 2
		if f.Choices[1].Name == "negative" {
			vals = []int64{-3, -4}
		} else {
			vals = []int64{1, 2}
		}
	case "more":
		n = 3
		switch {
		case f.Choices[1].Name == "positive":
			vals = []int64{2, 3, 4}
		case f.Choices[1].Name == "negative":
			vals = []int64{-2, -3, -4}
		case f.Choices[2].Name == "large":
			vals = []int64{-50, 60, 1}
		default:
			vals = []int64{-10, 30, 2}
		}
	}
	return []interp.Value{interp.ArrV(mk(vals...)), interp.IntV(n), interp.IntV(0)}, true
}

func arrsumCheck(_ *tgen.Frame, ci *interp.CallInfo) bool {
	a, _ := ci.Ins[0].Value.AsArray()
	n, _ := ci.Ins[1].Value.AsInt()
	var want int64
	for i := int64(0); i < n && i < int64(len(a.Elems)); i++ {
		if iv, ok := a.Elems[i].AsInt(); ok {
			want += iv
		}
	}
	got, _ := ci.Outs[0].Value.AsInt()
	return got == want
}

// arrsumLookup builds the test-report database for arrsum (the paper's
// premise: "Presuming that we have a test specification, a test report
// database and an automatic test frame selector function for the
// procedure arrsum").
func arrsumLookup() (*tgen.Lookup, error) {
	sys, err := gadt.Load("arrsum.pas", paper.ArrsumProgram)
	if err != nil {
		return nil, err
	}
	spec, err := tgen.ParseSpec(paper.ArrsumSpec)
	if err != nil {
		return nil, err
	}
	runner := &tgen.Runner{Info: sys.Info, Spec: spec, Gen: arrsumGen, Chk: arrsumCheck}
	db, err := runner.RunAll()
	if err != nil {
		return nil, err
	}
	return &tgen.Lookup{Spec: spec, DB: db}, nil
}

// RunS8 reproduces the Section 8 walkthrough: GADT (tests + slicing)
// localizes the decrement bug; the arrsum query is answered by the test
// database and never shown to the user.
func RunS8() (string, error) {
	lookup, err := arrsumLookup()
	if err != nil {
		return "", err
	}
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		return "", err
	}
	run := sys.TraceOriginal("", 0, 0)
	oracle, err := gadt.IntendedOracleOriginal(paper.SqrtestFixed)
	if err != nil {
		return "", err
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true, Tests: lookup})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(renderSession(out))
	fmt.Fprintf(&b, "\nuser questions: %d   answered by tests: %d   slices: %d\n",
		out.Questions, out.ByTests, out.Slices)
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// INTERACTIONS — the headline comparison

type mode struct {
	name    string
	tests   bool
	slicing bool
}

var modes = []mode{
	{"pure AD", false, false},
	{"AD+tests", true, false},
	{"AD+slicing", false, true},
	{"GADT (tests+slicing)", true, true},
}

// leafTested answers for leaf invocations only, simulating a test
// database with full coverage of the leaf routines (the tested-library
// premise of Section 5.3.2) by replaying the reference implementation.
type leafTested struct {
	oracle debugger.Oracle
}

func (l leafTested) Judge(n *exectree.Node) debugger.Verdict {
	if len(n.Children) > 0 || n.IsRoot() {
		return debugger.DontKnow
	}
	a, err := l.oracle.Ask(&debugger.Query{Node: n, Text: "(test lookup) " + n.Label(nil), Outputs: n.OutputNames()})
	if err != nil {
		return debugger.DontKnow
	}
	switch a.Verdict {
	case debugger.Correct:
		return debugger.Correct
	case debugger.Incorrect:
		return debugger.Incorrect
	}
	return debugger.DontKnow
}

// RunInteractions measures user-question counts on sqrtest and on
// synthetic programs of growing size.
func RunInteractions() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-22s %8s %8s %8s\n", "subject", "mode", "nodes", "questions", "auto")

	measure := func(name, buggySrc, fixedSrc string, tests func(debugger.Oracle) debugger.TestLookup) error {
		for _, m := range modes {
			sys, err := gadt.Load(name+".pas", buggySrc)
			if err != nil {
				return err
			}
			run, err := sys.Trace("")
			if err != nil {
				return err
			}
			oracle, err := gadt.IntendedOracle(fixedSrc)
			if err != nil {
				return err
			}
			cfg := gadt.DebugConfig{Slicing: m.slicing}
			if m.tests && tests != nil {
				cfg.Tests = tests(oracle)
			}
			out, err := run.Debug(oracle, cfg)
			if err != nil {
				return err
			}
			loc := "-"
			if out.Localized() {
				loc = out.Bug.Unit.Name
			}
			fmt.Fprintf(&b, "%-28s %-22s %8d %8d %8d   bug: %s\n",
				name, m.name, run.Tree.Size(), out.Questions,
				out.ByTests+out.ByAssertions+out.ByMemo, loc)
		}
		return nil
	}

	// sqrtest with the paper's arrsum test database.
	lookup, err := arrsumLookup()
	if err != nil {
		return "", err
	}
	if err := measure("sqrtest", paper.Sqrtest, paper.SqrtestFixed,
		func(debugger.Oracle) debugger.TestLookup { return lookup }); err != nil {
		return "", err
	}

	// Synthetic programs: leaves covered by tests.
	for _, shape := range []progen.Config{
		{Depth: 3, Fanout: 2, BugPath: []int{1, 0, 1}},
		{Depth: 4, Fanout: 2, BugPath: []int{1, 1, 0, 1}},
		{Depth: 3, Fanout: 3, BugPath: []int{2, 1, 2}},
		{Depth: 5, Fanout: 2, BugPath: []int{1, 0, 1, 0, 1}},
	} {
		p := progen.Generate(shape)
		name := fmt.Sprintf("synth(d=%d,f=%d)", shape.Depth, shape.Fanout)
		if err := measure(name, p.Buggy, p.Fixed,
			func(o debugger.Oracle) debugger.TestLookup { return leafTested{oracle: o} }); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// GROWTH — Section 9

// RunGrowth measures transformed-program growth (printed lines).
func RunGrowth() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %8s\n", "program", "orig", "transformed", "factor")
	subjects := []struct {
		name, src string
	}{
		{"pqr", paper.PQR},
		{"global-side-effects", paper.GlobalSideEffects},
		{"global-goto", paper.GlobalGoto},
		{"loop-goto", paper.LoopGoto},
		{"sqrtest", paper.Sqrtest},
		{"arrsum", paper.ArrsumProgram},
	}
	for _, shape := range []progen.Config{
		{Depth: 3, Fanout: 2, Style: progen.Globals},
		{Depth: 4, Fanout: 2, Style: progen.Globals, Loops: true},
	} {
		p := progen.Generate(shape)
		subjects = append(subjects, struct{ name, src string }{
			fmt.Sprintf("synth-globals(d=%d,f=%d,loops=%v)", shape.Depth, shape.Fanout, shape.Loops), p.Buggy,
		})
	}
	var worst float64
	for _, s := range subjects {
		sys, err := gadt.Load(s.name+".pas", s.src)
		if err != nil {
			return "", err
		}
		res, err := sys.Transform()
		if err != nil {
			return "", err
		}
		orig := len(strings.Split(printer.Print(sys.Info.Program), "\n"))
		xformed := len(strings.Split(printer.Print(res.Program), "\n"))
		factor := float64(xformed) / float64(orig)
		if factor > worst {
			worst = factor
		}
		fmt.Fprintf(&b, "%-24s %10d %10d %8.2f\n", s.name, orig, xformed, factor)
	}
	fmt.Fprintf(&b, "worst growth factor: %.2f (paper: \"small procedures usually grow less than a factor of two\")\n", worst)
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// MULTIBUG — iterative correction cycles

// RunMultiBug reproduces the paper's Section 5.3.3 answer about multiple
// bugs: "if there is a bug in a sub-computation, this bug will be
// localized first, and the [other] bug will be localized when this bug
// has been corrected." Two bugs are planted (decrement and square); the
// debugger finds one, the fix is applied, and a second session finds the
// other.
func RunMultiBug() (string, error) {
	doubleBuggy := strings.Replace(paper.Sqrtest,
		"r2 := y * y;", "r2 := y * y + 1; (* second planted bug *)", 1)
	fullyFixed := paper.SqrtestFixed // reference: both bugs corrected

	var b strings.Builder
	src := doubleBuggy
	fixes := map[string]string{
		"decrement": "decrement := y - 1;",
		"square":    "r2 := y * y;",
	}
	patches := map[string]string{
		"decrement": "decrement := y + 1; (* a planted bug, should be: y - 1 *)",
		"square":    "r2 := y * y + 1; (* second planted bug *)",
	}
	for cycle := 1; cycle <= 3; cycle++ {
		sys, err := gadt.Load("multibug.pas", src)
		if err != nil {
			return "", err
		}
		run := sys.TraceOriginal("", 0, 0)
		oracle, err := gadt.IntendedOracleOriginal(fullyFixed)
		if err != nil {
			return "", err
		}
		out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true, NoRootAssumption: true})
		if err != nil {
			return "", err
		}
		if !out.Localized() {
			fmt.Fprintf(&b, "cycle %d: no further bug localized — program behaves as intended (output %q)\n",
				cycle, run.Output)
			break
		}
		unit := out.Bug.Unit.Name
		fmt.Fprintf(&b, "cycle %d: error localized inside the body of %s (%d questions); applying the fix\n",
			cycle, unit, out.Questions)
		patch, ok := patches[unit]
		if !ok {
			return "", fmt.Errorf("localized unexpected unit %s", unit)
		}
		src = strings.Replace(src, patch, fixes[unit], 1)
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// TRAVERSAL — strategy ablation

// RunTraversal compares traversal strategies (paper: "generally it
// doesn't matter which traversal method is used" for correctness; the
// question count differs).
func RunTraversal() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-18s %9s   %s\n", "subject", "strategy", "questions", "localized")
	subjects := []struct {
		name, buggy, fixed string
	}{
		{"sqrtest", paper.Sqrtest, paper.SqrtestFixed},
	}
	for _, shape := range []progen.Config{
		{Depth: 3, Fanout: 2, BugPath: []int{1, 0, 1}},
		{Depth: 4, Fanout: 3, BugPath: []int{2, 0, 1, 2}},
	} {
		p := progen.Generate(shape)
		subjects = append(subjects, struct{ name, buggy, fixed string }{
			fmt.Sprintf("synth(d=%d,f=%d)", shape.Depth, shape.Fanout), p.Buggy, p.Fixed,
		})
	}
	for _, s := range subjects {
		for _, strat := range debugger.Strategies() {
			// One registry per run: the question column is sourced from the
			// observability counters rather than the outcome struct, so the
			// experiment doubles as an end-to-end check of the metrics.
			reg := obs.NewRegistry()
			sys, err := gadt.LoadObserved(s.name+".pas", s.buggy, reg, nil)
			if err != nil {
				return "", err
			}
			run, err := sys.Trace("")
			if err != nil {
				return "", err
			}
			oracle, err := gadt.IntendedOracle(s.fixed)
			if err != nil {
				return "", err
			}
			out, err := run.Debug(oracle, gadt.DebugConfig{Strategy: strat})
			if err != nil {
				return "", err
			}
			questions := reg.CounterVec("debugger.oracle.queries.strategy", "strategy").With(strat.String()).Value()
			if questions != int64(out.Questions) {
				return "", fmt.Errorf("traversal %s/%s: registry counted %d queries, outcome %d",
					s.name, strat, questions, out.Questions)
			}
			loc := "-"
			if out.Localized() {
				loc = out.Bug.Unit.Name
			}
			fmt.Fprintf(&b, "%-28s %-18s %9d   %s\n", s.name, strat, questions, loc)
		}
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// ABLATION — answer sources on sqrtest

// RunAblation shows, per configuration, which source answered each query
// on the sqrtest bug hunt, including assertions.
func RunAblation() (string, error) {
	lookup, err := arrsumLookup()
	if err != nil {
		return "", err
	}
	db := assertion.NewDB()
	if err := db.AddText("arrsum", "b = sum(a, n)"); err != nil {
		return "", err
	}
	if err := db.AddText("increment", "result = y + 1"); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %6s %6s %6s %7s\n", "configuration", "questions", "tests", "asserts", "memo", "slices")
	type cfg struct {
		name string
		c    gadt.DebugConfig
	}
	cfgs := []cfg{
		{"pure AD", gadt.DebugConfig{}},
		{"AD + test db", gadt.DebugConfig{Tests: lookup}},
		{"AD + assertions", gadt.DebugConfig{Assertions: db}},
		{"AD + slicing", gadt.DebugConfig{Slicing: true}},
		{"GADT (tests+assertions+slicing)", gadt.DebugConfig{Tests: lookup, Assertions: db, Slicing: true}},
	}
	for _, c := range cfgs {
		sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
		if err != nil {
			return "", err
		}
		run := sys.TraceOriginal("", 0, 0)
		oracle, err := gadt.IntendedOracleOriginal(paper.SqrtestFixed)
		if err != nil {
			return "", err
		}
		out, err := run.Debug(oracle, c.c)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-34s %10d %6d %6d %6d %7d   bug: %s\n",
			c.name, out.Questions, out.ByTests, out.ByAssertions, out.ByMemo, out.Slices, out.Bug.Unit.Name)
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// HINTS — static anomaly hints vs. oracle-query counts

// hintedBuggy forgets to initialize t inside broken — the planted bug IS
// a dataflow anomaly (P001), so plint scores broken as suspicious and
// the debugger asks about it before the two healthy siblings.
const hintedBuggy = `
program hinted;
var a, b, c, total: integer;

procedure stepa(x: integer; var r: integer);
begin
  r := x + 1;
end;

procedure stepb(x: integer; var r: integer);
begin
  r := x * 2;
end;

procedure broken(x: integer; var r: integer);
var t: integer;
begin
  r := x + t;
end;

begin
  stepa(1, a);
  stepb(2, b);
  broken(3, c);
  total := a + b + c;
  writeln(total);
end.
`

const hintedFixed = `
program hinted;
var a, b, c, total: integer;

procedure stepa(x: integer; var r: integer);
begin
  r := x + 1;
end;

procedure stepb(x: integer; var r: integer);
begin
  r := x * 2;
end;

procedure broken(x: integer; var r: integer);
var t: integer;
begin
  t := 5;
  r := x + t;
end;

begin
  stepa(1, a);
  stepb(2, b);
  broken(3, c);
  total := a + b + c;
  writeln(total);
end.
`

// HintsRow is one RunHints measurement.
type HintsRow struct {
	Subject   string
	Strategy  debugger.Strategy
	NoHints   int // oracle questions without hints
	WithHints int // oracle questions with lint hints
	Localized string
}

// HintsData debugs each buggy subject twice per traversal strategy —
// without and with plint's static anomaly hints — and reports the oracle
// question counts. Subjects whose source lints clean produce empty hint
// maps, so both runs are identical there; hints can only help, never
// mislead the search (they reorder questions, not verdicts).
func HintsData() ([]HintsRow, error) {
	type subject struct {
		name, buggy, fixed, input string
	}
	subjects := []subject{{"hinted", hintedBuggy, hintedFixed, ""}}
	for _, p := range corpus.All() {
		if p.Buggy == "" {
			continue
		}
		subjects = append(subjects, subject{p.Name, p.Buggy, p.Source, p.Input})
	}
	var rows []HintsRow
	for _, s := range subjects {
		for _, strat := range debugger.Strategies() {
			row := HintsRow{Subject: s.name, Strategy: strat, Localized: "-"}
			for _, withHints := range []bool{false, true} {
				sys, err := gadt.Load(s.name+".pas", s.buggy)
				if err != nil {
					return nil, err
				}
				run, err := sys.Trace(s.input)
				if err != nil {
					return nil, err
				}
				oracle, err := gadt.IntendedOracle(s.fixed)
				if err != nil {
					return nil, err
				}
				cfg := gadt.DebugConfig{Strategy: strat}
				if withHints {
					cfg.Hints = sys.LintHints()
				}
				out, err := run.Debug(oracle, cfg)
				if err != nil {
					return nil, err
				}
				if withHints {
					row.WithHints = out.Questions
					if out.Localized() {
						row.Localized = out.Bug.Unit.Name
					}
				} else {
					row.NoHints = out.Questions
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunHints renders the hints measurement: the oracle-free bug hints of
// the lint layer convert static anomaly findings into saved questions
// whenever the anomaly and the bug coincide.
func RunHints() (string, error) {
	rows, err := HintsData()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %9s %9s %7s   %s\n", "subject", "strategy", "no-hints", "hints", "delta", "localized")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-18s %9d %9d %+7d   %s\n",
			r.Subject, r.Strategy, r.NoHints, r.WithHints, r.WithHints-r.NoHints, r.Localized)
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------

// renderSession renders a debugging transcript the way the paper prints
// interaction sessions (system output bold in the paper; plain here).
func renderSession(out *debugger.Outcome) string {
	var b strings.Builder
	for _, ev := range out.Transcript {
		switch ev.Kind {
		case debugger.EvQuestion:
			fmt.Fprintf(&b, "%s\n> %s", ev.Text, ev.Verdict)
			if ev.Detail != "" {
				fmt.Fprintf(&b, ", %s", ev.Detail)
			}
			b.WriteString("\n")
		case debugger.EvTest:
			fmt.Fprintf(&b, "[answered by test database] %s -> %s\n", ev.Text, ev.Verdict)
		case debugger.EvAssertion:
			fmt.Fprintf(&b, "[answered by assertion] %s -> %s\n", ev.Text, ev.Verdict)
		case debugger.EvMemo:
			fmt.Fprintf(&b, "[remembered] %s -> %s\n", ev.Text, ev.Verdict)
		case debugger.EvSlice:
			fmt.Fprintf(&b, "[%s; %s]\n", ev.Text, ev.Detail)
		case debugger.EvLocalized:
			fmt.Fprintf(&b, "%s.\n", strings.ToUpper(ev.Text[:1])+ev.Text[1:])
		}
	}
	return b.String()
}

// RunAll runs every experiment, concatenating reports; used by the CLI
// and smoke-tested in the test suite.
func RunAll() (string, error) {
	var b strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&b, "=== %s — %s ===\n", e.ID, e.Title)
		out, err := e.Run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String(), nil
}
