package debugger_test

import (
	"strings"
	"testing"

	"gadt/internal/assertion"
	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
	"gadt/internal/slicing/dynamic"
	"gadt/internal/transform"
)

func analyze(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

func traceIt(t *testing.T, src string) (*exectree.TraceResult, *dynamic.Deps) {
	t.Helper()
	info := analyze(t, src)
	res := exectree.Trace(info, "")
	if res.Err != nil {
		t.Fatalf("trace: %v", res.Err)
	}
	return res, &dynamic.Deps{Info: info, Nodes: res.Tree.Size()}
}

// TestSection3Session reproduces the paper's Section 3 interaction:
// P? no, Q? yes, R? no → error localized inside the body of R.
func TestSection3Session(t *testing.T) {
	res, _ := traceIt(t, paper.PQR)
	oracle := &debugger.ScriptedOracle{
		ByUnit: map[string]debugger.Answer{
			"p": {Verdict: debugger.Incorrect},
			"q": {Verdict: debugger.Correct},
			"r": {Verdict: debugger.Incorrect},
		},
	}
	sess := debugger.New(res.Tree, oracle, debugger.Options{})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "r" {
		t.Fatalf("bug = %v, want r", out.Bug)
	}
	if out.Questions != 3 {
		t.Errorf("questions = %d, want 3 (p, q, r)", out.Questions)
	}
	if !strings.Contains(out.Reason, "r") {
		t.Errorf("reason = %q", out.Reason)
	}
}

func TestPureADTopDownSqrtest(t *testing.T) {
	res, _ := traceIt(t, paper.Sqrtest)
	oracle := &debugger.IntendedOracle{Ref: analyze(t, paper.SqrtestFixed)}
	sess := debugger.New(res.Tree, oracle, debugger.Options{Strategy: debugger.TopDown})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement", out.Bug)
	}
	// Pure top-down: sqrtest, arrsum, computs, comput1, partialsums,
	// sum1, sum2, decrement.
	if out.Questions != 8 {
		t.Errorf("questions = %d, want 8\n%s", out.Questions, transcript(out))
	}
}

func TestSlicingReducesQuestions(t *testing.T) {
	res, deps := traceIt(t, paper.Sqrtest)
	ref := analyze(t, paper.SqrtestFixed)

	pure := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{})
	pureOut, err := pure.Run()
	if err != nil {
		t.Fatal(err)
	}

	sliced := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
		Slicing: true, Deps: deps,
	})
	slicedOut, err := sliced.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slicedOut.Localized() || slicedOut.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement", slicedOut.Bug)
	}
	if slicedOut.Questions >= pureOut.Questions {
		t.Errorf("slicing did not reduce questions: %d vs %d", slicedOut.Questions, pureOut.Questions)
	}
	if slicedOut.Questions != 7 {
		t.Errorf("questions with slicing = %d, want 7\n%s", slicedOut.Questions, transcript(slicedOut))
	}
	if slicedOut.Slices == 0 {
		t.Error("no slice events recorded")
	}
}

// TestFailedSliceKeepsView: an answer flags an output the callee never
// wrote, so there is no slice on it. The session counts the failure,
// records it in the transcript with its error, and keeps the full view.
func TestFailedSliceKeepsView(t *testing.T) {
	res, deps := traceIt(t, `
program t;
var x: integer;

procedure a;
var u: integer;
begin
  u := 1;
end;

procedure b;
var u: integer;
begin
  u := 2;
end;

procedure p(var r: integer);
begin
  a;
  b;
end;

begin
  p(x);
  writeln(x);
end.`)
	reg := obs.NewRegistry()
	out, err := debugger.New(res.Tree, &debugger.ScriptedOracle{
		ByUnit: map[string]debugger.Answer{
			"p": {Verdict: debugger.Incorrect, WrongOutput: "r"},
			"a": {Verdict: debugger.Correct},
			"b": {Verdict: debugger.Correct},
		},
	}, debugger.Options{Slicing: true, Deps: deps, Metrics: reg}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "p" {
		t.Fatalf("bug = %v, want p", out.Bug)
	}
	// The full view still holds a and b, so both are asked.
	if out.Questions != 3 || out.Slices != 0 {
		t.Errorf("questions = %d, slices = %d; want 3 and 0\n%s", out.Questions, out.Slices, transcript(out))
	}
	if got := reg.Counter("debugger.slice.errors").Value(); got != 1 {
		t.Errorf("debugger.slice.errors = %d, want 1", got)
	}
	var failed []debugger.Event
	for _, ev := range out.Transcript {
		if ev.Kind == debugger.EvSliceError {
			failed = append(failed, ev)
		}
	}
	if len(failed) != 1 || failed[0].Node.Unit.Name != "p" ||
		!strings.Contains(failed[0].Detail, `p has no recorded output "r"`) {
		t.Errorf("slice-error events = %+v, want one on p carrying the error", failed)
	}
}

// TestOmittedOutputBlamesCallee guards the failed-slice fallback: c
// forgets to write its var parameter, so p's flagged output r has no
// recorded write to slice on. Any callee that shares r's location may
// be the one that failed to write it, so the session must keep c in
// view: every strategy localizes c, not p.
func TestOmittedOutputBlamesCallee(t *testing.T) {
	const fixed = `
program t;
var x: integer;

procedure c(var r: integer);
begin
  r := 7;
end;

procedure p(var r: integer);
begin
  c(r);
end;

begin
  p(x);
  writeln(x);
end.`
	res, deps := traceIt(t, strings.Replace(fixed, "r := 7;", "", 1))
	ref := analyze(t, fixed)
	for _, strat := range debugger.Strategies() {
		out, err := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
			Strategy: strat, Slicing: true, Deps: deps,
		}).Run()
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !out.Localized() || out.Bug.Unit.Name != "c" {
			t.Errorf("%s: bug = %v, want c\n%s", strat, out.Bug, transcript(out))
		}
	}
}

// fakeTests simulates the test-case lookup: arrsum is covered by a
// passing test report.
type fakeTests struct{}

func (fakeTests) Judge(n *exectree.Node) debugger.Verdict {
	if n.Unit.Name == "arrsum" {
		return debugger.Correct
	}
	return debugger.DontKnow
}

// TestSection8GADTSession: with test lookup for arrsum plus slicing, the
// arrsum query is never shown to the user (the paper's Step 1) and the
// bug is localized in decrement with 6 user interactions.
func TestSection8GADTSession(t *testing.T) {
	res, deps := traceIt(t, paper.Sqrtest)
	ref := analyze(t, paper.SqrtestFixed)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
		Slicing: true, Deps: deps, Tests: fakeTests{},
	})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement", out.Bug)
	}
	if out.Questions != 6 {
		t.Errorf("questions = %d, want 6\n%s", out.Questions, transcript(out))
	}
	if out.ByTests != 1 {
		t.Errorf("test-answered = %d, want 1 (arrsum)", out.ByTests)
	}
	// The arrsum query must not appear among user questions.
	for _, ev := range out.Transcript {
		if ev.Kind == debugger.EvQuestion && ev.Node.Unit.Name == "arrsum" {
			t.Error("arrsum was asked despite the test database")
		}
	}
}

func TestDivideAndQuery(t *testing.T) {
	res, _ := traceIt(t, paper.Sqrtest)
	ref := analyze(t, paper.SqrtestFixed)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
		Strategy: debugger.DivideAndQuery,
	})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement\n%s", out.Bug, transcript(out))
	}
	if out.Questions > 8 {
		t.Errorf("divide-and-query asked %d questions, expected <= 8", out.Questions)
	}
}

func TestBottomUp(t *testing.T) {
	res, _ := traceIt(t, paper.Sqrtest)
	ref := analyze(t, paper.SqrtestFixed)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
		Strategy: debugger.BottomUp,
	})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement\n%s", out.Bug, transcript(out))
	}
}

func TestAssertionsAnswerQueries(t *testing.T) {
	res, _ := traceIt(t, paper.Sqrtest)
	db := assertion.NewDB()
	if err := db.AddText("arrsum", "b = sum(a, n)"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddText("increment", "result = y + 1"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddText("decrement", "result = y - 1"); err != nil {
		t.Fatal(err)
	}
	ref := analyze(t, paper.SqrtestFixed)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
		Assertions: db,
	})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement", out.Bug)
	}
	if out.ByAssertions < 2 {
		t.Errorf("assertion-answered = %d, want >= 2 (arrsum + decrement)", out.ByAssertions)
	}
	// decrement's violated assertion answers the final query, so the
	// user is asked strictly fewer than the pure 8.
	if out.Questions >= 8 {
		t.Errorf("questions = %d, want < 8\n%s", out.Questions, transcript(out))
	}
}

func TestMemoizationAvoidsRepeatQuestions(t *testing.T) {
	// f is called twice with the same arguments; the second query must
	// be answered from memory.
	res, _ := traceIt(t, `
program t;
var a, b: integer;

function f(x: integer): integer;
begin
  f := x * 2; (* bug: should be x * 3 *)
end;

procedure p1(var r: integer);
begin
  r := f(5);
end;

procedure p2(var r: integer);
begin
  r := f(5);
end;

begin
  p1(a);
  p2(b);
  writeln(a, b);
end.`)
	ref := analyze(t, `
program t;
var a, b: integer;

function f(x: integer): integer;
begin
  f := x * 3;
end;

procedure p1(var r: integer);
begin
  r := f(5);
end;

procedure p2(var r: integer);
begin
  r := f(5);
end;

begin
  p1(a);
  p2(b);
  writeln(a, b);
end.`)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "f" {
		t.Fatalf("bug = %v, want f", out.Bug)
	}
	// p1? no, f? no → localized; p2/f never re-asked.
	if out.Questions != 2 {
		t.Errorf("questions = %d, want 2\n%s", out.Questions, transcript(out))
	}
}

func TestTransformedProgramDebugging(t *testing.T) {
	// Full pipeline: transform buggy and reference programs, trace the
	// transformed buggy one, debug with slicing.
	buggy := analyze(t, paper.Sqrtest)
	tbuggy, err := transform.Apply(buggy)
	if err != nil {
		t.Fatal(err)
	}
	fixed := analyze(t, paper.SqrtestFixed)
	tfixed, err := transform.Apply(fixed)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(tbuggy.Info, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	deps := &dynamic.Deps{Info: tbuggy.Info, Nodes: res.Tree.Size()}
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: tfixed.Info}, debugger.Options{
		Slicing: true, Deps: deps, Meta: tbuggy,
	})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement\n%s", out.Bug, transcript(out))
	}
}

func TestLoopUnitQueryRendering(t *testing.T) {
	info := analyze(t, paper.ArrsumProgram)
	tres, err := transform.Apply(info)
	if err != nil {
		t.Fatal(err)
	}
	res := traceTransformed(t, tres, "2 ")
	// Find a loop-unit query text via a scripted session that answers
	// everything correct (inconclusive outcome is fine).
	oracle := &capturingOracle{}
	sess := debugger.New(res.Tree, oracle, debugger.Options{Meta: tres})
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	var loopQuery string
	for _, q := range oracle.queries {
		if strings.Contains(q, "for-loop in arrsum") {
			loopQuery = q
		}
	}
	if loopQuery == "" {
		t.Fatalf("no loop-unit query rendered; queries:\n%s", strings.Join(oracle.queries, "\n"))
	}
	if !strings.Contains(loopQuery, "iteration") {
		t.Errorf("loop query lacks iteration info: %q", loopQuery)
	}
	// The query places the loop at the original for statement.
	var forPos token.Pos
	ast.Inspect(info.LookupRoutine("arrsum").Block.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok {
			forPos = f.Pos()
		}
		return true
	})
	if want := "for-loop in arrsum at " + forPos.String() + ","; !forPos.IsValid() || !strings.Contains(loopQuery, want) {
		t.Errorf("loop query %q does not contain %q", loopQuery, want)
	}
}

func traceTransformed(t *testing.T, tres *transform.Result, input string) *exectree.TraceResult {
	t.Helper()
	res := exectree.Trace(tres.Info, input)
	if res.Err != nil {
		t.Fatalf("trace: %v", res.Err)
	}
	return res
}

type capturingOracle struct {
	queries []string
}

func (o *capturingOracle) Ask(q *debugger.Query) (debugger.Answer, error) {
	o.queries = append(o.queries, q.Text)
	// Answer "incorrect" down one spine to force traversal, then stop.
	return debugger.Answer{Verdict: debugger.Incorrect}, nil
}

// TestExitConditionRendering: the non-local goto appears in queries as
// one of the unit's results ("Exit: goto label 9 in p"), per Section 6.1.
func TestExitConditionRendering(t *testing.T) {
	info := analyze(t, paper.GlobalGoto)
	tres, err := transform.Apply(info)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(tres.Info, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	oracle := &capturingOracle{}
	sess := debugger.New(res.Tree, oracle, debugger.Options{Meta: tres})
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	var exitQuery string
	for _, q := range oracle.queries {
		if strings.Contains(q, "Exit:") {
			exitQuery = q
		}
	}
	if exitQuery == "" {
		t.Fatalf("no exit-condition query rendered; queries:\n%s", strings.Join(oracle.queries, "\n"))
	}
	if !strings.Contains(exitQuery, "goto label 9 in p") {
		t.Errorf("exit rendering = %q, want decoded label", exitQuery)
	}
}

// TestGlobalDisplayedAsIn: a global passed by reference for alias safety
// still renders as an In parameter (its logical mode).
func TestGlobalDisplayedAsIn(t *testing.T) {
	info := analyze(t, paper.GlobalSideEffects)
	tres, err := transform.Apply(info)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(tres.Info, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	oracle := &capturingOracle{}
	sess := debugger.New(res.Tree, oracle, debugger.Options{Meta: tres})
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	var pQuery string
	for _, q := range oracle.queries {
		if strings.HasPrefix(q, "p(") {
			pQuery = q
		}
	}
	if pQuery == "" {
		t.Fatalf("no query for p; got %v", oracle.queries)
	}
	// x is REF-only: displayed as In with its entry value (10) and no
	// Out row; z is an Out global (y aliases x, so z = 11 - 11 = 0).
	if !strings.Contains(pQuery, "In x: 10") {
		t.Errorf("query %q lacks 'In x: 10' (logical in-mode display)", pQuery)
	}
	if strings.Contains(pQuery, "Out x:") {
		t.Errorf("query %q shows an Out row for the logical-in global x", pQuery)
	}
	if !strings.Contains(pQuery, "Out z: 0") {
		t.Errorf("query %q lacks 'Out z: 0'", pQuery)
	}
}

func TestQueryTextMatchesPaperStyle(t *testing.T) {
	res, _ := traceIt(t, paper.Sqrtest)
	oracle := &capturingOracle{}
	sess := debugger.New(res.Tree, oracle, debugger.Options{})
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range oracle.queries {
		if q == "sqrtest(In ary: [1, 2], In n: 2, Out isok: false)?" {
			found = true
		}
	}
	if !found {
		t.Errorf("paper-style query not found; got:\n%s", strings.Join(oracle.queries, "\n"))
	}
}

func TestAllCorrectProgramBehavior(t *testing.T) {
	res, _ := traceIt(t, paper.SqrtestFixed)
	ref := analyze(t, paper.SqrtestFixed)
	// With the symptom premise (default), a fully correct tree pins the
	// "bug" on the program body — the only place left.
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || !out.Bug.IsRoot() {
		t.Errorf("bug = %v, want the program body under the symptom premise", out.Bug)
	}
	// Without the premise the search is inconclusive.
	sess2 := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{NoRootAssumption: true})
	out2, err := sess2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out2.Localized() {
		t.Errorf("localized %v in a correct program without the premise", out2.Bug.Unit.Name)
	}
}

func TestQuestionBudget(t *testing.T) {
	res, _ := traceIt(t, paper.Sqrtest)
	ref := analyze(t, paper.SqrtestFixed)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{MaxQuestions: 2})
	_, err := sess.Run()
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want question-budget error", err)
	}
}

func TestInteractiveOracle(t *testing.T) {
	res, _ := traceIt(t, paper.PQR)
	db := assertion.NewDB()
	input := strings.NewReader("no\nzzz\nyes\nn d\n")
	var outBuf strings.Builder
	oracle := &debugger.InteractiveOracle{In: input, Out: &outBuf, DB: db}
	sess := debugger.New(res.Tree, oracle, debugger.Options{Assertions: db})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "r" {
		t.Fatalf("bug = %v, want r", out.Bug)
	}
	if !strings.Contains(outBuf.String(), "p(In a: 5, In c: 7, Out b: 10, Out d: 6)?") {
		t.Errorf("prompt missing:\n%s", outBuf.String())
	}
	// The invalid reply "zzz" must produce a usage hint.
	if !strings.Contains(outBuf.String(), "reply y, n") {
		t.Errorf("no usage hint after invalid input:\n%s", outBuf.String())
	}
}

func TestDontKnowSkipsSubtree(t *testing.T) {
	// The user cannot judge computs; top-down then treats it as
	// not-incorrect and moves on — with everything else correct the
	// search falls back to the symptom premise (bug in the parent body).
	res, _ := traceIt(t, paper.Sqrtest)
	oracle := &debugger.ScriptedOracle{
		ByUnit: map[string]debugger.Answer{
			"sqrtest": {Verdict: debugger.Incorrect},
			"computs": {Verdict: debugger.DontKnow},
		},
		Default: debugger.Answer{Verdict: debugger.Correct},
	}
	sess := debugger.New(res.Tree, oracle, debugger.Options{})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "sqrtest" {
		t.Errorf("bug = %v, want sqrtest (computs unjudgable)", out.Bug)
	}
}

func TestScriptedOracleByText(t *testing.T) {
	res, _ := traceIt(t, paper.PQR)
	oracle := &debugger.ScriptedOracle{
		ByText: map[string]debugger.Answer{
			"p(In a: 5, In c: 7, Out b: 10, Out d: 6)?": {Verdict: debugger.Incorrect},
			"q(In a: 5, Out b: 10)?":                    {Verdict: debugger.Correct},
			"r(In c: 7, Out d: 6)?":                     {Verdict: debugger.Incorrect, WrongOutput: "d"},
		},
	}
	sess := debugger.New(res.Tree, oracle, debugger.Options{})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "r" {
		t.Errorf("bug = %v", out.Bug)
	}
}

func TestDivideAndQueryWithSlicing(t *testing.T) {
	res, deps := traceIt(t, paper.Sqrtest)
	ref := analyze(t, paper.SqrtestFixed)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
		Strategy: debugger.DivideAndQuery,
		Slicing:  true, Deps: deps,
	})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement\n%s", out.Bug, transcript(out))
	}
}

func TestBottomUpWithSlicing(t *testing.T) {
	res, deps := traceIt(t, paper.Sqrtest)
	ref := analyze(t, paper.SqrtestFixed)
	sess := debugger.New(res.Tree, &debugger.IntendedOracle{Ref: ref}, debugger.Options{
		Strategy: debugger.BottomUp,
		Slicing:  true, Deps: deps,
	})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("bug = %v, want decrement", out.Bug)
	}
}

func TestVerdictStrings(t *testing.T) {
	if debugger.Correct.String() != "yes" || debugger.Incorrect.String() != "no" ||
		debugger.DontKnow.String() != "don't know" {
		t.Error("verdict strings")
	}
	if debugger.TopDown.String() != "top-down" ||
		debugger.DivideAndQuery.String() != "divide-and-query" ||
		debugger.BottomUp.String() != "bottom-up" {
		t.Error("strategy strings")
	}
}

func transcript(o *debugger.Outcome) string {
	var b strings.Builder
	for _, ev := range o.Transcript {
		b.WriteString(ev.Kind.String())
		b.WriteString(": ")
		b.WriteString(ev.Text)
		if ev.Kind == debugger.EvQuestion || ev.Kind == debugger.EvMemo {
			b.WriteString(" -> ")
			b.WriteString(ev.Verdict.String())
			if ev.Detail != "" {
				b.WriteString(" (" + ev.Detail + ")")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
