package debugger_test

import (
	"testing"

	"gadt/internal/debugger"
)

// TestDivideAndQueryEdgeCases pins divide-and-query on degenerate tree
// shapes: a single-node tree must localize the program body without a
// single question, an all-correct fringe must fall back to the root
// after exhausting every candidate, and on a linear chain the strategy
// must probe the midpoint first (not walk the chain top-down).
func TestDivideAndQueryEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		oracle *debugger.ScriptedOracle
		// wantUnit is the localized unit, wantQuestions the exact count,
		// wantFirst the unit of the first oracle question ("" = none).
		wantUnit      string
		wantQuestions int
		wantFirst     string
	}{
		{
			// The tree is just the program node: weight-1 candidates are
			// exhausted immediately and the symptom premise pins the body.
			name: "single-node tree",
			src: `
program solo;
var x: integer;
begin
  x := 2;
  writeln(x);
end.`,
			oracle:        &debugger.ScriptedOracle{},
			wantUnit:      "solo",
			wantQuestions: 0,
		},
		{
			// Three equal-weight children: each bisection attempt judges
			// one child correct and cuts it, so all three are asked and
			// the root is left as the only suspect.
			name: "all children correct",
			src: `
program trip;
var a, b, c: integer;

procedure p1(var r: integer);
begin
  r := 1;
end;

procedure p2(var r: integer);
begin
  r := 2;
end;

procedure p3(var r: integer);
begin
  r := 3;
end;

begin
  p1(a);
  p2(b);
  p3(c);
  writeln(a, b, c);
end.`,
			oracle:        &debugger.ScriptedOracle{Default: debugger.Answer{Verdict: debugger.Correct}},
			wantUnit:      "trip",
			wantQuestions: 3,
		},
		{
			// Chain main -> a -> b -> c with the fault in a's body. The
			// weights are a:3, b:2, c:1 against target 2, so the first
			// probe must be the midpoint b (correct, cutting b and c),
			// then a (incorrect) — two questions, never touching c.
			name: "deep chain bisects",
			src: `
program chain;
var r: integer;

function c(x: integer): integer;
begin
  c := x + 1;
end;

function b(x: integer): integer;
begin
  b := c(x) * 2;
end;

function a(x: integer): integer;
begin
  a := b(x) - 1;
end;

begin
  r := a(3);
  writeln(r);
end.`,
			oracle: &debugger.ScriptedOracle{
				ByUnit: map[string]debugger.Answer{
					"a": {Verdict: debugger.Incorrect},
					"b": {Verdict: debugger.Correct},
					"c": {Verdict: debugger.Correct},
				},
			},
			wantUnit:      "a",
			wantQuestions: 2,
			wantFirst:     "b",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := traceIt(t, tc.src)
			sess := debugger.New(res.Tree, tc.oracle, debugger.Options{
				Strategy: debugger.DivideAndQuery,
			})
			out, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Localized() || out.Bug.Unit.Name != tc.wantUnit {
				t.Fatalf("bug = %v, want %s\n%s", out.Bug, tc.wantUnit, transcript(out))
			}
			if out.Questions != tc.wantQuestions {
				t.Errorf("questions = %d, want %d\n%s", out.Questions, tc.wantQuestions, transcript(out))
			}
			var first string
			for _, ev := range out.Transcript {
				if ev.Kind == debugger.EvQuestion {
					first = ev.Node.Unit.Name
					break
				}
			}
			if tc.wantFirst != "" && first != tc.wantFirst {
				t.Errorf("first question went to %q, want %q\n%s", first, tc.wantFirst, transcript(out))
			}
		})
	}
}

// dqChain is main -> a -> b -> c, reused by the don't-know cases.
const dqChain = `
program chain;
var r: integer;

function c(x: integer): integer;
begin
  c := x + 1;
end;

function b(x: integer): integer;
begin
  b := c(x) * 2;
end;

function a(x: integer): integer;
begin
  a := b(x) - 1;
end;

begin
  r := a(3);
  writeln(r);
end.`

// TestDivideAndQueryDontKnowSubtreeStillSearched pins the soundness fix:
// a don't-know answer must leave the node's subtree in the suspect set.
// On the chain with b unanswerable but c incorrect, the bug in c must
// still be localized — the pre-fix engine conflated don't-know with
// correct, cut b's whole subtree, and blamed a instead.
func TestDivideAndQueryDontKnowSubtreeStillSearched(t *testing.T) {
	for _, strat := range []debugger.Strategy{debugger.DivideAndQuery, debugger.WeightedDivideAndQuery} {
		t.Run(strat.String(), func(t *testing.T) {
			res, _ := traceIt(t, dqChain)
			oracle := &debugger.ScriptedOracle{
				ByUnit: map[string]debugger.Answer{
					"a": {Verdict: debugger.Incorrect},
					"b": {Verdict: debugger.DontKnow},
					"c": {Verdict: debugger.Incorrect},
				},
			}
			sess := debugger.New(res.Tree, oracle, debugger.Options{Strategy: strat})
			out, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Localized() || out.Bug.Unit.Name != "c" {
				t.Fatalf("bug = %v, want c (inside the don't-know subtree)\n%s", out.Bug, transcript(out))
			}
		})
	}
}

// TestDivideAndQueryDontKnowResidueInconclusive: when the region cannot
// be narrowed past unanswered nodes, the search must end inconclusive —
// pinning the suspect would silently skip the bodies nobody vouched for.
// Here a is incorrect, c is correct, and b is unanswerable: the bug may
// be in a or in b, so neither may be blamed.
func TestDivideAndQueryDontKnowResidueInconclusive(t *testing.T) {
	for _, strat := range []debugger.Strategy{debugger.DivideAndQuery, debugger.WeightedDivideAndQuery} {
		t.Run(strat.String(), func(t *testing.T) {
			res, _ := traceIt(t, dqChain)
			oracle := &debugger.ScriptedOracle{
				ByUnit: map[string]debugger.Answer{
					"a": {Verdict: debugger.Incorrect},
					"b": {Verdict: debugger.DontKnow},
					"c": {Verdict: debugger.Correct},
				},
			}
			sess := debugger.New(res.Tree, oracle, debugger.Options{Strategy: strat})
			out, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Localized() {
				t.Fatalf("localized %v, want inconclusive (don't-know residue)\n%s", out.Bug, transcript(out))
			}
		})
	}
}

// TestDivideAndQueryAllDontKnowInconclusive: a user who can answer
// nothing must end with no localization at all — not a false blame of
// the program body (which the root assumption would otherwise pin once
// every subtree were unsoundly cut).
func TestDivideAndQueryAllDontKnowInconclusive(t *testing.T) {
	for _, strat := range []debugger.Strategy{debugger.DivideAndQuery, debugger.WeightedDivideAndQuery} {
		t.Run(strat.String(), func(t *testing.T) {
			res, _ := traceIt(t, dqChain)
			oracle := &debugger.ScriptedOracle{Default: debugger.Answer{Verdict: debugger.DontKnow}}
			sess := debugger.New(res.Tree, oracle, debugger.Options{Strategy: strat})
			out, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Localized() {
				t.Fatalf("localized %v, want inconclusive\n%s", out.Bug, transcript(out))
			}
			if out.Questions != 3 {
				t.Errorf("questions = %d, want 3 (each of a, b, c asked exactly once)\n%s",
					out.Questions, transcript(out))
			}
		})
	}
}

// TestWeightedDivideAndQueryCustomWeights drives the weighted selector
// with recorded statement counts: making c by far the heaviest call must
// move the first probe from the unweighted midpoint b down to c, per the
// Insa–Silva rule (minimize the worst-case remaining weight).
func TestWeightedDivideAndQueryCustomWeights(t *testing.T) {
	res, _ := traceIt(t, dqChain)
	for _, n := range res.Tree.Nodes {
		n.Steps = 0
		if n.Unit.Name == "c" {
			n.Steps = 9
		}
	}
	oracle := &debugger.ScriptedOracle{
		ByUnit: map[string]debugger.Answer{
			"a": {Verdict: debugger.Incorrect},
			"b": {Verdict: debugger.Correct},
			"c": {Verdict: debugger.Correct},
		},
	}
	sess := debugger.New(res.Tree, oracle, debugger.Options{Strategy: debugger.WeightedDivideAndQuery})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "a" {
		t.Fatalf("bug = %v, want a\n%s", out.Bug, transcript(out))
	}
	var first string
	for _, ev := range out.Transcript {
		if ev.Kind == debugger.EvQuestion {
			first = ev.Node.Unit.Name
			break
		}
	}
	if first != "c" {
		t.Errorf("first question went to %q, want the heavyweight c\n%s", first, transcript(out))
	}
}

// TestWeightedDivideAndQueryRootFallback mirrors the all-correct plain
// case: the weighted variant must also fall back to the program body
// once every proper descendant is judged correct.
func TestWeightedDivideAndQueryRootFallback(t *testing.T) {
	res, _ := traceIt(t, dqChain)
	oracle := &debugger.ScriptedOracle{Default: debugger.Answer{Verdict: debugger.Correct}}
	sess := debugger.New(res.Tree, oracle, debugger.Options{Strategy: debugger.WeightedDivideAndQuery})
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "chain" {
		t.Fatalf("bug = %v, want the program body chain\n%s", out.Bug, transcript(out))
	}
}
