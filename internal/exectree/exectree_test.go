package exectree_test

import (
	"strings"
	"testing"

	"gadt/internal/exectree"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func trace(t *testing.T, src, input string) *exectree.TraceResult {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	res := exectree.Trace(info, input)
	if res.Err != nil {
		t.Fatalf("trace: %v", res.Err)
	}
	return res
}

// TestFigure7 reproduces the execution tree of the paper's Figure 7.
func TestFigure7(t *testing.T) {
	res := trace(t, paper.Sqrtest, "")
	tree := res.Tree
	// Main + 13 calls.
	if tree.Size() != 14 {
		t.Fatalf("tree size = %d, want 14\n%s", tree.Size(), tree)
	}
	root := tree.Root
	if root.Unit.Name != "main" || len(root.Children) != 1 {
		t.Fatalf("root = %v with %d children", root.Unit.Name, len(root.Children))
	}
	sq := root.Children[0]
	if sq.Unit.Name != "sqrtest" {
		t.Fatalf("child = %s, want sqrtest", sq.Unit.Name)
	}
	childNames := func(n *exectree.Node) []string {
		var out []string
		for _, c := range n.Children {
			out = append(out, c.Unit.Name)
		}
		return out
	}
	wantEq := func(got []string, want ...string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("children = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("children = %v, want %v", got, want)
			}
		}
	}
	wantEq(childNames(sq), "arrsum", "computs", "test")
	computs := sq.Children[1]
	wantEq(childNames(computs), "comput1", "comput2")
	comput1 := computs.Children[0]
	wantEq(childNames(comput1), "partialsums", "add")
	partial := comput1.Children[0]
	wantEq(childNames(partial), "sum1", "sum2")
	wantEq(childNames(partial.Children[0]), "increment")
	wantEq(childNames(partial.Children[1]), "decrement")
	wantEq(childNames(computs.Children[1]), "square")

	// Paper labels.
	for _, want := range []string{
		"sqrtest(In ary: [1, 2], In n: 2, Out isok: false)",
		"arrsum(In a: [1, 2], In n: 2, Out b: 3)",
		"computs(In y: 3, Out r1: 12, Out r2: 9)",
		"test(In r1: 12, In r2: 9, Out isok: false)",
		"partialsums(In y: 3, Out s1: 6, Out s2: 6)",
		"add(In s1: 6, In s2: 6, Out r1: 12)",
		"decrement(In y: 3) = 4",
		"increment(In y: 3) = 4",
		"square(In y: 3, Out r2: 9)",
	} {
		if !strings.Contains(tree.String(), want) {
			t.Errorf("tree missing label %q:\n%s", want, tree)
		}
	}
	if res.Output != "false\n" {
		t.Errorf("program output = %q", res.Output)
	}
}

func TestNodeBindings(t *testing.T) {
	res := trace(t, paper.Sqrtest, "")
	var computs *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		if n.Unit.Name == "computs" {
			computs = n
		}
		return true
	})
	if computs == nil {
		t.Fatal("computs not traced")
	}
	in, ok := computs.InBinding("y")
	if !ok || !interp.ValuesEqual(in.Value, interp.IntV(3)) {
		t.Errorf("computs In y = %v (%v)", in.Value, ok)
	}
	out, ok := computs.OutBinding("r1")
	if !ok || !interp.ValuesEqual(out.Value, interp.IntV(12)) {
		t.Errorf("computs Out r1 = %v (%v)", out.Value, ok)
	}
	names := computs.OutputNames()
	if len(names) != 2 || names[0] != "r1" || names[1] != "r2" {
		t.Errorf("output names = %v", names)
	}
}

func TestRecursionTree(t *testing.T) {
	res := trace(t, `
program t;
var x: integer;
function fact(n: integer): integer;
begin
  if n <= 1 then fact := 1
  else fact := n * fact(n - 1);
end;
begin
  x := fact(3);
  writeln(x);
end.`, "")
	// main + fact(3) + fact(2) + fact(1) = 4 nodes, linear chain.
	if res.Tree.Size() != 4 {
		t.Fatalf("size = %d, want 4\n%s", res.Tree.Size(), res.Tree)
	}
	n := res.Tree.Root
	depth := 0
	for len(n.Children) == 1 {
		n = n.Children[0]
		depth++
	}
	if depth != 3 || len(n.Children) != 0 {
		t.Errorf("not a 3-deep chain:\n%s", res.Tree)
	}
}

func TestIncompleteOnRuntimeError(t *testing.T) {
	prog := parser.MustParse("t.pas", `
program t;
var x: integer;
procedure boom(var r: integer);
begin
  r := 1 div 0;
end;
begin
  boom(x);
end.`)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(info, "")
	if res.Err == nil {
		t.Fatal("expected runtime error")
	}
	if res.Tree.Size() != 2 {
		t.Fatalf("partial tree size = %d, want 2", res.Tree.Size())
	}
	// ExitCall does fire for the failing frames (exit side effects are
	// recorded), but the root remains visible; check the error carries
	// position info.
	if !strings.Contains(res.Err.Error(), "division by zero") {
		t.Errorf("err = %v", res.Err)
	}
}

// TestWalkPruning: a Walk callback that returns false skips the subtree
// under p.
func TestWalkPruning(t *testing.T) {
	res := trace(t, paper.PQR, "")
	var visited []string
	res.Tree.Walk(func(n *exectree.Node) bool {
		visited = append(visited, n.Unit.Name)
		return n.Unit.Name != "p"
	})
	for _, name := range visited {
		if name == "q" || name == "r" {
			t.Errorf("pruned walk visited %s", name)
		}
	}
}

func TestRenderWithModesOverride(t *testing.T) {
	res := trace(t, paper.PQR, "")
	var b strings.Builder
	// Force q's var param b to display as a value parameter: it then
	// shows its entry value under In.
	res.Tree.Render(&b, nil, func(n *exectree.Node) map[string]ast.ParamMode {
		if n.Unit.Name == "q" {
			return map[string]ast.ParamMode{"b": ast.Value}
		}
		return nil
	})
	if !strings.Contains(b.String(), "q(In a: 5, In b: 0, Out b: 10)") {
		t.Errorf("override rendering:\n%s", b.String())
	}
}

func TestLabelWithNilModes(t *testing.T) {
	res := trace(t, paper.PQR, "")
	var q *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		if n.Unit.Name == "q" {
			q = n
		}
		return true
	})
	if got := q.Label(nil); got != "q(In a: 5, Out b: 10)" {
		t.Errorf("label = %q", got)
	}
}

func TestTraceOutputCapture(t *testing.T) {
	res := trace(t, paper.PQR, "")
	if res.Output != "10 6\n" {
		t.Errorf("output = %q", res.Output)
	}
	if res.Steps == 0 {
		t.Error("no steps counted")
	}
}
