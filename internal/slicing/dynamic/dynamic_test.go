package dynamic_test

import (
	"testing"

	"gadt/internal/exectree"
	"gadt/internal/paper"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/dynamic"
)

func traceWithDeps(t *testing.T, src, input string) (*exectree.TraceResult, *dynamic.Deps) {
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
	return res, &dynamic.Deps{Info: info, Input: input, Nodes: res.Tree.Size()}
}

func findNode(t *testing.T, tree *exectree.Tree, unit string) *exectree.Node {
	t.Helper()
	var out *exectree.Node
	tree.Walk(func(n *exectree.Node) bool {
		if out == nil && n.Unit.Name == unit {
			out = n
		}
		return true
	})
	if out == nil {
		t.Fatalf("node %s not found", unit)
	}
	return out
}

func keptNames(sl *dynamic.TreeSlice) map[string]bool {
	out := make(map[string]bool)
	for n := range sl.Kept {
		out[n.Unit.Name] = true
	}
	return out
}

// TestFigure8 reproduces the paper's first slicing step: slicing the
// execution tree on the first output (r1) of computs keeps the comput1
// subtree (partialsums, sum1, sum2, increment, decrement, add) and drops
// comput2/square and test.
func TestFigure8(t *testing.T) {
	res, deps := traceWithDeps(t, paper.Sqrtest, "")
	computs := findNode(t, res.Tree, "computs")
	sl, err := deps.SliceOnOutput(res.Tree, computs, "r1")
	if err != nil {
		t.Fatal(err)
	}
	names := keptNames(sl)
	for _, want := range []string{"computs", "comput1", "partialsums", "add", "sum1", "sum2", "increment", "decrement"} {
		if !names[want] {
			t.Errorf("slice on r1 must keep %s (kept: %v)", want, names)
		}
	}
	for _, drop := range []string{"comput2", "square", "test"} {
		if names[drop] {
			t.Errorf("slice on r1 must drop %s (kept: %v)", drop, names)
		}
	}
	// Upstream feeders of In y: 3 stay (arrsum computed the 3).
	if !names["arrsum"] || !names["sqrtest"] || !names["main"] {
		t.Errorf("slice lost the upstream context: %v", names)
	}
	// Figure 8 counts: 14-node tree minus test, comput2, square = 11.
	if sl.Size() != 11 {
		t.Errorf("slice size = %d, want 11 (kept %v)", sl.Size(), names)
	}
}

// TestFigure9 reproduces the second slicing step: slicing on the second
// output (s2) of partialsums keeps only sum2 → decrement below it.
func TestFigure9(t *testing.T) {
	res, deps := traceWithDeps(t, paper.Sqrtest, "")
	partial := findNode(t, res.Tree, "partialsums")
	sl, err := deps.SliceOnOutput(res.Tree, partial, "s2")
	if err != nil {
		t.Fatal(err)
	}
	names := keptNames(sl)
	for _, want := range []string{"partialsums", "sum2", "decrement"} {
		if !names[want] {
			t.Errorf("slice on s2 must keep %s (kept: %v)", want, names)
		}
	}
	for _, drop := range []string{"sum1", "increment", "add", "comput2", "square", "test"} {
		if names[drop] {
			t.Errorf("slice on s2 must drop %s (kept: %v)", drop, names)
		}
	}
}

func TestSuccessiveSlicesShrink(t *testing.T) {
	res, deps := traceWithDeps(t, paper.Sqrtest, "")
	computs := findNode(t, res.Tree, "computs")
	s1, err := deps.SliceOnOutput(res.Tree, computs, "r1")
	if err != nil {
		t.Fatal(err)
	}
	partial := findNode(t, res.Tree, "partialsums")
	s2, err := deps.SliceOnOutput(res.Tree, partial, "s2")
	if err != nil {
		t.Fatal(err)
	}
	both := dynamic.Intersect(s1, s2)
	if !(both.Size() <= s1.Size() && both.Size() <= s2.Size()) {
		t.Errorf("intersection grew: %d vs %d/%d", both.Size(), s1.Size(), s2.Size())
	}
	if full := res.Tree.Size(); s1.Size() >= full {
		t.Errorf("first slice did not shrink the tree (%d >= %d)", s1.Size(), full)
	}
}

func TestFunctionResultSlice(t *testing.T) {
	res, deps := traceWithDeps(t, paper.Sqrtest, "")
	dec := findNode(t, res.Tree, "decrement")
	sl, err := deps.SliceOnOutput(res.Tree, dec, "decrement")
	if err != nil {
		t.Fatal(err)
	}
	names := keptNames(sl)
	for _, want := range []string{"decrement", "sum2", "partialsums", "comput1", "computs", "sqrtest", "arrsum", "main"} {
		if !names[want] {
			t.Errorf("slice on decrement result must keep %s (kept: %v)", want, names)
		}
	}
	for _, drop := range []string{"sum1", "increment", "square", "comput2", "test", "add"} {
		if names[drop] {
			t.Errorf("slice on decrement result must drop %s", drop)
		}
	}
}

func TestSliceUnknownOutput(t *testing.T) {
	res, deps := traceWithDeps(t, paper.Sqrtest, "")
	computs := findNode(t, res.Tree, "computs")
	if _, err := deps.SliceOnOutput(res.Tree, computs, "nonexistent"); err == nil {
		t.Error("expected error for unknown output")
	}
}

func TestVarParamChainProvenance(t *testing.T) {
	// x flows a → b → c through var parameters; noise does not.
	res, deps := traceWithDeps(t, `
program t;
var x, noise: integer;

procedure c(var v: integer);
begin
  v := v + 1;
end;

procedure b(var v: integer);
begin
  c(v);
end;

procedure a(var v: integer);
begin
  v := 10;
  b(v);
end;

procedure irrelevant;
begin
  noise := 42;
end;

begin
  irrelevant;
  a(x);
  writeln(x);
end.`, "")
	an := findNode(t, res.Tree, "a")
	sl, err := deps.SliceOnOutput(res.Tree, an, "v")
	if err != nil {
		t.Fatal(err)
	}
	names := keptNames(sl)
	for _, want := range []string{"a", "b", "c"} {
		if !names[want] {
			t.Errorf("slice must keep %s (kept %v)", want, names)
		}
	}
	if names["irrelevant"] {
		t.Error("slice kept the irrelevant call")
	}
}

func TestArrayElementProvenance(t *testing.T) {
	// Writing one array element keeps the whole array's provenance
	// (whole-variable granularity: partial updates read the old value).
	res, deps := traceWithDeps(t, `
program t;
type arr = array [1 .. 3] of integer;
var a: arr;
    s: integer;

procedure init(var v: arr);
begin
  v[1] := 5;
end;

procedure bump(var v: arr);
begin
  v[2] := v[1] + 1;
end;

procedure total(v: arr; var r: integer);
begin
  r := v[1] + v[2] + v[3];
end;

begin
  init(a);
  bump(a);
  total(a, s);
  writeln(s);
end.`, "")
	tn := findNode(t, res.Tree, "total")
	sl, err := deps.SliceOnOutput(res.Tree, tn, "r")
	if err != nil {
		t.Fatal(err)
	}
	names := keptNames(sl)
	for _, want := range []string{"total", "bump", "init"} {
		if !names[want] {
			t.Errorf("slice must keep %s (kept %v)", want, names)
		}
	}
}

// TestControlDependenceKeepsDecidingCondition: a value assigned under a
// branch depends on the branch's condition and, transitively, on the
// unit that computed the condition's input — even though no data flows
// from it into the value.
func TestControlDependenceKeepsDecidingCondition(t *testing.T) {
	res, deps := traceWithDeps(t, `
program t;
var flag, out1, noise: integer;

procedure decide(var f: integer);
begin
  f := 1; (* suppose this is wrong *)
end;

procedure irrelevant;
begin
  noise := 9;
end;

procedure produce(f: integer; var r: integer);
begin
  if f = 1 then
    r := 100
  else
    r := 200;
end;

begin
  decide(flag);
  irrelevant;
  produce(flag, out1);
  writeln(out1);
end.`, "")
	pn := findNode(t, res.Tree, "produce")
	sl, err := deps.SliceOnOutput(res.Tree, pn, "r")
	if err != nil {
		t.Fatal(err)
	}
	names := keptNames(sl)
	if !names["decide"] {
		t.Errorf("slice on r must keep decide (controls which branch ran): %v", names)
	}
	if names["irrelevant"] {
		t.Errorf("slice kept irrelevant: %v", names)
	}
}

func TestEventsRecorded(t *testing.T) {
	_, deps := traceWithDeps(t, paper.Sqrtest, "")
	rec, err := deps.Recorder()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events() == 0 {
		t.Error("no events recorded")
	}
}

func TestLoopCarriedDependence(t *testing.T) {
	res, deps := traceWithDeps(t, `
program t;
var i, acc, unused: integer;

procedure seed(var v: integer);
begin
  v := 2;
end;

procedure waste(var v: integer);
begin
  v := 123;
end;

begin
  seed(acc);
  waste(unused);
  for i := 1 to 3 do
    acc := acc * 2;
  writeln(acc);
end.`, "")
	// Slice on main's final acc: use the root's "output" indirectly by
	// slicing on seed's v then checking the forward picture via the
	// recorder: here we slice on seed's output and expect only seed.
	sn := findNode(t, res.Tree, "seed")
	sl, err := deps.SliceOnOutput(res.Tree, sn, "v")
	if err != nil {
		t.Fatal(err)
	}
	names := keptNames(sl)
	if names["waste"] {
		t.Error("waste contributed to seed's output")
	}
	if !names["seed"] {
		t.Error("seed missing from its own slice")
	}
}
