package dataflow_test

import (
	"testing"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/dataflow"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func analyzeRoutine(t *testing.T, src, routine string) (*sem.Info, *cfg.Graph, *dataflow.Result) {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	r := info.Main
	if routine != "" {
		r = info.LookupRoutine(routine)
		if r == nil {
			t.Fatalf("routine %s missing", routine)
		}
	}
	g := cfg.Build(info, r)
	se := sideeffect.Analyze(info, callgraph.Build(info))
	df := dataflow.ReachingDefs(info, g, se)
	return info, g, df
}

func findVar(info *sem.Info, r *sem.Routine, name string) *sem.VarSym {
	for ; r != nil; r = r.Parent {
		for _, v := range r.AllVars() {
			if v.Name == name {
				return v
			}
		}
	}
	return nil
}

func TestStraightLineKills(t *testing.T) {
	info, g, df := analyzeRoutine(t, `
program t;
var x, y: integer;
begin
  x := 1;
  x := 2;
  y := x;
end.`, "")
	x := findVar(info, info.Main, "x")
	// At exit, only the second definition of x reaches.
	defs := df.ReachingAt(g.Exit, x)
	if len(defs) != 1 {
		t.Fatalf("defs of x at exit = %d, want 1", len(defs))
	}
	as, ok := defs[0].Node.Stmt.(*ast.AssignStmt)
	if !ok {
		t.Fatalf("def node = %v", defs[0].Node)
	}
	if lit, ok := as.Rhs.(*ast.IntLit); !ok || lit.Value != 2 {
		t.Errorf("reaching def is %v, want x := 2", as.Rhs)
	}
}

func TestBranchMerge(t *testing.T) {
	info, g, df := analyzeRoutine(t, `
program t;
var c, x: integer;
begin
  read(c);
  if c > 0 then
    x := 1
  else
    x := 2;
  c := x;
end.`, "")
	x := findVar(info, info.Main, "x")
	defs := df.ReachingAt(g.Exit, x)
	if len(defs) != 2 {
		t.Fatalf("defs of x at exit = %d, want 2 (both branches)", len(defs))
	}
}

func TestLoopCarried(t *testing.T) {
	info, g, df := analyzeRoutine(t, `
program t;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 3 do
    s := s + i;
end.`, "")
	s := findVar(info, info.Main, "s")
	// Inside the loop, both s := 0 and s := s + i reach the use of s.
	var bodyNode *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Stmt {
			if as, ok := n.Stmt.(*ast.AssignStmt); ok {
				if _, isBin := as.Rhs.(*ast.BinaryExpr); isBin {
					bodyNode = n
				}
			}
		}
	}
	if bodyNode == nil {
		t.Fatal("loop body assignment not found")
	}
	defs := df.ReachingAt(bodyNode, s)
	if len(defs) != 2 {
		t.Fatalf("defs of s at loop body = %d, want 2 (init + loop-carried)", len(defs))
	}
}

func TestEntryDefsForParamsAndNonlocals(t *testing.T) {
	info, g, df := analyzeRoutine(t, paper.GlobalSideEffects, "p")
	p := info.LookupRoutine("p")
	y := findVar(info, p, "y")
	x := findVar(info, info.Main, "x")
	// y (param) and x (non-local) have synthetic entry definitions.
	foundY, foundX := false, false
	for _, d := range df.Defs {
		if d.Node == g.Entry {
			if d.Var == y {
				foundY = true
			}
			if d.Var == x {
				foundX = true
			}
		}
	}
	if !foundY {
		t.Error("no entry def for parameter y")
	}
	if !foundX {
		t.Error("no entry def for non-local x")
	}
}

func TestCallDefsAreMay(t *testing.T) {
	info, g, df := analyzeRoutine(t, `
program t;
var x: integer;
procedure maybe(var v: integer);
begin
  if v > 0 then v := 0;
end;
begin
  x := 5;
  maybe(x);
  writeln(x);
end.`, "")
	x := findVar(info, info.Main, "x")
	// After the call, both x := 5 and the call's definition reach.
	defs := df.ReachingAt(g.Exit, x)
	if len(defs) != 2 {
		t.Fatalf("defs of x at exit = %d, want 2 (assign + may-def call)", len(defs))
	}
}

func TestPartialArrayUpdateIsMay(t *testing.T) {
	info, g, df := analyzeRoutine(t, `
program t;
type arr = array [1 .. 3] of integer;
var a: arr;
    i: integer;
begin
  a[1] := 10;
  read(i);
  a[i] := 20;
  writeln(a[1]);
end.`, "")
	a := findVar(info, info.Main, "a")
	defs := df.ReachingAt(g.Exit, a)
	// Entry def killed? No: element assignments are may-defs, so entry,
	// a[1] := 10 and a[i] := 20 all reach.
	if len(defs) != 3 {
		t.Fatalf("defs of a at exit = %d, want 3", len(defs))
	}
}

func TestFlowDeps(t *testing.T) {
	_, g, df := analyzeRoutine(t, `
program t;
var x, y: integer;
begin
  x := 1;
  y := x + 2;
end.`, "")
	var yAssign *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Stmt {
			if as, ok := n.Stmt.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs.(*ast.Ident); ok && id.Name == "y" {
					yAssign = n
				}
			}
		}
	}
	deps := df.FlowDeps(yAssign)
	if len(deps) != 1 {
		t.Fatalf("flow deps of y := x + 2: %d, want 1", len(deps))
	}
}

// findStmtNode returns the CFG node for the first assignment to name.
func findAssign(g *cfg.Graph, name string) *cfg.Node {
	for _, n := range g.Nodes {
		if n.Kind == cfg.Stmt {
			if as, ok := n.Stmt.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs.(*ast.Ident); ok && id.Name == name {
					return n
				}
			}
		}
	}
	return nil
}

// TestSyntheticQueries drives SyntheticReaches / SyntheticOnly /
// DefinitelyAssigns through the three situations the lint checks
// distinguish: definitely-assigned, maybe-assigned, and never-assigned
// before a use.
func TestSyntheticQueries(t *testing.T) {
	info, g, df := analyzeRoutine(t, `
program t;
var g: integer;
procedure p(c: integer; var r: integer);
var a, b, u: integer;
begin
  a := 1;
  if c > 0 then
    b := 2;
  r := a + b + u;
end;
begin
  read(g);
  p(g, g);
  writeln(g);
end.`, "p")
	p := info.LookupRoutine("p")
	use := findAssign(g, "r")
	if use == nil {
		t.Fatal("r := ... not found")
	}
	tests := []struct {
		name                      string
		reaches, only, definitely bool
	}{
		{"a", false, false, true}, // assigned on every path
		{"b", true, false, false}, // assigned on one branch only
		{"u", true, true, false},  // never assigned
	}
	for _, tt := range tests {
		v := findVar(info, p, tt.name)
		if got := df.SyntheticReaches(use, v); got != tt.reaches {
			t.Errorf("SyntheticReaches(%s) = %v, want %v", tt.name, got, tt.reaches)
		}
		if got := df.SyntheticOnly(use, v); got != tt.only {
			t.Errorf("SyntheticOnly(%s) = %v, want %v", tt.name, got, tt.only)
		}
		if got := df.DefinitelyAssigns(v); got != tt.definitely {
			t.Errorf("DefinitelyAssigns(%s) = %v, want %v", tt.name, got, tt.definitely)
		}
	}
}

// TestLivenessDeadStore checks that an overwritten-before-read value is
// dead at its store while the surviving one is live.
func TestLivenessDeadStore(t *testing.T) {
	info, g, df := analyzeRoutine(t, `
program t;
var x, y: integer;
begin
  x := 1;
  x := 2;
  y := x;
  writeln(y);
end.`, "")
	x := findVar(info, info.Main, "x")
	live := df.Liveness()
	var first, second *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind != cfg.Stmt {
			continue
		}
		if as, ok := n.Stmt.(*ast.AssignStmt); ok {
			if id, ok := as.Lhs.(*ast.Ident); ok && id.Name == "x" {
				if first == nil {
					first = n
				} else {
					second = n
				}
			}
		}
	}
	if first == nil || second == nil {
		t.Fatal("assignments to x not found")
	}
	if live.LiveOut(first, x) {
		t.Error("x := 1 should be dead (overwritten before any read)")
	}
	if !live.LiveOut(second, x) {
		t.Error("x := 2 should be live (read by y := x)")
	}
}
