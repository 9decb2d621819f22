package cfg_test

import (
	"testing"

	"gadt/internal/analysis/cfg"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func build(t *testing.T, src, routine string) (*sem.Info, *cfg.Graph) {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var r *sem.Routine
	if routine == "" {
		r = info.Main
	} else if r = info.LookupRoutine(routine); r == nil {
		t.Fatalf("routine %s not found", routine)
	}
	return info, cfg.Build(info, r)
}

func TestStraightLine(t *testing.T) {
	_, g := build(t, `
program t;
var x: integer;
begin
  x := 1;
  x := 2;
  x := 3;
end.`, "")
	// entry -> s1 -> s2 -> s3 -> exit
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5", len(g.Nodes))
	}
	if len(g.Entry.Succs) != 1 || len(g.Exit.Preds) != 1 {
		t.Errorf("entry succs = %d, exit preds = %d", len(g.Entry.Succs), len(g.Exit.Preds))
	}
	n := g.Entry
	for i := 0; i < 4; i++ {
		if len(n.Succs) != 1 {
			t.Fatalf("node %d has %d succs", n.ID, len(n.Succs))
		}
		n = n.Succs[0]
	}
	if n != g.Exit {
		t.Errorf("chain does not end at exit")
	}
}

func TestIfElseDiamond(t *testing.T) {
	_, g := build(t, `
program t;
var x: integer;
begin
  if x > 0 then x := 1 else x := 2;
  x := 3;
end.`, "")
	var cond *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
	}
	if cond == nil {
		t.Fatal("no cond node")
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond succs = %d, want 2", len(cond.Succs))
	}
	// Both branches must converge on the x := 3 node.
	join := cond.Succs[0].Succs[0]
	if cond.Succs[1].Succs[0] != join {
		t.Error("branches do not join")
	}
}

func TestIfWithoutElseFallsThrough(t *testing.T) {
	_, g := build(t, `
program t;
var x: integer;
begin
  if x > 0 then x := 1;
  x := 3;
end.`, "")
	var cond *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond succs = %d, want 2 (then + fall-through)", len(cond.Succs))
	}
}

func TestWhileLoopBackEdge(t *testing.T) {
	_, g := build(t, `
program t;
var i: integer;
begin
  while i < 10 do i := i + 1;
end.`, "")
	var cond, body *cfg.Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case cfg.Cond:
			cond = n
		case cfg.Stmt:
			if _, ok := n.Stmt.(*ast.AssignStmt); ok {
				body = n
			}
		}
	}
	if cond == nil || body == nil {
		t.Fatal("missing nodes")
	}
	found := false
	for _, s := range body.Succs {
		if s == cond {
			found = true
		}
	}
	if !found {
		t.Error("no back edge from body to condition")
	}
}

func TestForLoopNodes(t *testing.T) {
	_, g := build(t, `
program t;
var i, s: integer;
begin
  for i := 1 to 10 do s := s + i;
end.`, "")
	var kinds []cfg.Kind
	for _, n := range g.Nodes {
		kinds = append(kinds, n.Kind)
	}
	has := func(k cfg.Kind) bool {
		for _, x := range kinds {
			if x == k {
				return true
			}
		}
		return false
	}
	for _, k := range []cfg.Kind{cfg.ForInit, cfg.ForCond, cfg.ForIncr} {
		if !has(k) {
			t.Errorf("missing %v node", k)
		}
	}
}

func TestRepeatAtLeastOnce(t *testing.T) {
	_, g := build(t, `
program t;
var i: integer;
begin
  repeat i := i + 1 until i > 3;
end.`, "")
	// Entry must reach the body without passing the condition first:
	// entry -> first(empty) -> assign -> cond.
	n := g.Entry.Succs[0]
	steps := 0
	for n.Kind != cfg.Cond && steps < 10 {
		n = n.Succs[0]
		steps++
	}
	if n.Kind != cfg.Cond {
		t.Fatal("condition unreachable")
	}
	if steps < 2 {
		t.Errorf("condition reached after %d steps; body should precede it", steps)
	}
}

func TestLocalGotoEdge(t *testing.T) {
	_, g := build(t, `
program t;
label 9;
var x: integer;
begin
  goto 9;
  x := 1;
  9: x := 2;
end.`, "")
	if len(g.EscapingGotos) != 0 {
		t.Errorf("local goto misclassified as escaping")
	}
	var gnode *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Stmt {
			if _, ok := n.Stmt.(*ast.GotoStmt); ok {
				gnode = n
			}
		}
	}
	if gnode == nil {
		t.Fatal("goto node missing")
	}
	if len(gnode.Succs) != 1 {
		t.Fatalf("goto succs = %d, want 1", len(gnode.Succs))
	}
	if gnode.Succs[0] == g.Exit {
		t.Error("local goto wired to exit")
	}
	// x := 1 must be unreachable.
	reach := g.Reachable()
	for _, n := range g.Nodes {
		if n.Kind != cfg.Stmt {
			continue
		}
		if as, ok := n.Stmt.(*ast.AssignStmt); ok {
			if lit, ok := as.Rhs.(*ast.IntLit); ok && lit.Value == 1 {
				if reach[n.ID] {
					t.Error("statement after unconditional goto is reachable")
				}
			}
		}
	}
}

func TestEscapingGoto(t *testing.T) {
	info, _ := build(t, paper.GlobalGoto, "")
	q := info.LookupRoutine("q")
	g := cfg.Build(info, q)
	if len(g.EscapingGotos) != 1 {
		t.Fatalf("escaping gotos in q = %d, want 1", len(g.EscapingGotos))
	}
	// The escaping goto must be wired to exit.
	gn := g.NodeOf[g.EscapingGotos[0]]
	if gn == nil || len(gn.Succs) != 1 || gn.Succs[0] != g.Exit {
		t.Error("escaping goto not wired to exit")
	}
}

func TestBackwardGotoLoop(t *testing.T) {
	_, g := build(t, `
program t;
label 1;
var i: integer;
begin
  i := 0;
  1: i := i + 1;
  if i < 3 then goto 1;
end.`, "")
	// There must be a cycle: the goto node's successor appears earlier.
	var gnode *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Stmt {
			if _, ok := n.Stmt.(*ast.GotoStmt); ok {
				gnode = n
			}
		}
	}
	if gnode == nil || len(gnode.Succs) != 1 {
		t.Fatal("goto node malformed")
	}
	if gnode.Succs[0].ID >= gnode.ID {
		t.Error("backward goto does not point backward")
	}
}

func TestCaseBranches(t *testing.T) {
	_, g := build(t, `
program t;
var x, y: integer;
begin
  case x of
    1: y := 1;
    2: y := 2;
  else y := 0;
  end;
end.`, "")
	var cond *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
	}
	if cond == nil {
		t.Fatal("no selector node")
	}
	if len(cond.Succs) != 3 {
		t.Errorf("selector succs = %d, want 3 (two arms + else)", len(cond.Succs))
	}
}

func TestBuildAllRoutines(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	graphs := cfg.BuildAll(info)
	if len(graphs) != len(info.Routines) {
		t.Fatalf("graphs = %d, want %d", len(graphs), len(info.Routines))
	}
	for r, g := range graphs {
		reach := g.Reachable()
		if !reach[g.Exit.ID] {
			t.Errorf("%s: exit unreachable", r.Name)
		}
	}
}
