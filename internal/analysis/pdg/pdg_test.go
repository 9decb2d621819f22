package pdg

import (
	"testing"

	"gadt/internal/analysis/cfg"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func buildCFG(t *testing.T, src, routine string) (*sem.Info, *cfg.Graph) {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := info.Main
	if routine != "" {
		r = info.LookupRoutine(routine)
	}
	return info, cfg.Build(info, r)
}

func TestPostDomStraightLine(t *testing.T) {
	_, g := buildCFG(t, `
program t;
var x: integer;
begin
  x := 1;
  x := 2;
end.`, "")
	ipdom := postDoms(g)
	// Every node's ipdom chain reaches Exit.
	for _, n := range g.Nodes {
		cur, ok := n, true
		for cur != g.Exit {
			cur, ok = ipdom[cur], true
			if !ok || cur == nil {
				t.Fatalf("node %v has no postdominator chain to exit", n)
			}
		}
	}
}

func TestPostDomDiamond(t *testing.T) {
	_, g := buildCFG(t, `
program t;
var x: integer;
begin
  if x > 0 then x := 1 else x := 2;
  x := 3;
end.`, "")
	ipdom := postDoms(g)
	var cond, join *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
		if n.Kind == cfg.Stmt {
			if as, ok := n.Stmt.(*ast.AssignStmt); ok {
				if lit, ok := as.Rhs.(*ast.IntLit); ok && lit.Value == 3 {
					join = n
				}
			}
		}
	}
	if cond == nil || join == nil {
		t.Fatal("nodes missing")
	}
	if ipdom[cond] != join {
		t.Errorf("ipdom(cond) = %v, want the join node", ipdom[cond])
	}
}

func TestControlDepsIf(t *testing.T) {
	_, g := buildCFG(t, `
program t;
var x, y: integer;
begin
  if x > 0 then
    y := 1
  else
    y := 2;
  y := 3;
end.`, "")
	cd := ControlDeps(g)
	var cond *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
	}
	for _, n := range g.Nodes {
		if n.Kind != cfg.Stmt {
			continue
		}
		as, ok := n.Stmt.(*ast.AssignStmt)
		if !ok {
			continue
		}
		lit := as.Rhs.(*ast.IntLit)
		deps := cd[n]
		switch lit.Value {
		case 1, 2:
			if len(deps) != 1 || deps[0] != cond {
				t.Errorf("y := %d control deps = %v, want the condition", lit.Value, deps)
			}
		case 3:
			if len(deps) != 1 || deps[0] != g.Entry {
				t.Errorf("y := 3 control deps = %v, want entry", deps)
			}
		}
	}
}

func TestControlDepsWhileBody(t *testing.T) {
	_, g := buildCFG(t, `
program t;
var i: integer;
begin
  while i < 3 do
    i := i + 1;
end.`, "")
	cd := ControlDeps(g)
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
	deps := cd[body]
	if len(deps) != 1 || deps[0] != cond {
		t.Errorf("loop body control deps = %v, want the loop condition", deps)
	}
}

func TestSDGNodeKinds(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := Build(info)
	counts := map[NodeKind]int{}
	for _, n := range s.Nodes {
		counts[n.Kind]++
	}
	if counts[EntryKind] != len(info.Routines) {
		t.Errorf("entry nodes = %d, want %d", counts[EntryKind], len(info.Routines))
	}
	if counts[FormalIn] == 0 || counts[FormalOut] == 0 || counts[ActualIn] == 0 || counts[ActualOut] == 0 {
		t.Errorf("parameter nodes missing: %v", counts)
	}
	// Every actual-in has a param-in edge to a formal-in.
	linked := map[*Node]bool{}
	for _, n := range s.Nodes {
		for _, e := range s.Preds(n) {
			if e.Kind == ParamIn && e.To.Kind == FormalIn {
				linked[e.From] = true
			}
		}
	}
	for _, n := range s.Nodes {
		if n.Kind == ActualIn && !linked[n] {
			t.Errorf("actual-in %v lacks param-in edge", n)
		}
	}
}

func TestSummaryEdgesExist(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := Build(info)
	summaries := 0
	for _, n := range s.Nodes {
		for _, e := range s.Preds(n) {
			if e.Kind == Summary {
				summaries++
				if e.From.Kind != ActualIn || e.To.Kind != ActualOut {
					t.Errorf("summary edge between %v and %v", e.From.Kind, e.To.Kind)
				}
				if e.From.Site != e.To.Site {
					t.Error("summary edge crosses call sites")
				}
			}
		}
	}
	if summaries == 0 {
		t.Error("no summary edges computed")
	}
}

func TestSummaryEdgesRecursive(t *testing.T) {
	prog := parser.MustParse("t.pas", `
program t;
var x: integer;
function fact(n: integer): integer;
begin
  if n <= 1 then fact := 1 else fact := n * fact(n - 1);
end;
begin
  x := fact(4);
  writeln(x);
end.`)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := Build(info)
	// fact's result must (transitively) depend on its formal n, creating
	// a summary edge at both call sites.
	summaries := 0
	for _, n := range s.Nodes {
		for _, e := range s.Preds(n) {
			if e.Kind == Summary {
				summaries++
			}
		}
	}
	if summaries < 2 {
		t.Errorf("summary edges = %d, want >= 2 (outer call + recursive call)", summaries)
	}
}

func TestEdgeDedup(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.SliceExample)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := Build(info)
	type key struct {
		from, to *Node
		kind     EdgeKind
	}
	seen := map[key]bool{}
	for _, n := range s.Nodes {
		for _, e := range s.Preds(n) {
			k := key{e.From, e.To, e.Kind}
			if seen[k] {
				t.Fatalf("duplicate edge %v -> %v (%v)", e.From, e.To, e.Kind)
			}
			seen[k] = true
		}
	}
}

// TestPredsListIncomingEdges: every edge sits in the predecessor list
// of its target.
func TestPredsListIncomingEdges(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := Build(info)
	edges := 0
	for _, n := range s.Nodes {
		for _, e := range s.Preds(n) {
			if e.To != n {
				t.Errorf("edge %v -> %v listed among the predecessors of %v", e.From, e.To, n)
			}
		}
		edges += len(s.Preds(n))
	}
	if edges == 0 {
		t.Error("no edges")
	}
}

// TestPostDomUnreachableBlock: a goto jumps over a block, leaving nodes
// that cannot reach Exit forwards but are still in Nodes. Reachable
// nodes must keep a postdominator chain to Exit; the analysis must not
// loop or panic on the dead region.
func TestPostDomUnreachableBlock(t *testing.T) {
	_, g := buildCFG(t, `
program t;
label 10;
var x: integer;
begin
  goto 10;
  x := 99;
  10: x := 1;
end.`, "")
	ipdom := postDoms(g)
	reach := g.Reachable()
	for _, n := range g.Nodes {
		if !reach[n.ID] || n == g.Exit {
			continue
		}
		cur := n
		for steps := 0; cur != g.Exit; steps++ {
			next, ok := ipdom[cur]
			if !ok || next == nil || steps > len(g.Nodes) {
				t.Fatalf("reachable node n%d has no postdominator chain to exit", n.ID)
			}
			cur = next
		}
	}
	if deps := ControlDeps(g); len(deps) == 0 {
		t.Fatal("no control dependences computed")
	}
}

// TestPostDomMultiExit: an escaping goto gives the routine two edges
// into Exit. The branch condition's immediate postdominator is then
// Exit itself, and both arms are control-dependent on the condition.
func TestPostDomMultiExit(t *testing.T) {
	_, g := buildCFG(t, `
program t;
label 99;
procedure p(n: integer);
begin
  if n < 0 then
    goto 99;
  writeln(n);
end;
begin
  p(3);
  99: writeln(0);
end.`, "p")
	if len(g.EscapingGotos) != 1 {
		t.Fatalf("want 1 escaping goto, got %d", len(g.EscapingGotos))
	}
	ipdom := postDoms(g)
	var cond *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
	}
	if cond == nil {
		t.Fatal("condition node missing")
	}
	if ipdom[cond] != g.Exit {
		t.Errorf("ipdom(cond) = %v, want Exit: neither arm rejoins before the routine ends", ipdom[cond])
	}
	deps := ControlDeps(g)
	for _, n := range g.Nodes {
		if n.Kind != cfg.Stmt {
			continue
		}
		found := false
		for _, d := range deps[n] {
			if d == cond {
				found = true
			}
		}
		if !found {
			t.Errorf("node n%d (%v) not control-dependent on the branch", n.ID, n.Stmt)
		}
	}
}

// TestPostDomSelfLoop: a goto targeting its own label is a self-loop
// that never reaches Exit. postDoms must terminate, leave the trapped
// node without an ipdom entry, and ControlDeps must still attribute the
// loop entry to the guarding condition.
func TestPostDomSelfLoop(t *testing.T) {
	_, g := buildCFG(t, `
program t;
label 10;
var x: integer;
begin
  x := 1;
  if x > 5 then
    10: goto 10;
  writeln(x);
end.`, "")
	ipdom := postDoms(g)
	var cond *cfg.Node
	var cycle []*cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
		// The trapped cycle is a self-edge or the two-node join<->goto
		// loop the labeled goto expands to.
		for _, s := range n.Succs {
			if s == n {
				cycle = append(cycle, n)
				continue
			}
			for _, s2 := range s.Succs {
				if s2 == n && n != g.Exit {
					cycle = append(cycle, n)
				}
			}
		}
	}
	if len(cycle) == 0 || cond == nil {
		t.Fatal("self-loop or condition node missing")
	}
	deps := ControlDeps(g)
	found := false
	for _, n := range cycle {
		if _, ok := ipdom[n]; ok {
			t.Errorf("trapped node n%d should have no postdominator (it never reaches Exit)", n.ID)
		}
		for _, d := range deps[n] {
			if d == cond {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no node of the trapped cycle is control-dependent on its guard")
	}
}

// TestPostDomPrunedGraph drives postDoms and ControlDeps over a graph
// mutated exactly the way pruneInfeasible does: a branch edge removed
// and the orphaned arm disconnected. The surviving nodes must keep
// postdominator chains and the one-armed condition must control
// nothing.
func TestPostDomPrunedGraph(t *testing.T) {
	_, g := buildCFG(t, `
program t;
var x: integer;
begin
  x := 0;
  if x > 0 then
    x := 1
  else
    x := 2;
  writeln(x);
end.`, "")
	var cond, thenN *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Cond {
			cond = n
		}
		if n.Kind == cfg.Stmt {
			if as, ok := n.Stmt.(*ast.AssignStmt); ok {
				if lit, ok := as.Rhs.(*ast.IntLit); ok && lit.Value == 1 {
					thenN = n
				}
			}
		}
	}
	if cond == nil || thenN == nil {
		t.Fatal("nodes missing")
	}
	g.RemoveEdge(cond, thenN)
	g.Disconnect(thenN)

	ipdom := postDoms(g)
	reach := g.Reachable()
	for _, n := range g.Nodes {
		if !reach[n.ID] || n == g.Exit {
			continue
		}
		cur := n
		for steps := 0; cur != g.Exit; steps++ {
			next, ok := ipdom[cur]
			if !ok || next == nil || steps > len(g.Nodes) {
				t.Fatalf("node n%d lost its postdominator chain after pruning", n.ID)
			}
			cur = next
		}
	}
	deps := ControlDeps(g)
	for n, ds := range deps {
		for _, d := range ds {
			if d == cond {
				t.Errorf("node n%d still control-dependent on the one-armed condition", n.ID)
			}
		}
	}
}
