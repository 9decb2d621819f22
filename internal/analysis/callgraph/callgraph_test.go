package callgraph_test

import (
	"testing"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/paper"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func build(t *testing.T, src string) (*sem.Info, *callgraph.Graph) {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info, callgraph.Build(info)
}

func TestSqrtestEdges(t *testing.T) {
	info, g := build(t, paper.Sqrtest)
	want := map[string][]string{
		"main":        {"sqrtest"},
		"sqrtest":     {"arrsum", "computs", "test"},
		"computs":     {"comput1", "comput2"},
		"comput1":     {"partialsums", "add"},
		"partialsums": {"sum1", "sum2"},
		"sum1":        {"increment"},
		"sum2":        {"decrement"},
		"comput2":     {"square"},
		"decrement":   {},
		"test":        {},
	}
	for name, callees := range want {
		r := info.LookupRoutine(name)
		if name == "main" {
			r = info.Main
		}
		got := g.Callees[r]
		if len(got) != len(callees) {
			t.Errorf("%s callees = %v, want %v", name, names(got), callees)
			continue
		}
		for i, c := range callees {
			if got[i].Name != c {
				t.Errorf("%s callee %d = %s, want %s", name, i, got[i].Name, c)
			}
		}
	}
	// Callers inverse relation.
	dec := info.LookupRoutine("decrement")
	if len(g.Callers[dec]) != 1 || g.Callers[dec][0].Name != "sum2" {
		t.Errorf("callers(decrement) = %v", names(g.Callers[dec]))
	}
}

func names(rs []*sem.Routine) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

func TestSitesRecorded(t *testing.T) {
	info, g := build(t, paper.Sqrtest)
	sum2 := info.LookupRoutine("sum2")
	sites := g.Sites[sum2]
	if len(sites) != 1 || sites[0].Callee.Name != "decrement" {
		t.Fatalf("sites(sum2) = %v", sites)
	}
	if len(sites[0].Args) != 1 {
		t.Errorf("decrement call args = %d, want 1", len(sites[0].Args))
	}
}

func TestPostOrderCalleesFirst(t *testing.T) {
	info, g := build(t, paper.Sqrtest)
	order := g.PostOrder(info.Main)
	pos := map[string]int{}
	for i, r := range order {
		pos[r.Name] = i
	}
	if len(order) != len(info.Routines) {
		t.Fatalf("order covers %d of %d routines", len(order), len(info.Routines))
	}
	for caller, callees := range g.Callees {
		for _, callee := range callees {
			if pos[callee.Name] > pos[caller.Name] {
				t.Errorf("callee %s after caller %s in post-order", callee.Name, caller.Name)
			}
		}
	}
}

func TestParameterlessFunctionCallSite(t *testing.T) {
	info, g := build(t, `
program t;
var x: integer;
function five: integer;
begin
  five := 5;
end;
begin
  x := five;
end.`)
	five := info.LookupRoutine("five")
	if len(g.Callers[five]) != 1 {
		t.Fatalf("callers(five) = %v (ident-style call missed)", names(g.Callers[five]))
	}
}

func TestUnreachableRoutineInPostOrder(t *testing.T) {
	info, g := build(t, `
program t;
procedure unused;
begin
end;
begin
end.`)
	order := g.PostOrder(info.Main)
	found := false
	for _, r := range order {
		if r.Name == "unused" {
			found = true
		}
	}
	if !found {
		t.Error("unreachable routine missing from post-order")
	}
}
