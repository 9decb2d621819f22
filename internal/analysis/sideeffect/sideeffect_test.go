package sideeffect_test

import (
	"fmt"
	"strings"
	"testing"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func analyze(t *testing.T, src string) (*sem.Info, *sideeffect.Result) {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	cg := callgraph.Build(info)
	return info, sideeffect.Analyze(info, cg)
}

func names(vs []*sem.VarSym) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

func TestDirectGlobalEffects(t *testing.T) {
	info, res := analyze(t, paper.GlobalSideEffects)
	p := info.LookupRoutine("p")
	e := res.Of[p]
	if got := names(e.SortedMod()); len(got) != 1 || got[0] != "z" {
		t.Errorf("MOD(p) = %v, want [z]", got)
	}
	if got := names(e.SortedRef()); len(got) != 1 || got[0] != "x" {
		t.Errorf("REF(p) = %v, want [x]", got)
	}
	if !e.HasGlobalEffects() {
		t.Error("p must have global effects")
	}
}

func TestTransitiveGlobalEffects(t *testing.T) {
	info, res := analyze(t, `
program t;
var g, h: integer;

procedure leaf;
begin
  g := h + 1;
end;

procedure mid;
begin
  leaf;
end;

procedure top;
begin
  mid;
end;

begin
  top;
  writeln(g);
end.`)
	for _, name := range []string{"leaf", "mid", "top"} {
		e := res.Of[info.LookupRoutine(name)]
		if got := names(e.SortedMod()); len(got) != 1 || got[0] != "g" {
			t.Errorf("MOD(%s) = %v, want [g]", name, got)
		}
		if got := names(e.SortedRef()); len(got) != 1 || got[0] != "h" {
			t.Errorf("REF(%s) = %v, want [h]", name, got)
		}
	}
	// The program block itself modifies g only locally: g is Main's own
	// local, so Main has no *global* effects.
	if res.Of[info.Main].HasGlobalEffects() {
		t.Error("program block must have no global effects")
	}
}

func TestVarParamBindingPropagation(t *testing.T) {
	info, res := analyze(t, `
program t;
var g: integer;

procedure setit(var x: integer);
begin
  x := 1;
end;

procedure viaglobal;
begin
  setit(g);
end;

procedure viaparam(var y: integer);
begin
  setit(y);
end;

begin
  viaglobal;
  viaparam(g);
end.`)
	setit := res.Of[info.LookupRoutine("setit")]
	if setit.ModFormals.Len() != 1 {
		t.Errorf("MODF(setit) = %v, want {x}", names(setit.ModFormals.Slice()))
	}
	if setit.ModGlobals.Len() != 0 {
		t.Errorf("MODG(setit) = %v, want empty", names(setit.ModGlobals.Slice()))
	}
	via := res.Of[info.LookupRoutine("viaglobal")]
	if got := names(via.SortedMod()); len(got) != 1 || got[0] != "g" {
		t.Errorf("MOD(viaglobal) = %v, want [g]: binding a global to a modified var formal", got)
	}
	vp := res.Of[info.LookupRoutine("viaparam")]
	if vp.ModFormals.Len() != 1 {
		t.Errorf("MODF(viaparam) = %v, want {y}: modification flows through formal chain", names(vp.ModFormals.Slice()))
	}
	if vp.ModGlobals.Len() != 0 {
		t.Errorf("MODG(viaparam) = %v, want empty", names(vp.ModGlobals.Slice()))
	}
}

func TestRefThroughVarParam(t *testing.T) {
	info, res := analyze(t, `
program t;
var g, out1: integer;

procedure getit(var x: integer; var r: integer);
begin
  r := x;
end;

procedure use;
begin
  getit(g, out1);
end;

begin
  use;
end.`)
	use := res.Of[info.LookupRoutine("use")]
	if got := names(use.SortedRef()); len(got) != 1 || got[0] != "g" {
		t.Errorf("REF(use) = %v, want [g]", got)
	}
	if got := names(use.SortedMod()); len(got) != 1 || got[0] != "out1" {
		t.Errorf("MOD(use) = %v, want [out1]", got)
	}
}

func TestRecursionFixpoint(t *testing.T) {
	info, res := analyze(t, `
program t;
var g: integer;

procedure a(n: integer);
  procedure b(m: integer);
  begin
    if m > 0 then a(m - 1);
    g := g + 1;
  end;
begin
  if n > 0 then b(n);
end;

begin
  a(3);
end.`)
	for _, name := range []string{"a", "b"} {
		e := res.Of[info.LookupRoutine(name)]
		if got := names(e.SortedMod()); len(got) != 1 || got[0] != "g" {
			t.Errorf("MOD(%s) = %v, want [g]", name, got)
		}
	}
}

func TestExitSideEffects(t *testing.T) {
	info, res := analyze(t, paper.GlobalGoto)
	q := res.Of[info.LookupRoutine("q")]
	exits := q.SortedExits()
	if len(exits) != 1 || exits[0].Name != "9" || exits[0].Routine.Name != "p" {
		t.Fatalf("EXIT(q) = %v, want label 9 in p", exits)
	}
	// p contains the label itself, so the jump is not an exit effect of p.
	p := res.Of[info.LookupRoutine("p")]
	if len(p.ExitTargets) != 0 {
		t.Errorf("EXIT(p) = %v, want empty (label 9 is local to p)", p.SortedExits())
	}
	// q also modifies the program-level v.
	if got := names(q.SortedMod()); len(got) != 1 || got[0] != "v" {
		t.Errorf("MOD(q) = %v, want [v]", got)
	}
}

func TestTransitiveExitEffect(t *testing.T) {
	info, res := analyze(t, `
program t;
label 5;
var v: integer;

procedure inner;
begin
  goto 5;
end;

procedure outer;
begin
  inner;
end;

begin
  outer;
  v := 1;
  5: writeln(v);
end.`)
	for _, name := range []string{"inner", "outer"} {
		e := res.Of[info.LookupRoutine(name)]
		exits := e.SortedExits()
		if len(exits) != 1 || exits[0].Name != "5" {
			t.Errorf("EXIT(%s) = %v, want label 5", name, exits)
		}
	}
	if len(res.Of[info.Main].ExitTargets) != 0 {
		t.Error("program block has exit effects but owns the label")
	}
}

func TestSqrtestHasNoGlobalEffects(t *testing.T) {
	// Every routine in Figure 4 communicates through parameters only.
	info, res := analyze(t, paper.Sqrtest)
	for _, r := range info.Routines {
		if r == info.Main {
			continue
		}
		if e := res.Of[r]; e.HasGlobalEffects() {
			t.Errorf("%s unexpectedly has global effects: MOD=%v REF=%v",
				r.Name, names(e.SortedMod()), names(e.SortedRef()))
		}
	}
}

func TestCallDefsUses(t *testing.T) {
	info, res := analyze(t, paper.PQR)
	cg := res.CG
	var qSite, rSite *callgraph.Site
	for _, s := range cg.Sites[info.LookupRoutine("p")] {
		switch s.Callee.Name {
		case "q":
			qSite = s
		case "r":
			rSite = s
		}
	}
	if qSite == nil || rSite == nil {
		t.Fatal("call sites in p not found")
	}
	if got := names(res.CallDefs(qSite.Node)); len(got) != 1 || got[0] != "b" {
		t.Errorf("CallDefs(q(a,b)) = %v, want [b]", got)
	}
	if got := names(res.CallDefs(rSite.Node)); len(got) != 1 || got[0] != "d" {
		t.Errorf("CallDefs(r(c,d)) = %v, want [d]", got)
	}
}

func TestValueParamNotModEffect(t *testing.T) {
	info, res := analyze(t, `
program t;
var g: integer;
procedure p(x: integer);
begin
  x := x + 1;
end;
begin
  g := 1;
  p(g);
end.`)
	p := res.Of[info.LookupRoutine("p")]
	if p.ModFormals.Len() != 0 || p.ModGlobals.Len() != 0 {
		t.Errorf("modifying a value formal leaked: MODF=%v MODG=%v", names(p.ModFormals.Slice()), names(p.ModGlobals.Slice()))
	}
}

// TestCallEffectsOrderIsStable pins the order of call effects: over
// repeated analyses of one program, CallDefs, CallUses and every
// Effects set list their variables in the same order, so a fixed input
// gives the analyses built on them one result.
func TestCallEffectsOrderIsStable(t *testing.T) {
	const src = `
program t;
var a, b, c, d, e: integer;

procedure touch;
begin
  a := b;
  c := d;
  e := a + c;
  b := e;
  d := 1;
end;

procedure outer(var x: integer);
begin
  touch;
  x := a + e;
end;

begin
  outer(b);
  touch;
end.`
	render := func() string {
		info, res := analyze(t, src)
		var sb strings.Builder
		for _, r := range info.Routines {
			e := res.Of[r]
			fmt.Fprintf(&sb, "%s: MODG %v REFG %v MODF %v REFF %v\n", r.Name,
				names(e.ModGlobals.Slice()), names(e.RefGlobals.Slice()),
				names(e.ModFormals.Slice()), names(e.RefFormals.Slice()))
		}
		ast.Inspect(info.Program, func(n ast.Node) bool {
			if cs, ok := n.(*ast.CallStmt); ok {
				fmt.Fprintf(&sb, "%s at %s: defs %v uses %v\n", cs.Name, cs.Pos(),
					names(res.CallDefs(cs)), names(res.CallUses(cs)))
			}
			return true
		})
		return sb.String()
	}
	first := render()
	if !strings.Contains(first, "touch at") || !strings.Contains(first, "defs [a c e b d]") {
		t.Fatalf("touch's call effects are not all listed:\n%s", first)
	}
	for i := 0; i < 50; i++ {
		if got := render(); got != first {
			t.Fatalf("analysis %d lists effects in another order:\n%s\nfirst:\n%s", i+2, got, first)
		}
	}
}

// TestSetsKeepVisitOrder pins the insertion order of the direct effect
// sets, which callers read through Slice: statements in source order,
// then before else, and a repeat loop's condition after its body, as
// it runs.
func TestSetsKeepVisitOrder(t *testing.T) {
	info, res := analyze(t, `program t;
var a, b, c: integer;
procedure p;
begin
  repeat
    b := c
  until a > b;
  if c > 0 then a := 1 else c := 2
end;
begin
  p
end.`)
	e := res.Of[info.LookupRoutine("p")]
	if got := strings.Join(names(e.RefGlobals.Slice()), ","); got != "c,a,b" {
		t.Errorf("REF(p) in visit order = %s, want c,a,b", got)
	}
	if got := strings.Join(names(e.ModGlobals.Slice()), ","); got != "b,a,c" {
		t.Errorf("MOD(p) in visit order = %s, want b,a,c", got)
	}
}
