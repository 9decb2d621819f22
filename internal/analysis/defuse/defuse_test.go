package defuse_test

import (
	"fmt"
	"sort"
	"testing"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/defuse"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func setup(t *testing.T, src string) (*sem.Info, *sideeffect.Result) {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info, sideeffect.Analyze(info, callgraph.Build(info))
}

func names(s *defuse.Set) []string {
	var out []string
	for _, v := range s.Slice() {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

func firstAssign(info *sem.Info) *ast.AssignStmt {
	var out *ast.AssignStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && out == nil {
			out = as
		}
		return true
	})
	return out
}

func eq(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s = %v, want %v", what, got, want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s = %v, want %v", what, got, want)
			return
		}
	}
}

func TestAssignWholeVar(t *testing.T) {
	info, _ := setup(t, `program t; var x, y, z: integer; begin x := y + z; end.`)
	defs, uses := defuse.NewSet(), defuse.NewSet()
	defuse.Assign(info, firstAssign(info), nil, defs, uses)
	eq(t, names(defs), []string{"x"}, "defs")
	eq(t, names(uses), []string{"y", "z"}, "uses")
}

func TestAssignArrayElementIsPartial(t *testing.T) {
	info, _ := setup(t, `
program t;
type arr = array [1 .. 3] of integer;
var a: arr; i, v: integer;
begin
  a[i] := v;
end.`)
	defs, uses := defuse.NewSet(), defuse.NewSet()
	defuse.Assign(info, firstAssign(info), nil, defs, uses)
	eq(t, names(defs), []string{"a"}, "defs")
	// Partial update: uses the index, the value, and the old array.
	eq(t, names(uses), []string{"a", "i", "v"}, "uses")
}

func TestReadBuiltin(t *testing.T) {
	info, _ := setup(t, `program t; var x, y: integer; begin read(x, y); end.`)
	var call *ast.CallStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if cs, ok := n.(*ast.CallStmt); ok {
			call = cs
		}
		return true
	})
	defs, uses := defuse.NewSet(), defuse.NewSet()
	defuse.CallStmt(info, call, nil, defs, uses)
	eq(t, names(defs), []string{"x", "y"}, "defs")
	eq(t, names(uses), nil, "uses")
}

func TestWriteBuiltin(t *testing.T) {
	info, _ := setup(t, `program t; var x: integer; begin writeln(x + 1); end.`)
	var call *ast.CallStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if cs, ok := n.(*ast.CallStmt); ok {
			call = cs
		}
		return true
	})
	defs, uses := defuse.NewSet(), defuse.NewSet()
	defuse.CallStmt(info, call, nil, defs, uses)
	eq(t, names(defs), nil, "defs")
	eq(t, names(uses), []string{"x"}, "uses")
}

func TestCallWithResolver(t *testing.T) {
	info, se := setup(t, `
program t;
var g, x, out1: integer;

procedure p(a: integer; var r: integer);
begin
  r := a + g;
end;

begin
  g := 1;
  x := 2;
  p(x, out1);
end.`)
	var call *ast.CallStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if cs, ok := n.(*ast.CallStmt); ok && cs.Name == "p" {
			call = cs
		}
		return true
	})
	defs, uses := defuse.NewSet(), defuse.NewSet()
	defuse.CallStmt(info, call, se, defs, uses)
	eq(t, names(defs), []string{"out1"}, "defs")
	// x from the value argument, g from the callee's REF set; out1's
	// formal r is written before read, so r ∉ RefFormals.
	eq(t, names(uses), []string{"g", "x"}, "uses")
}

func TestCallWithoutResolverSyntacticOnly(t *testing.T) {
	info, _ := setup(t, `
program t;
var x, out1: integer;
procedure p(a: integer; var r: integer);
begin
  r := a;
end;
begin
  p(x + 1, out1);
end.`)
	var call *ast.CallStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if cs, ok := n.(*ast.CallStmt); ok && cs.Name == "p" {
			call = cs
		}
		return true
	})
	defs, uses := defuse.NewSet(), defuse.NewSet()
	defuse.CallStmt(info, call, nil, defs, uses)
	eq(t, names(defs), nil, "defs (no resolver)")
	eq(t, names(uses), []string{"x"}, "uses (value arg only)")
}

func TestVarArgIndexUses(t *testing.T) {
	info, se := setup(t, `
program t;
type arr = array [1 .. 3] of integer;
var a: arr; i: integer;
procedure p(var r: integer);
begin
  r := 1;
end;
begin
  i := 2;
  p(a[i]);
end.`)
	var call *ast.CallStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if cs, ok := n.(*ast.CallStmt); ok && cs.Name == "p" {
			call = cs
		}
		return true
	})
	defs, uses := defuse.NewSet(), defuse.NewSet()
	defuse.CallStmt(info, call, se, defs, uses)
	eq(t, names(defs), []string{"a"}, "defs (element var-arg defines base)")
	eq(t, names(uses), []string{"i"}, "uses (index expression)")
}

func TestExprUsesShallowSkipsCallArgs(t *testing.T) {
	info, _ := setup(t, `
program t;
var x, y: integer;
function f(a: integer): integer;
begin
  f := a;
end;
begin
  y := x + f(y);
end.`)
	as := firstAssign(info) // inside f: f := a ... careful: first assign is f := a
	_ = as
	var target *ast.AssignStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if a, ok := n.(*ast.AssignStmt); ok {
			if id, ok := a.Lhs.(*ast.Ident); ok && id.Name == "y" {
				target = a
			}
		}
		return true
	})
	uses := defuse.NewSet()
	defuse.ExprUsesShallow(info, target.Rhs, uses)
	eq(t, names(uses), []string{"x"}, "shallow uses (f's args skipped)")
}

func TestSetOps(t *testing.T) {
	info, _ := setup(t, `program t; var x: integer; begin x := 1; end.`)
	v := info.Main.Locals[0]
	s := defuse.NewSet()
	s.Add(v)
	s.Add(v)   // dedup
	s.Add(nil) // ignored
	if s.Len() != 1 || !s.Has(v) {
		t.Errorf("set = %v", names(s))
	}
	s2 := defuse.NewSet()
	s2.AddAll(s.Slice())
	if s2.Len() != 1 {
		t.Error("AddAll")
	}
}

// TestSetPastSmall grows a set past the size at which it switches from
// scanning to bits, empties it and refills it: membership and order must
// hold throughout.
func TestSetPastSmall(t *testing.T) {
	vars := make([]*sem.VarSym, 40)
	for i := range vars {
		vars[i] = &sem.VarSym{Name: fmt.Sprint("v", i), ID: (i * 7) % len(vars)}
	}
	var s defuse.Set
	for round, n := range []int{40, 3, 17, 16} {
		s.Reset()
		for i := 0; i < n; i++ {
			if !s.Add(vars[i]) || s.Add(vars[i]) {
				t.Fatalf("round %d: Add(%s) did not report the first insertion only", round, vars[i].Name)
			}
		}
		if s.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), n)
		}
		for i, v := range vars {
			if s.Has(v) != (i < n) {
				t.Fatalf("round %d: Has(%s) = %v with %d elements", round, v.Name, s.Has(v), n)
			}
		}
		for i, v := range s.Slice() {
			if v != vars[i] {
				t.Fatalf("round %d: element %d is %s, want insertion order", round, i, v.Name)
			}
		}
	}
}
