package sem_test

import (
	"testing"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/types"
)

// resolveSrc has every kind of resolution: variable uses, a
// parameterless function call, user calls in expression and statement
// position, and builtin calls in both positions.
const resolveSrc = `
program r;
var x, y: integer;

function seven: integer;
begin
  seven := 7;
end;

function twice(n: integer): integer;
begin
  twice := n + n;
end;

procedure show(n: integer);
begin
  writeln(n);
end;

begin
  x := seven;
  y := twice(abs(x));
  show(y);
end.`

// resolution is what an Info says about one expression or call node.
type resolution struct {
	use     sem.Symbol
	call    *sem.Routine
	builtin *sem.Builtin
	typ     types.Type
}

func resolveNode(info *sem.Info, n ast.Node) resolution {
	r := resolution{call: info.CallOf(n), builtin: info.BuiltinOf(n)}
	if id, ok := n.(*ast.Ident); ok {
		r.use = info.UseOf(id)
	}
	if e, ok := n.(ast.Expr); ok {
		r.typ = info.TypeOf(e)
	}
	return r
}

// resolveAll resolves every expression and CallStmt of prog.
func resolveAll(info *sem.Info, prog *ast.Program) map[ast.Node]resolution {
	out := make(map[ast.Node]resolution)
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Expr, *ast.CallStmt:
			out[n] = resolveNode(info, n)
		}
		return true
	})
	return out
}

func sameType(a, b types.Type) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Equal(b))
}

func symName(s sem.Symbol) string {
	if s == nil {
		return ""
	}
	return s.SymName()
}

func mustAnalyze(t *testing.T, prog *ast.Program) *sem.Info {
	t.Helper()
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

// TestOneResolutionPerNode pins that a node resolves to at most one of
// a use, a user routine and a builtin, and that UseOf answers only for
// variables and constants: a parameterless function call is a call,
// while an assignment to the function's name uses its result variable.
func TestOneResolutionPerNode(t *testing.T) {
	prog := parser.MustParse("r.pas", resolveSrc)
	info := mustAnalyze(t, prog)
	for n, r := range resolveAll(info, prog) {
		if (r.use != nil && r.call != nil) || (r.use != nil && r.builtin != nil) || (r.call != nil && r.builtin != nil) {
			t.Errorf("%T %v resolves as %+v, want at most one resolution", n, n.Pos(), r)
		}
	}

	seven := info.LookupRoutine("seven")
	var call, target *ast.Ident
	var abs *ast.CallExpr
	var show *ast.CallStmt
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if id, ok := n.Rhs.(*ast.Ident); ok && id.Name == "seven" {
				call = id
			}
			if id, ok := n.Lhs.(*ast.Ident); ok && id.Name == "seven" {
				target = id
			}
		case *ast.CallExpr:
			if n.Name == "abs" {
				abs = n
			}
		case *ast.CallStmt:
			if n.Name == "show" {
				show = n
			}
		}
		return true
	})
	if call == nil || target == nil || abs == nil || show == nil {
		t.Fatal("resolveSrc lacks one of the nodes under test")
	}
	if got := resolveNode(info, call); got.use != nil || got.call != seven || got.typ != types.Integer {
		t.Errorf("parameterless call seven resolves as %+v, want a call of seven typed integer", got)
	}
	if got := resolveNode(info, target); got.use != seven.Result || got.call != nil {
		t.Errorf("assignment target seven resolves as %+v, want its result variable", got)
	}
	if got := resolveNode(info, abs); got.builtin == nil || got.builtin.Name != "abs" || got.call != nil {
		t.Errorf("abs(x) resolves as %+v, want the builtin abs", got)
	}
	if got := info.CallOf(show); got == nil || got.Name != "show" {
		t.Errorf("show(y) calls %v, want show", got)
	}
}

// TestReanalysisKeepsEarlierInfo pins that UIDs are never reassigned:
// analyzing an AST again, even after adding nodes, leaves an earlier
// Info resolving every old node exactly as before and not seeing the
// new ones.
func TestReanalysisKeepsEarlierInfo(t *testing.T) {
	prog := parser.MustParse("r.pas", resolveSrc)
	first := mustAnalyze(t, prog)
	before := resolveAll(first, prog)
	var uses, calls, builtins, typed int
	for _, r := range before {
		if r.use != nil {
			uses++
		}
		if r.call != nil {
			calls++
		}
		if r.builtin != nil {
			builtins++
		}
		if r.typ != nil {
			typed++
		}
	}
	if uses == 0 || calls < 3 || builtins < 2 || typed < uses {
		t.Fatalf("resolved %d uses, %d calls, %d builtins, %d typed expressions; want some of each", uses, calls, builtins, typed)
	}

	// Add a call ahead of every other node, so renumbering the whole
	// tree would shift every UID.
	uids := prog.UIDs
	arg := &ast.Ident{Name: "x"}
	added := &ast.CallStmt{Name: "writeln", Args: []ast.Expr{arg}}
	body := prog.Block.Routines[0].Block.Body
	body.Stmts = append([]ast.Stmt{added}, body.Stmts...)
	second := mustAnalyze(t, prog)
	if prog.UIDs != uids+2 {
		t.Errorf("program counter = %d after adding 2 nodes, want %d", prog.UIDs, uids+2)
	}

	for n, want := range before {
		if got := resolveNode(first, n); got != want {
			t.Errorf("first Info resolves %T %v as %+v after re-analysis, want %+v", n, n.Pos(), got, want)
		}
		got := resolveNode(second, n)
		if symName(got.use) != symName(want.use) || (got.call == nil) != (want.call == nil) ||
			(got.call != nil && got.call.Name != want.call.Name) || got.builtin != want.builtin ||
			!sameType(got.typ, want.typ) {
			t.Errorf("second Info resolves %T %v as %+v, want %+v", n, n.Pos(), got, want)
		}
	}
	if got := resolveNode(first, added); got != (resolution{}) {
		t.Errorf("first Info resolves a call added after it: %+v", got)
	}
	if got := resolveNode(first, arg); got != (resolution{}) {
		t.Errorf("first Info resolves an identifier added after it: %+v", got)
	}
	if second.BuiltinOf(added) == nil || second.UseOf(arg) == nil || second.TypeOf(arg) != types.Integer {
		t.Error("second Info does not resolve the added call")
	}
}

// TestForeignNodesReadUnresolved pins that an Info answers only for the
// nodes it resolved: a node of another program carrying the same UID,
// an unnumbered clone and a node no analysis has seen read as
// unresolved and untyped.
func TestForeignNodesReadUnresolved(t *testing.T) {
	progA := parser.MustParse("a.pas", resolveSrc)
	infoA := mustAnalyze(t, progA)
	progB := parser.MustParse("b.pas", resolveSrc)
	infoB := mustAnalyze(t, progB)
	if progA.UIDs != progB.UIDs {
		t.Fatalf("identical sources numbered %d and %d nodes", progA.UIDs, progB.UIDs)
	}

	var idents, stmts, binaries int
	for n, r := range resolveAll(infoB, progB) {
		switch n := n.(type) {
		case *ast.Ident:
			if r.use != nil && n.UID > 0 && n.UID <= progA.UIDs {
				idents++
			}
		case *ast.CallStmt:
			if (r.call != nil || r.builtin != nil) && n.UID > 0 && n.UID <= progA.UIDs {
				stmts++
			}
		case *ast.BinaryExpr:
			if r.typ != nil && n.UID > 0 && n.UID <= progA.UIDs {
				binaries++
			}
		}
		if got := resolveNode(infoA, n); got != (resolution{}) {
			t.Errorf("%T %v of another program resolves as %+v", n, n.Pos(), got)
		}
	}
	if idents == 0 || stmts < 2 || binaries == 0 {
		t.Fatalf("checked %d identifiers, %d call statements and %d binary expressions inside the table; want all three",
			idents, stmts, binaries)
	}

	clone, _ := ast.Clone(progA)
	for n, got := range resolveAll(infoA, clone) {
		if got != (resolution{}) {
			t.Errorf("clone of %T %v resolves as %+v", n, n.Pos(), got)
		}
	}
	// Slot 0 stays empty: a node no analysis numbered reads no type.
	if got := infoA.TypeOf(&ast.IntLit{}); got != nil {
		t.Errorf("an unnumbered literal reads type %s", got)
	}
}
