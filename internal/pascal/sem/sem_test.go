package sem_test

import (
	"strings"
	"testing"

	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/types"
)

func analyze(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog, err := parser.ParseProgram("test.pas", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

func TestAnalyzePaperPrograms(t *testing.T) {
	for name, src := range map[string]string{
		"sqrtest":      paper.Sqrtest,
		"sqrtestFixed": paper.SqrtestFixed,
		"sliceExample": paper.SliceExample,
		"pqr":          paper.PQR,
		"globals":      paper.GlobalSideEffects,
		"globalGoto":   paper.GlobalGoto,
		"loopGoto":     paper.LoopGoto,
		"arrsum":       paper.ArrsumProgram,
	} {
		t.Run(name, func(t *testing.T) {
			analyze(t, src)
		})
	}
}

func TestSqrtestSymbols(t *testing.T) {
	info := analyze(t, paper.Sqrtest)
	if info.Main.Name != "main" {
		t.Errorf("main routine name = %q, want main", info.Main.Name)
	}
	// 13 routines declared in the program plus the program block.
	if got, want := len(info.Routines), 14; got != want {
		t.Errorf("routine count = %d, want %d", got, want)
	}
	dec := info.LookupRoutine("decrement")
	if dec == nil {
		t.Fatal("decrement not found")
	}
	if dec.Kind != ast.FuncKind {
		t.Errorf("decrement kind = %v, want function", dec.Kind)
	}
	if dec.Result == nil || !dec.Result.Type.Equal(types.Integer) {
		t.Errorf("decrement result = %v, want integer", dec.Result)
	}
	if len(dec.Params) != 1 || dec.Params[0].Name != "y" {
		t.Errorf("decrement params = %v", dec.Params)
	}
	sq := info.LookupRoutine("sqrtest")
	if sq == nil {
		t.Fatal("sqrtest not found")
	}
	if len(sq.Params) != 3 {
		t.Fatalf("sqrtest params = %d, want 3", len(sq.Params))
	}
	if sq.Params[2].Mode != ast.VarMode {
		t.Errorf("sqrtest isok param mode = %v, want var", sq.Params[2].Mode)
	}
	if len(sq.Locals) != 3 {
		t.Errorf("sqrtest locals = %d, want 3 (r1, r2, t)", len(sq.Locals))
	}
}

func TestNestingLevels(t *testing.T) {
	info := analyze(t, paper.GlobalGoto)
	p := info.LookupRoutine("p")
	q := info.LookupRoutine("q")
	if p == nil || q == nil {
		t.Fatal("p or q not found")
	}
	if p.Level != 1 || q.Level != 2 {
		t.Errorf("levels p=%d q=%d, want 1 and 2", p.Level, q.Level)
	}
	if q.Parent != p {
		t.Errorf("q.Parent = %v, want p", q.Parent)
	}
}

func TestGotoResolution(t *testing.T) {
	info := analyze(t, paper.GlobalGoto)
	var gotos []*ast.GotoStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if g, ok := n.(*ast.GotoStmt); ok {
			gotos = append(gotos, g)
		}
		return true
	})
	if len(gotos) != 2 {
		t.Fatalf("found %d gotos, want 2", len(gotos))
	}
	for _, g := range gotos {
		li := info.GotoTgt[g]
		if li == nil {
			t.Fatalf("goto %s unresolved", g.Label)
		}
		switch g.Label {
		case "9":
			if li.Routine.Name != "p" {
				t.Errorf("goto 9 resolves to %s, want p", li.Routine.Name)
			}
		case "8":
			if !li.Routine.IsProgram() {
				t.Errorf("goto 8 resolves to %s, want program block", li.Routine.Name)
			}
		}
	}
}

func TestFunctionResultAssignment(t *testing.T) {
	info := analyze(t, paper.Sqrtest)
	dec := info.LookupRoutine("decrement")
	var found bool
	ast.Inspect(dec.Decl, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		id, ok := as.Lhs.(*ast.Ident)
		if !ok || id.Name != "decrement" {
			return true
		}
		found = true
		sym := info.UseOf(id)
		v, ok := sym.(*sem.VarSym)
		if !ok || v.Kind != sem.ResultVar {
			t.Errorf("decrement := ... resolves to %v, want result var", sym)
		}
		return true
	})
	if !found {
		t.Error("no assignment to function result found")
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"undeclaredVar", `program t; begin x := 1; end.`, "undeclared identifier x"},
		{"undeclaredProc", `program t; begin f(1); end.`, "undeclared routine f"},
		{"typeMismatch", `program t; var b: boolean; begin b := 3; end.`, "cannot assign integer to boolean"},
		{"badCond", `program t; var x: integer; begin if x then x := 1; end.`, "condition must be boolean"},
		{"argCount", `program t; procedure p(a: integer); begin end; begin p(1, 2); end.`, "expects 1 argument"},
		{"varArgNotVariable", `program t; procedure p(var a: integer); begin a := 0; end; begin p(3); end.`, "must be a variable"},
		{"funcAsProc", `program t; function f: integer; begin f := 1; end; begin f; end.`, "called as a procedure"},
		{"procInExpr", `program t; var x: integer; procedure p; begin end; begin x := p; end.`, "used in an expression"},
		{"writeInExpr", `program t; var i: integer; begin i := 1 + write(2); end.`, "procedure write used in an expression"},
		{"writelnInExpr", `program t; var i: integer; begin i := writeln(i); end.`, "procedure writeln used in an expression"},
		{"readInExpr", `program t; var i: integer; begin if read(i) then i := 0; end.`, "procedure read used in an expression"},
		{"readlnInExpr", `program t; var i: integer; begin i := readln(i) * 2; end.`, "procedure readln used in an expression"},
		{"divReal", `program t; var r: real; begin r := 1.5 div 2; end.`, "requires integer operands"},
		{"minusStrings", `program t; var s: string; begin s := s - s; end.`, "operator - requires numeric operands, have string and string"},
		{"slashBool", `program t; var r: real; var b: boolean; begin r := b / 2; end.`, "operator / requires numeric operands, have boolean and integer"},
		{"andInts", `program t; var b: boolean; begin b := 1 and 2; end.`, "operator and requires boolean operands"},
		{"compareMixed", `program t; var b: boolean; begin b := b = 1; end.`, "cannot compare boolean with integer"},
		{"orderBools", `program t; var b: boolean; begin b := b <= b; end.`, "cannot order boolean against boolean"},
		{"dupParam", `program t; procedure p(a, a: integer); begin end; begin p(1, 2); end.`, "duplicate parameter"},
		{"dupVar", `program t; var x: integer; var x: integer; begin x := 1; end.`, "duplicate declaration"},
		{"badLabel", `program t; begin goto 9; end.`, "undeclared label"},
		{"unplacedLabel", `program t; label 9; begin goto 9; end.`, "declared but not placed"},
		{"forNonInt", `program t; var b: boolean; begin for b := 1 to 3 do b := true; end.`, "must be integer"},
		{"indexNonArray", `program t; var x: integer; begin x := x[1]; end.`, "indexing non-array"},
		{"badField", `program t; type r = record a: integer end; var v: r; var x: integer; begin x := v.b; end.`, "no field b"},
		{"undeclaredType", `program t; var x: foo; begin x := 1; end.`, "undeclared type foo"},
		{"arrayBounds", `program t; type a = array [5 .. 2] of integer; var v: a; begin v[1] := 0; end.`, "below lower bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, perr := parser.ParseProgram("err.pas", tc.src)
			if perr != nil {
				t.Fatalf("unexpected parse error: %v", perr)
			}
			_, err := sem.Analyze(prog)
			if err == nil {
				t.Fatalf("expected error containing %q, got none", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestVarOf(t *testing.T) {
	info := analyze(t, `
program t;
type r = record f: integer end;
type a = array [1 .. 3] of r;
var v: a;
begin
  v[1].f := 42;
end.`)
	var assign *ast.AssignStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if s, ok := n.(*ast.AssignStmt); ok {
			assign = s
		}
		return true
	})
	if assign == nil {
		t.Fatal("no assignment found")
	}
	v := info.VarOf(assign.Lhs)
	if v == nil || v.Name != "v" {
		t.Errorf("VarOf(v[1].f) = %v, want v", v)
	}
}

func TestIntToRealWidening(t *testing.T) {
	analyze(t, `
program t;
var r: real; i: integer;
begin
  i := 2;
  r := i;
  r := i + 1.5;
  r := i / 2;
end.`)
}

func TestCaseStatement(t *testing.T) {
	info := analyze(t, `
program t;
var x, y: integer;
begin
  case x of
    1: y := 10;
    2, 3: y := 20;
  else y := 0;
  end;
end.`)
	var cs *ast.CaseStmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if s, ok := n.(*ast.CaseStmt); ok {
			cs = s
		}
		return true
	})
	if cs == nil {
		t.Fatal("case statement not found")
	}
	if len(cs.Arms) != 2 || cs.Else == nil {
		t.Errorf("case arms = %d (want 2), else = %v (want non-nil)", len(cs.Arms), cs.Else)
	}
}

func TestRecursiveFunction(t *testing.T) {
	info := analyze(t, `
program t;
var x: integer;

function fact(n: integer): integer;
begin
  if n <= 1 then
    fact := 1
  else
    fact := n * fact(n - 1);
end;

begin
  x := fact(5);
end.`)
	f := info.LookupRoutine("fact")
	if f == nil {
		t.Fatal("fact not found")
	}
}
