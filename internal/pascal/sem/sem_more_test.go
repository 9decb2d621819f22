package sem_test

import (
	"strings"
	"testing"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/types"
)

func TestConstDeclarations(t *testing.T) {
	info := analyze(t, `
program t;
const
  n = 10;
  m = n + 5;
  neg = -3;
  name = 'gadt';
  yes = true;
type
  arr = array [1 .. n] of integer;
var
  a: arr;
  s: string;
  b: boolean;
  x: integer;
begin
  a[n] := m;
  s := name;
  b := yes;
  x := neg;
end.`)
	// arr's bounds resolved from the constant.
	var at *types.Array
	for _, v := range info.Main.Locals {
		if v.Name == "a" {
			at = v.Type.(*types.Array)
		}
	}
	if at == nil || at.Hi != 10 {
		t.Fatalf("array type = %v, want hi=10 via const", at)
	}
}

func TestConstErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`program t; const c = x; begin end.`, "not a constant"},
		{`program t; var v: integer; const c = v; begin end.`, "not a constant"},
		{`program t; type a = array [1 .. 2.5] of integer; var v: a; begin v[1] := 0; end.`, "constant integer expected"},
	}
	for _, tc := range cases {
		prog, perr := parser.ParseProgram("t.pas", tc.src)
		if perr != nil {
			t.Fatalf("parse: %v", perr)
		}
		_, err := sem.Analyze(prog)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestTypeAliases(t *testing.T) {
	info := analyze(t, `
program t;
type
  count = integer;
  counts = array [1 .. 3] of count;
var
  c: count;
  cs: counts;
begin
  c := 1;
  cs[1] := c;
end.`)
	for _, v := range info.Main.Locals {
		if v.Name == "c" && !v.Type.Equal(types.Integer) {
			t.Errorf("alias type = %v", v.Type)
		}
	}
}

func TestRecordOfArrays(t *testing.T) {
	analyze(t, `
program t;
type
  row = array [1 .. 2] of integer;
  grid = record a, b: row; tag: string end;
var
  g: grid;
begin
  g.a[1] := 1;
  g.b[2] := g.a[1] + 1;
  g.tag := 'ok';
end.`)
}

func TestMultiDimIndex(t *testing.T) {
	analyze(t, `
program t;
type
  mat = array [1 .. 2] of array [1 .. 3] of integer;
var
  m: mat;
begin
  m[1][2] := 5;
  m[2, 3] := m[1][2];
end.`)
}

func TestBuiltinMisuse(t *testing.T) {
	cases := []struct{ src, want string }{
		{`program t; var x: integer; begin x := abs(true); end.`, "numeric argument"},
		{`program t; var b: boolean; begin b := odd(1.5); end.`, "integer argument"},
		{`program t; var x: integer; begin x := abs(1, 2); end.`, "expects 1 argument"},
		{`program t; begin abs(1); end.`, "called as a procedure"},
		{`program t; var x: integer; begin x := trunc(true); end.`, "numeric argument"},
	}
	for _, tc := range cases {
		prog, perr := parser.ParseProgram("t.pas", tc.src)
		if perr != nil {
			t.Fatalf("parse: %v", perr)
		}
		_, err := sem.Analyze(prog)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestReadRequiresVariable(t *testing.T) {
	prog := parser.MustParse("t.pas", `program t; begin read(42); end.`)
	_, err := sem.Analyze(prog)
	if err == nil || !strings.Contains(err.Error(), "not assignable") {
		t.Errorf("err = %v", err)
	}
}

func TestComparisonTypeErrors(t *testing.T) {
	cases := []string{
		`program t; var b: boolean; s: string; begin b := s < 1; end.`,
		`program t; var b: boolean; begin b := true < false; end.`,
		`program t; var b: boolean; s: string; begin b := (s = 1); end.`,
	}
	for _, src := range cases {
		prog, perr := parser.ParseProgram("t.pas", src)
		if perr != nil {
			t.Fatalf("parse: %v", perr)
		}
		if _, err := sem.Analyze(prog); err == nil {
			t.Errorf("%q: expected type error", src)
		}
	}
}

func TestCaseLabelTypeMismatch(t *testing.T) {
	prog := parser.MustParse("t.pas", `
program t;
var x: integer;
begin
  case x of
    'a': x := 1;
  end;
end.`)
	_, err := sem.Analyze(prog)
	if err == nil || !strings.Contains(err.Error(), "does not match selector") {
		t.Errorf("err = %v", err)
	}
}

func TestSetLitContexts(t *testing.T) {
	analyze(t, `
program t;
type arr = array [1 .. 5] of integer;
var a: arr;
procedure p(v: arr);
begin
end;
begin
  a := [1, 2, 3];
  p([4, 5]);
end.`)
	// Oversized display rejected.
	prog := parser.MustParse("t.pas", `
program t;
type arr = array [1 .. 2] of integer;
var a: arr;
begin
  a := [1, 2, 3];
end.`)
	if _, err := sem.Analyze(prog); err == nil {
		t.Error("oversized array display accepted")
	}
	// Mixed element types rejected.
	prog2 := parser.MustParse("t.pas", `
program t;
type arr = array [1 .. 3] of integer;
var a: arr;
begin
  a := [1, true, 3];
end.`)
	if _, err := sem.Analyze(prog2); err == nil {
		t.Error("mixed-type array display accepted")
	}
}

func TestLabeledStatementChecks(t *testing.T) {
	cases := []struct{ src, want string }{
		{`program t; label 9; var x: integer; begin 9: x := 1; 9: x := 2; goto 9; end.`, "placed more than once"},
		{`program t; var x: integer; begin 9: x := 1; end.`, "not declared"},
	}
	for _, tc := range cases {
		prog, perr := parser.ParseProgram("t.pas", tc.src)
		if perr != nil {
			t.Fatalf("parse: %v", perr)
		}
		_, err := sem.Analyze(prog)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestVarOfNonDesignators(t *testing.T) {
	info := analyze(t, `program t; var x: integer; begin x := 1 + 2; end.`)
	var rhs ast.Expr
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			rhs = as.Rhs
		}
		return true
	})
	if info.VarOf(rhs) != nil {
		t.Error("VarOf(1 + 2) should be nil")
	}
}

func TestMaxintAndPredeclared(t *testing.T) {
	analyze(t, `
program t;
var x: integer;
    b: boolean;
begin
  x := maxint;
  b := true;
  b := false;
end.`)
}

func TestFunctionMissingResultAssignment(t *testing.T) {
	// Pascal does not require it statically; we accept but the result
	// stays zero-valued. Just check analysis passes.
	analyze(t, `
program t;
var x: integer;
function f(n: integer): integer;
begin
  n := n + 1;
end;
begin
  x := f(1);
end.`)
}
