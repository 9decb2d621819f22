package parser_test

import (
	"strings"
	"testing"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
)

func TestProgramParameters(t *testing.T) {
	// Classic `program t(input, output);` headers parse and are ignored.
	prog := parse(t, `program t(input, output); begin end.`)
	if prog.Name != "t" {
		t.Errorf("name = %q", prog.Name)
	}
}

func TestInContextualKeyword(t *testing.T) {
	prog := parse(t, `
program t;
procedure p(in a: integer; var b: integer);
begin
  b := a;
end;
var x: integer;
begin
  p(1, x);
end.`)
	params := prog.Block.Routines[0].Params
	if params[0].Mode != ast.Value {
		t.Errorf("in-param mode = %v, want value", params[0].Mode)
	}
}

func TestParamNamedInOrOut(t *testing.T) {
	// `in` / `out` remain usable as ordinary names when not followed by
	// an identifier (i.e. `out: integer` declares a parameter named out).
	prog := parse(t, `
program t;
procedure p(out: integer);
begin
end;
begin
  p(1);
end.`)
	params := prog.Block.Routines[0].Params
	if len(params) != 1 || params[0].Names[0] != "out" || params[0].Mode != ast.Value {
		t.Errorf("params = %+v", params[0])
	}
}

func TestNegativeConst(t *testing.T) {
	prog := parse(t, `
program t;
const low = -10;
var x: integer;
begin
  x := low;
end.`)
	if len(prog.Block.Consts) != 1 {
		t.Fatal("const missing")
	}
	if _, ok := prog.Block.Consts[0].Value.(*ast.UnaryExpr); !ok {
		t.Errorf("const value = %T", prog.Block.Consts[0].Value)
	}
}

func TestNestedRecordType(t *testing.T) {
	prog := parse(t, `
program t;
type
  inner = record a: integer end;
  outer = record i: inner; b: integer end;
var o: outer;
begin
  o.i.a := 1;
  o.b := 2;
end.`)
	if len(prog.Block.Types) != 2 {
		t.Fatalf("types = %d", len(prog.Block.Types))
	}
}

func TestEmptyStatementsDropped(t *testing.T) {
	prog := parse(t, `
program t;
var x: integer;
begin
  ;;
  x := 1;;
  ;
end.`)
	if len(prog.Block.Body.Stmts) != 1 {
		t.Errorf("stmts = %d, want 1 (empties dropped)", len(prog.Block.Body.Stmts))
	}
}

func TestSemicolonBeforeElseError(t *testing.T) {
	_, err := parser.ParseProgram("t.pas", `
program t;
var x: integer;
begin
  if x = 1 then
    x := 2;
  else
    x := 3;
end.`)
	// `;` before else is classic Pascal error territory: our parser
	// treats the else as orphaned and reports a syntax error.
	if err == nil {
		t.Error("expected error for ';' before else")
	}
}

func TestCaseWithoutElse(t *testing.T) {
	prog := parse(t, `
program t;
var x: integer;
begin
  case x of
    1: x := 10;
    2: x := 20;
  end;
end.`)
	cs := prog.Block.Body.Stmts[0].(*ast.CaseStmt)
	if cs.Else != nil || len(cs.Arms) != 2 {
		t.Errorf("case = %+v", cs)
	}
}

func TestErrorListFormatting(t *testing.T) {
	_, err := parser.ParseProgram("t.pas", `program t; begin x := ; y := ; end.`)
	if err == nil {
		t.Fatal("expected errors")
	}
	if !strings.Contains(err.Error(), "more error") && !strings.Contains(err.Error(), "expected") {
		t.Errorf("error list formatting: %v", err)
	}
}

func TestDeclarationPartsInAnyOrder(t *testing.T) {
	// Our parser (liberally) allows var parts after routines.
	parse(t, `
program t;
procedure p;
begin
end;
var x: integer;
begin
  p;
  x := 1;
end.`)
}

func TestFunctionNoParams(t *testing.T) {
	prog := parse(t, `
program t;
function five: integer;
begin
  five := 5;
end;
var x: integer;
begin
  x := five;
end.`)
	f := prog.Block.Routines[0]
	if f.Kind != ast.FuncKind || len(f.Params) != 0 || f.Result == nil {
		t.Errorf("function form: %+v", f)
	}
}

func TestDeepExpressionNesting(t *testing.T) {
	expr := strings.Repeat("(", 40) + "1" + strings.Repeat(")", 40) + " + 2"
	if _, err := parser.ParseExpr(expr); err != nil {
		t.Errorf("deep nesting failed: %v", err)
	}
}
