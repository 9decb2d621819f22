package printer_test

import (
	"strings"
	"testing"

	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
)

func TestPrintSqrtestGolden(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	out := printer.Print(prog)
	for _, want := range []string{
		"program main;",
		"intarray = array [1 .. 10] of integer;",
		"procedure arrsum(a: intarray; n: integer; var b: integer);",
		"function decrement(y: integer): integer;",
		"for i := 1 to n do",
		"decrement := y + 1;",
		"sqrtest([1, 2], 2, isok);",
		"end.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed program missing %q:\n%s", want, out)
		}
	}
}

func TestPrintStmtForms(t *testing.T) {
	src := `
program t;
label 9;
var i, x: integer;
begin
  repeat
    i := i + 1;
  until i > 3;
  case x of
    1: x := 10;
    2, 3: x := 20;
  else x := 0;
  end;
  while x > 0 do
    x := x - 1;
  goto 9;
  9: x := 0;
end.`
	prog := parser.MustParse("t.pas", src)
	out := printer.Print(prog)
	for _, want := range []string{
		"label 9;",
		"repeat",
		"until i > 3",
		"case x of",
		"2, 3: x := 20;",
		"else x := 0;",
		"while x > 0 do",
		"goto 9",
		"9: x := 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrintRecordAndConst(t *testing.T) {
	src := `
program t;
const
  limit = 10;
type
  point = record x, y: integer end;
var
  p: point;
begin
  p.x := limit;
end.`
	prog := parser.MustParse("t.pas", src)
	out := printer.Print(prog)
	for _, want := range []string{"limit = 10;", "point = record x, y: integer end;", "p.x := limit"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrintExprStringEscapes(t *testing.T) {
	e, err := parser.ParseExpr("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if got := printer.PrintExpr(e); got != "'it''s'" {
		t.Errorf("string literal printed as %q", got)
	}
}

func TestPrintRealPreservesSpelling(t *testing.T) {
	e, err := parser.ParseExpr("2.50")
	if err != nil {
		t.Fatal(err)
	}
	if got := printer.PrintExpr(e); got != "2.50" {
		t.Errorf("real printed as %q, want source spelling", got)
	}
}

func TestPrintStmtSingle(t *testing.T) {
	prog := parser.MustParse("t.pas", `program t; var x: integer; begin if x > 0 then x := 1 else x := 2; end.`)
	s := prog.Block.Body.Stmts[0]
	out := printer.PrintStmt(s)
	if !strings.Contains(out, "if x > 0 then") || !strings.Contains(out, "else") {
		t.Errorf("stmt print:\n%s", out)
	}
}

func TestNestedCompoundIndentation(t *testing.T) {
	prog := parser.MustParse("t.pas", `
program t;
var x: integer;
begin
  if x = 0 then begin
    x := 1;
    x := 2;
  end;
end.`)
	out := printer.Print(prog)
	if !strings.Contains(out, "then begin") {
		t.Errorf("compound after then:\n%s", out)
	}
	// Inner statements indented deeper than the if.
	lines := strings.Split(out, "\n")
	var ifIndent, innerIndent int
	for _, l := range lines {
		if strings.Contains(l, "if x = 0") {
			ifIndent = len(l) - len(strings.TrimLeft(l, " "))
		}
		if strings.Contains(l, "x := 1") {
			innerIndent = len(l) - len(strings.TrimLeft(l, " "))
		}
	}
	if innerIndent <= ifIndent {
		t.Errorf("inner indent %d not deeper than if indent %d:\n%s", innerIndent, ifIndent, out)
	}
}

func TestSetLitPrinting(t *testing.T) {
	e, err := parser.ParseExpr("[1, 2, 3]")
	if err != nil {
		t.Fatal(err)
	}
	if got := printer.PrintExpr(e); got != "[1, 2, 3]" {
		t.Errorf("set literal printed as %q", got)
	}
	if _, ok := e.(*ast.SetLit); !ok {
		t.Fatalf("parsed as %T", e)
	}
}
