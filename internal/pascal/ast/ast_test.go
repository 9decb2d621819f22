package ast_test

import (
	"testing"

	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
)

func TestInspectVisitsEverything(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	counts := map[string]int{}
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Routine:
			counts["routine"]++
		case *ast.AssignStmt:
			counts["assign"]++
		case *ast.CallStmt:
			counts["callstmt"]++
		case *ast.CallExpr:
			counts["callexpr"]++
		case *ast.ForStmt:
			counts["for"]++
		case *ast.Ident:
			counts["ident"]++
		}
		return true
	})
	if counts["routine"] != 13 {
		t.Errorf("routines = %d, want 13", counts["routine"])
	}
	if counts["for"] != 1 {
		t.Errorf("for loops = %d, want 1", counts["for"])
	}
	if counts["callexpr"] != 2 { // decrement(y), increment(y)
		t.Errorf("call exprs = %d, want 2", counts["callexpr"])
	}
	if counts["ident"] == 0 || counts["assign"] == 0 {
		t.Error("idents or assigns not visited")
	}
}

func TestInspectPruning(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	sawInner := false
	ast.Inspect(prog, func(n ast.Node) bool {
		if r, ok := n.(*ast.Routine); ok {
			return r.Name != "sqrtest" // prune sqrtest's subtree
		}
		if cs, ok := n.(*ast.CallStmt); ok && cs.Name == "arrsum" {
			sawInner = true
		}
		return true
	})
	if sawInner {
		t.Error("pruned subtree was visited")
	}
}

func TestCloneIsDeepAndMapped(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	clone, cm := ast.Clone(prog)
	if clone == prog {
		t.Fatal("clone aliases original")
	}
	// Printing both gives identical text.
	if printer.Print(prog) != printer.Print(clone) {
		t.Error("clone prints differently")
	}
	// Mutating the clone must not touch the original.
	clone.Block.Routines[0].Name = "renamed"
	if prog.Block.Routines[0].Name == "renamed" {
		t.Error("clone shares routine nodes")
	}
	// Every cloned statement maps back to an original statement of the
	// same dynamic type.
	checked := 0
	ast.Inspect(clone, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		orig, ok := cm[s]
		if !ok {
			t.Errorf("no origin for %T at %s", s, s.Pos())
			return true
		}
		if origStmt, ok := orig.(ast.Stmt); !ok || origStmt == s {
			t.Errorf("origin of %T is %T (same=%v)", s, orig, origStmt == s)
		}
		checked++
		return true
	})
	if checked == 0 {
		t.Fatal("no statements checked")
	}
}

func TestStmtsIteration(t *testing.T) {
	prog := parser.MustParse("t.pas", `
program t;
var x: integer;
begin
  if x > 0 then x := 1 else x := 2;
end.`)
	ifStmt := prog.Block.Body.Stmts[0]
	var n int
	ast.Stmts(ifStmt, func(*ast.Stmt) { n++ })
	if n != 2 {
		t.Errorf("children = %d, want 2 (then + else)", n)
	}
}

func TestRoutineKindStrings(t *testing.T) {
	if ast.ProcKind.String() != "procedure" || ast.FuncKind.String() != "function" {
		t.Error("kind strings")
	}
	if ast.Value.String() != "in" || ast.VarMode.String() != "var" || ast.Out.String() != "out" {
		t.Error("mode strings")
	}
}

func TestPositions(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Routine, *ast.AssignStmt, *ast.Ident, *ast.CallStmt:
			if !n.Pos().IsValid() {
				t.Errorf("%T has no position", n)
			}
		}
		return true
	})
}
