// Package printer renders GADT Pascal ASTs back to source text.
//
// The output is re-parsable by the parser, including the transformed
// internal form: Out-mode parameters print with the contextual `out`
// keyword and array displays print as `[e1, e2]`. The printer is used for
// golden tests, for presenting original constructs to the user, and for
// the transformation-growth experiment (Section 9 of the paper compares
// source sizes before and after transformation).
package printer

import (
	"fmt"
	"strings"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/token"
)

// Fprint renders a whole program.
func Print(p *ast.Program) string {
	var pr printer
	pr.program(p)
	return pr.b.String()
}

// PrintStmt renders a single statement at the given indent level.
func PrintStmt(s ast.Stmt) string {
	var pr printer
	pr.stmt(s)
	pr.newlineIfNeeded()
	return pr.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e ast.Expr) string {
	var pr printer
	pr.expr(e, 0)
	return pr.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
	atBOL  bool // whether the writer is at the beginning of a line
}

func (p *printer) write(s string) {
	if p.atBOL && s != "" {
		p.b.WriteString(strings.Repeat("  ", p.indent))
		p.atBOL = false
	}
	p.b.WriteString(s)
}

func (p *printer) writef(format string, args ...any) {
	p.write(fmt.Sprintf(format, args...))
}

func (p *printer) newline() {
	p.b.WriteByte('\n')
	p.atBOL = true
}

func (p *printer) newlineIfNeeded() {
	if !p.atBOL {
		p.newline()
	}
}

// ---------------------------------------------------------------------------

func (p *printer) program(prog *ast.Program) {
	p.writef("program %s;", prog.Name)
	p.newline()
	p.block(prog.Block)
	p.write("end.")
	p.newline()
}

// block prints declarations and the body's statements; the caller is
// responsible for printing the trailing "end." or "end;".
func (p *printer) block(b *ast.Block) {
	if len(b.Labels) > 0 {
		names := make([]string, len(b.Labels))
		for i, l := range b.Labels {
			names[i] = l.Name
		}
		p.writef("label %s;", strings.Join(names, ", "))
		p.newline()
	}
	if len(b.Consts) > 0 {
		p.write("const")
		p.newline()
		p.indent++
		for _, d := range b.Consts {
			p.writef("%s = ", d.Name)
			p.expr(d.Value, 0)
			p.write(";")
			p.newline()
		}
		p.indent--
	}
	if len(b.Types) > 0 {
		p.write("type")
		p.newline()
		p.indent++
		for _, d := range b.Types {
			p.writef("%s = ", d.Name)
			p.typeExpr(d.Type)
			p.write(";")
			p.newline()
		}
		p.indent--
	}
	if len(b.Vars) > 0 {
		p.write("var")
		p.newline()
		p.indent++
		for _, d := range b.Vars {
			p.writef("%s: ", strings.Join(d.Names, ", "))
			p.typeExpr(d.Type)
			p.write(";")
			p.newline()
		}
		p.indent--
	}
	for _, r := range b.Routines {
		p.routine(r)
	}
	p.write("begin")
	p.newline()
	p.indent++
	for _, s := range b.Body.Stmts {
		p.stmt(s)
		p.write(";")
		p.newline()
	}
	p.indent--
}

func (p *printer) routine(r *ast.Routine) {
	p.writef("%s %s", r.Kind, r.Name)
	if len(r.Params) > 0 {
		p.write("(")
		for i, par := range r.Params {
			if i > 0 {
				p.write("; ")
			}
			switch par.Mode {
			case ast.VarMode:
				p.write("var ")
			case ast.Out:
				p.write("out ")
			}
			p.writef("%s: ", strings.Join(par.Names, ", "))
			p.typeExpr(par.Type)
		}
		p.write(")")
	}
	if r.Kind == ast.FuncKind {
		p.write(": ")
		p.typeExpr(r.Result)
	}
	p.write(";")
	p.newline()
	p.indent++
	p.block(r.Block)
	p.write("end;")
	p.newline()
	p.indent--
}

func (p *printer) typeExpr(t ast.TypeExpr) {
	switch t := t.(type) {
	case *ast.NamedType:
		p.write(t.Name)
	case *ast.ArrayType:
		p.write("array [")
		p.expr(t.Lo, 0)
		p.write(" .. ")
		p.expr(t.Hi, 0)
		p.write("] of ")
		p.typeExpr(t.Elem)
	case *ast.RecordType:
		p.write("record ")
		for i, f := range t.Fields {
			if i > 0 {
				p.write("; ")
			}
			p.writef("%s: ", strings.Join(f.Names, ", "))
			p.typeExpr(f.Type)
		}
		p.write(" end")
	default:
		p.writef("<?type %T>", t)
	}
}

// ---------------------------------------------------------------------------
// Statements

func (p *printer) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.CompoundStmt:
		p.write("begin")
		p.newline()
		p.indent++
		for _, c := range s.Stmts {
			p.stmt(c)
			p.write(";")
			p.newline()
		}
		p.indent--
		p.write("end")
	case *ast.AssignStmt:
		p.expr(s.Lhs, 0)
		p.write(" := ")
		p.expr(s.Rhs, 0)
	case *ast.CallStmt:
		p.write(s.Name)
		if len(s.Args) > 0 {
			p.write("(")
			p.exprList(s.Args)
			p.write(")")
		}
	case *ast.IfStmt:
		p.write("if ")
		p.expr(s.Cond, 0)
		p.write(" then")
		p.nested(s.Then)
		if s.Else != nil {
			p.newlineIfNeeded()
			p.write("else")
			p.nested(s.Else)
		}
	case *ast.WhileStmt:
		p.write("while ")
		p.expr(s.Cond, 0)
		p.write(" do")
		p.nested(s.Body)
	case *ast.RepeatStmt:
		p.write("repeat")
		p.newline()
		p.indent++
		for _, c := range s.Stmts {
			p.stmt(c)
			p.write(";")
			p.newline()
		}
		p.indent--
		p.write("until ")
		p.expr(s.Cond, 0)
	case *ast.ForStmt:
		p.writef("for %s := ", s.Var.Name)
		p.expr(s.From, 0)
		if s.Down {
			p.write(" downto ")
		} else {
			p.write(" to ")
		}
		p.expr(s.Limit, 0)
		p.write(" do")
		p.nested(s.Body)
	case *ast.CaseStmt:
		p.write("case ")
		p.expr(s.Expr, 0)
		p.write(" of")
		p.newline()
		p.indent++
		for _, arm := range s.Arms {
			p.exprList(arm.Consts)
			p.write(": ")
			p.stmt(arm.Body)
			p.write(";")
			p.newline()
		}
		if s.Else != nil {
			p.write("else ")
			p.stmt(s.Else)
			p.write(";")
			p.newline()
		}
		p.indent--
		p.write("end")
	case *ast.GotoStmt:
		p.writef("goto %s", s.Label)
	case *ast.LabeledStmt:
		p.writef("%s: ", s.Label)
		p.stmt(s.Stmt)
	case *ast.EmptyStmt:
		// nothing
	default:
		p.writef("<?stmt %T>", s)
	}
}

// nested prints a statement that syntactically hangs off a control
// header (then/else/do branches).
func (p *printer) nested(s ast.Stmt) {
	if cs, ok := s.(*ast.CompoundStmt); ok {
		p.write(" ")
		p.stmt(cs)
		return
	}
	p.newline()
	p.indent++
	p.stmt(s)
	p.indent--
}

// ---------------------------------------------------------------------------
// Expressions

func (p *printer) exprList(es []ast.Expr) {
	for i, e := range es {
		if i > 0 {
			p.write(", ")
		}
		p.expr(e, 0)
	}
}

// expr prints e, parenthesizing when its precedence is below the
// context's minimum precedence.
func (p *printer) expr(e ast.Expr, minPrec int) {
	switch e := e.(type) {
	case *ast.Ident:
		p.write(e.Name)
	case *ast.IntLit:
		p.writef("%d", e.Value)
	case *ast.RealLit:
		if e.Text != "" {
			p.write(e.Text)
		} else {
			p.writef("%g", e.Value)
		}
	case *ast.StringLit:
		p.writef("'%s'", strings.ReplaceAll(e.Value, "'", "''"))
	case *ast.BinaryExpr:
		prec := e.Op.Precedence()
		if prec < minPrec {
			p.write("(")
		}
		p.expr(e.X, prec)
		p.writef(" %s ", e.Op)
		p.expr(e.Y, prec+1)
		if prec < minPrec {
			p.write(")")
		}
	case *ast.UnaryExpr:
		if e.Op == token.Not {
			p.write("not ")
		} else {
			p.write(e.Op.String())
		}
		// Unary operators bind tighter than all binary operators.
		p.expr(e.X, 4)
	case *ast.IndexExpr:
		p.expr(e.X, 4)
		p.write("[")
		p.exprList(e.Indices)
		p.write("]")
	case *ast.FieldExpr:
		p.expr(e.X, 4)
		p.writef(".%s", e.Field)
	case *ast.CallExpr:
		p.write(e.Name)
		p.write("(")
		p.exprList(e.Args)
		p.write(")")
	case *ast.SetLit:
		p.write("[")
		p.exprList(e.Elems)
		p.write("]")
	default:
		p.writef("<?expr %T>", e)
	}
}
