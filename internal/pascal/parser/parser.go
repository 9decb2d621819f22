// Package parser implements a recursive-descent parser for the GADT
// Pascal subset.
//
// The accepted grammar is classic Pascal restricted to the constructs the
// paper's method addresses: programs with nested procedures/functions,
// label/const/type/var declaration parts, value and var parameters,
// assignment, procedure calls, if/while/repeat/for/case, goto and labeled
// statements. Two extensions support the transformed internal form and
// the paper's driver notation: an `out` parameter mode (contextual
// keyword in parameter lists) and bracketed array displays `[1, 2]` in
// expression position.
package parser

import (
	"fmt"
	"strconv"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/lexer"
	"gadt/internal/pascal/token"
)

// Error is a syntax error at a position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of syntax errors implementing error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Err returns nil when the list is empty, the list otherwise.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

const maxErrors = 20

// maxNestingDepth bounds statement/expression/type nesting. The parser
// is recursive-descent, so without a bound a few megabytes of "((((..."
// overflow the goroutine stack — a fatal runtime error that recover()
// cannot catch (found by fuzzing, pinned in fuzz_corpus_test.go).
const maxNestingDepth = 4096

// bailout is panicked when the error budget is exhausted.
type bailout struct{}

type parser struct {
	lex   *lexer.Lexer
	tok   token.Token
	next  token.Token
	errs  ErrorList
	depth int
}

// enter guards one level of recursive descent; every call must be
// paired with a deferred leave.
func (p *parser) enter(pos token.Pos) {
	p.depth++
	if p.depth > maxNestingDepth {
		p.errorf(pos, "nesting too deep (more than %d levels)", maxNestingDepth)
		panic(bailout{})
	}
}

func (p *parser) leave() { p.depth-- }

// ParseProgram parses a complete program. The returned ErrorList is
// non-nil iff errors were found; a partial tree may still be returned.
func ParseProgram(file, src string) (*ast.Program, error) {
	p := newParser(file, src)
	var prog *ast.Program
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(bailout); !ok {
					panic(r)
				}
			}
		}()
		prog = p.parseProgram()
	}()
	for _, e := range p.lex.Errors() {
		p.errs = append(p.errs, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	return prog, p.errs.Err()
}

// ParseExpr parses a single expression (used by the assertion language
// and by driver tooling).
func ParseExpr(src string) (ast.Expr, error) {
	p := newParser("<expr>", src)
	var e ast.Expr
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(bailout); !ok {
					panic(r)
				}
				err = p.errs.Err()
			}
		}()
		e = p.parseExpr()
		if p.tok.Kind != token.EOF {
			p.errorf(p.tok.Pos, "unexpected %s after expression", p.tok)
		}
		return p.errs.Err()
	}()
	if err != nil {
		return nil, err
	}
	return e, nil
}

func newParser(file, src string) *parser {
	p := &parser{lex: lexer.New(file, src)}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	return p
}

func (p *parser) advance() {
	p.tok = p.next
	p.next = p.lex.Next()
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if len(p.errs) >= maxErrors {
		panic(bailout{})
	}
}

// expect consumes a token of the given kind, reporting an error and
// leaving the current token in place otherwise.
func (p *parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %q, found %s", k.String(), t)
		// Attempt minimal recovery: skip one stray token so that the
		// parser makes progress on common typos.
		if p.tok.Kind != token.EOF && p.next.Kind == k {
			p.advance()
			t = p.tok
		} else {
			return t
		}
	}
	p.advance()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() string {
	if p.tok.Kind != token.Ident {
		p.errorf(p.tok.Pos, "expected identifier, found %s", p.tok)
		return "?"
	}
	name := p.tok.Lit
	p.advance()
	return name
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseProgram() *ast.Program {
	pos := p.tok.Pos
	p.expect(token.Program)
	name := p.expectIdent()
	if p.accept(token.LParen) { // program parameters, e.g. (input, output)
		for p.tok.Kind == token.Ident {
			p.advance()
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RParen)
	}
	p.expect(token.Semi)
	blk := p.parseBlock()
	p.expect(token.Period)
	if p.tok.Kind != token.EOF {
		p.errorf(p.tok.Pos, "unexpected %s after end of program", p.tok)
	}
	return &ast.Program{ProgPos: pos, Name: name, Block: blk}
}

func (p *parser) parseBlock() *ast.Block {
	b := &ast.Block{BlockPos: p.tok.Pos}
	for {
		switch p.tok.Kind {
		case token.Label:
			p.advance()
			for {
				pos := p.tok.Pos
				if p.tok.Kind != token.IntLit && p.tok.Kind != token.Ident {
					p.errorf(pos, "expected label, found %s", p.tok)
					break
				}
				b.Labels = append(b.Labels, &ast.LabelDecl{DeclPos: pos, Name: p.tok.Lit})
				p.advance()
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.Semi)
		case token.Const:
			p.advance()
			for p.tok.Kind == token.Ident {
				pos := p.tok.Pos
				name := p.expectIdent()
				p.expect(token.Eq)
				val := p.parseExpr()
				p.expect(token.Semi)
				b.Consts = append(b.Consts, &ast.ConstDecl{DeclPos: pos, Name: name, Value: val})
			}
		case token.Type:
			p.advance()
			for p.tok.Kind == token.Ident {
				pos := p.tok.Pos
				name := p.expectIdent()
				p.expect(token.Eq)
				te := p.parseTypeExpr()
				p.expect(token.Semi)
				b.Types = append(b.Types, &ast.TypeDecl{DeclPos: pos, Name: name, Type: te})
			}
		case token.Var:
			p.advance()
			for p.tok.Kind == token.Ident {
				pos := p.tok.Pos
				names := p.parseIdentList()
				p.expect(token.Colon)
				te := p.parseTypeExpr()
				p.expect(token.Semi)
				b.Vars = append(b.Vars, &ast.VarDecl{DeclPos: pos, Names: names, Type: te})
			}
		case token.Procedure, token.Function:
			b.Routines = append(b.Routines, p.parseRoutine())
		case token.Begin:
			b.Body = p.parseCompound()
			return b
		default:
			p.errorf(p.tok.Pos, "expected declaration or begin, found %s", p.tok)
			if p.tok.Kind == token.EOF {
				b.Body = &ast.CompoundStmt{BeginPos: p.tok.Pos}
				return b
			}
			p.advance()
		}
	}
}

func (p *parser) parseIdentList() []string {
	var names []string
	names = append(names, p.expectIdent())
	for p.accept(token.Comma) {
		names = append(names, p.expectIdent())
	}
	return names
}

func (p *parser) parseRoutine() *ast.Routine {
	p.enter(p.tok.Pos)
	defer p.leave()
	pos := p.tok.Pos
	kind := ast.ProcKind
	if p.tok.Kind == token.Function {
		kind = ast.FuncKind
	}
	p.advance()
	name := p.expectIdent()
	r := &ast.Routine{DeclPos: pos, Kind: kind, Name: name}
	if p.tok.Kind == token.LParen {
		r.Params = p.parseParams()
	}
	if kind == ast.FuncKind {
		p.expect(token.Colon)
		r.Result = p.parseTypeExpr()
	}
	p.expect(token.Semi)
	r.Block = p.parseBlock()
	p.expect(token.Semi)
	return r
}

func (p *parser) parseParams() []*ast.Param {
	p.expect(token.LParen)
	var params []*ast.Param
	for {
		pos := p.tok.Pos
		mode := ast.Value
		switch {
		case p.tok.Kind == token.Var:
			mode = ast.VarMode
			p.advance()
		case p.tok.Kind == token.Ident && p.tok.Lit == "out" && p.next.Kind == token.Ident:
			// Contextual keyword for the transformed internal form.
			mode = ast.Out
			p.advance()
		case p.tok.Kind == token.Ident && p.tok.Lit == "in" && p.next.Kind == token.Ident:
			// Contextual keyword matching the paper's `in x: t` notation.
			p.advance()
		}
		names := p.parseIdentList()
		p.expect(token.Colon)
		te := p.parseTypeExpr()
		params = append(params, &ast.Param{DeclPos: pos, Mode: mode, Names: names, Type: te})
		if !p.accept(token.Semi) {
			break
		}
	}
	p.expect(token.RParen)
	return params
}

func (p *parser) parseTypeExpr() ast.TypeExpr {
	p.enter(p.tok.Pos)
	defer p.leave()
	switch p.tok.Kind {
	case token.Ident:
		t := &ast.NamedType{NamePos: p.tok.Pos, Name: p.tok.Lit}
		p.advance()
		return t
	case token.Array:
		pos := p.tok.Pos
		p.advance()
		p.expect(token.LBracket)
		lo := p.parseExpr()
		p.expect(token.DotDot)
		hi := p.parseExpr()
		p.expect(token.RBracket)
		p.expect(token.Of)
		elem := p.parseTypeExpr()
		return &ast.ArrayType{ArrayPos: pos, Lo: lo, Hi: hi, Elem: elem}
	case token.Record:
		pos := p.tok.Pos
		p.advance()
		t := &ast.RecordType{RecordPos: pos}
		for p.tok.Kind == token.Ident {
			fpos := p.tok.Pos
			names := p.parseIdentList()
			p.expect(token.Colon)
			fte := p.parseTypeExpr()
			t.Fields = append(t.Fields, &ast.RecordField{FieldPos: fpos, Names: names, Type: fte})
			if !p.accept(token.Semi) {
				break
			}
		}
		p.expect(token.End)
		return t
	}
	p.errorf(p.tok.Pos, "expected type, found %s", p.tok)
	t := &ast.NamedType{NamePos: p.tok.Pos, Name: "integer"}
	p.advance()
	return t
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseCompound() *ast.CompoundStmt {
	pos := p.tok.Pos
	p.expect(token.Begin)
	cs := &ast.CompoundStmt{BeginPos: pos, Stmts: p.parseStmtList(token.End)}
	p.expect(token.End)
	return cs
}

// parseStmtList parses semicolon-separated statements until the
// terminator. Empty statements between semicolons are dropped unless a
// label is attached to them.
func (p *parser) parseStmtList(term token.Kind) []ast.Stmt {
	var stmts []ast.Stmt
	for {
		if p.tok.Kind == term || p.tok.Kind == token.EOF {
			return stmts
		}
		s := p.parseStmt()
		if _, isEmpty := s.(*ast.EmptyStmt); !isEmpty {
			stmts = append(stmts, s)
		}
		if !p.accept(token.Semi) {
			if p.tok.Kind != term && p.tok.Kind != token.EOF && p.tok.Kind != token.Until && p.tok.Kind != token.Else {
				p.errorf(p.tok.Pos, "expected ';' or %q, found %s", term.String(), p.tok)
				p.advance()
				continue
			}
			return stmts
		}
	}
}

func (p *parser) parseStmt() ast.Stmt {
	p.enter(p.tok.Pos)
	defer p.leave()
	// Optional numeric label prefix: `9: stmt`.
	if p.tok.Kind == token.IntLit && p.next.Kind == token.Colon {
		pos := p.tok.Pos
		label := p.tok.Lit
		p.advance()
		p.advance()
		return &ast.LabeledStmt{LabelPos: pos, Label: label, Stmt: p.parseStmt()}
	}
	switch p.tok.Kind {
	case token.Begin:
		return p.parseCompound()
	case token.If:
		return p.parseIf()
	case token.While:
		return p.parseWhile()
	case token.Repeat:
		return p.parseRepeat()
	case token.For:
		return p.parseFor()
	case token.Case:
		return p.parseCase()
	case token.Goto:
		pos := p.tok.Pos
		p.advance()
		if p.tok.Kind != token.IntLit && p.tok.Kind != token.Ident {
			p.errorf(p.tok.Pos, "expected label after goto, found %s", p.tok)
			return &ast.EmptyStmt{SemiPos: pos}
		}
		label := p.tok.Lit
		p.advance()
		return &ast.GotoStmt{GotoPos: pos, Label: label}
	case token.Ident:
		return p.parseSimpleStmt()
	case token.Semi, token.End, token.Until, token.Else:
		return &ast.EmptyStmt{SemiPos: p.tok.Pos}
	}
	p.errorf(p.tok.Pos, "expected statement, found %s", p.tok)
	pos := p.tok.Pos
	p.advance()
	return &ast.EmptyStmt{SemiPos: pos}
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.If)
	cond := p.parseExpr()
	p.expect(token.Then)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.Else) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{IfPos: pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseWhile() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.While)
	cond := p.parseExpr()
	p.expect(token.Do)
	body := p.parseStmt()
	return &ast.WhileStmt{WhilePos: pos, Cond: cond, Body: body}
}

func (p *parser) parseRepeat() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.Repeat)
	stmts := p.parseStmtList(token.Until)
	p.expect(token.Until)
	cond := p.parseExpr()
	return &ast.RepeatStmt{RepeatPos: pos, Stmts: stmts, Cond: cond}
}

func (p *parser) parseFor() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.For)
	v := &ast.Ident{NamePos: p.tok.Pos, Name: p.expectIdent()}
	p.expect(token.Assign)
	from := p.parseExpr()
	down := false
	switch p.tok.Kind {
	case token.To:
		p.advance()
	case token.Downto:
		down = true
		p.advance()
	default:
		p.errorf(p.tok.Pos, "expected 'to' or 'downto', found %s", p.tok)
	}
	limit := p.parseExpr()
	p.expect(token.Do)
	body := p.parseStmt()
	return &ast.ForStmt{ForPos: pos, Var: v, From: from, Limit: limit, Down: down, Body: body}
}

func (p *parser) parseCase() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.Case)
	expr := p.parseExpr()
	p.expect(token.Of)
	cs := &ast.CaseStmt{CasePos: pos, Expr: expr}
	for {
		if p.tok.Kind == token.End || p.tok.Kind == token.Else || p.tok.Kind == token.EOF {
			break
		}
		armPos := p.tok.Pos
		var consts []ast.Expr
		consts = append(consts, p.parseExpr())
		for p.accept(token.Comma) {
			consts = append(consts, p.parseExpr())
		}
		p.expect(token.Colon)
		body := p.parseStmt()
		cs.Arms = append(cs.Arms, &ast.CaseArm{ArmPos: armPos, Consts: consts, Body: body})
		if !p.accept(token.Semi) {
			break
		}
	}
	if p.accept(token.Else) {
		cs.Else = p.parseStmt()
		p.accept(token.Semi)
	}
	p.expect(token.End)
	return cs
}

// parseSimpleStmt parses an assignment or a procedure call.
func (p *parser) parseSimpleStmt() ast.Stmt {
	pos := p.tok.Pos
	name := p.expectIdent()
	// Procedure call with arguments.
	if p.tok.Kind == token.LParen {
		args := p.parseArgs()
		return &ast.CallStmt{CallPos: pos, Name: name, Args: args}
	}
	// Designator for assignment target.
	var lhs ast.Expr = &ast.Ident{NamePos: pos, Name: name}
	lhs = p.parseDesignatorSuffix(lhs)
	if p.accept(token.Assign) {
		rhs := p.parseExpr()
		return &ast.AssignStmt{Lhs: lhs, Rhs: rhs}
	}
	// Bare identifier: parameterless procedure call.
	if _, ok := lhs.(*ast.Ident); ok {
		return &ast.CallStmt{CallPos: pos, Name: name}
	}
	p.errorf(p.tok.Pos, "expected ':=' in assignment, found %s", p.tok)
	return &ast.EmptyStmt{SemiPos: pos}
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LParen)
	var args []ast.Expr
	if p.tok.Kind != token.RParen {
		args = append(args, p.parseExpr())
		for p.accept(token.Comma) {
			args = append(args, p.parseExpr())
		}
	}
	p.expect(token.RParen)
	return args
}

func (p *parser) parseDesignatorSuffix(x ast.Expr) ast.Expr {
	for {
		switch p.tok.Kind {
		case token.LBracket:
			p.advance()
			var idx []ast.Expr
			idx = append(idx, p.parseExpr())
			for p.accept(token.Comma) {
				idx = append(idx, p.parseExpr())
			}
			p.expect(token.RBracket)
			x = &ast.IndexExpr{X: x, Indices: idx}
		case token.Period:
			p.advance()
			x = &ast.FieldExpr{X: x, Field: p.expectIdent()}
		default:
			return x
		}
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() ast.Expr {
	return p.parseBinary(1)
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := p.tok.Kind.Precedence()
		if prec < minPrec {
			return x
		}
		op := p.tok.Kind
		p.advance()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	p.enter(p.tok.Pos)
	defer p.leave()
	switch p.tok.Kind {
	case token.Plus, token.Minus:
		pos := p.tok.Pos
		op := p.tok.Kind
		p.advance()
		return &ast.UnaryExpr{OpPos: pos, Op: op, X: p.parseUnary()}
	case token.Not:
		pos := p.tok.Pos
		p.advance()
		return &ast.UnaryExpr{OpPos: pos, Op: token.Not, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.tok.Kind {
	case token.IntLit:
		v, err := strconv.ParseInt(p.tok.Lit, 10, 64)
		if err != nil {
			p.errorf(p.tok.Pos, "bad integer literal %q", p.tok.Lit)
		}
		e := &ast.IntLit{LitPos: p.tok.Pos, Value: v}
		p.advance()
		return e
	case token.RealLit:
		v, err := strconv.ParseFloat(p.tok.Lit, 64)
		if err != nil {
			p.errorf(p.tok.Pos, "bad real literal %q", p.tok.Lit)
		}
		e := &ast.RealLit{LitPos: p.tok.Pos, Value: v, Text: p.tok.Lit}
		p.advance()
		return e
	case token.StringLit:
		e := &ast.StringLit{LitPos: p.tok.Pos, Value: p.tok.Lit}
		p.advance()
		return e
	case token.LParen:
		p.advance()
		e := p.parseExpr()
		p.expect(token.RParen)
		return e
	case token.LBracket:
		pos := p.tok.Pos
		p.advance()
		lit := &ast.SetLit{LitPos: pos}
		if p.tok.Kind != token.RBracket {
			lit.Elems = append(lit.Elems, p.parseExpr())
			for p.accept(token.Comma) {
				lit.Elems = append(lit.Elems, p.parseExpr())
			}
		}
		p.expect(token.RBracket)
		return lit
	case token.Ident:
		pos := p.tok.Pos
		name := p.tok.Lit
		p.advance()
		if p.tok.Kind == token.LParen {
			args := p.parseArgs()
			return &ast.CallExpr{CallPos: pos, Name: name, Args: args}
		}
		return p.parseDesignatorSuffix(&ast.Ident{NamePos: pos, Name: name})
	}
	p.errorf(p.tok.Pos, "expected expression, found %s", p.tok)
	e := &ast.IntLit{LitPos: p.tok.Pos, Value: 0}
	if p.tok.Kind != token.EOF {
		p.advance()
	}
	return e
}

// MustParse parses src and panics on error; intended for tests and
// embedded example programs that are known to be valid.
func MustParse(file, src string) *ast.Program {
	prog, err := ParseProgram(file, src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse(%s): %v", file, err))
	}
	return prog
}
