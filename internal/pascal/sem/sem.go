package sem

import (
	"fmt"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/token"
	"gadt/internal/pascal/types"
)

// Error is a semantic error at a position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects semantic errors.
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

// Err returns nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Info is the result of semantic analysis.
type Info struct {
	Program  *ast.Program
	Main     *Routine   // pseudo-routine for the program block
	Routines []*Routine // all routines including Main, in pre-order

	RoutineOf map[*ast.Routine]*Routine // declaration → symbol
	GotoTgt   map[*ast.GotoStmt]*LabelInfo

	Errors ErrorList

	// NumVars counts the variables this analysis declared: their IDs
	// are 0 to NumVars-1.
	NumVars int

	// Resolution and type table, indexed by the UID Analyze gives
	// every expression and CallStmt. A node has at most one resolution
	// (a variable or constant use, a *Routine or a *Builtin) and at most
	// one type, so one entry holds both.
	tab []entry
}

// entry is what one analysis knows about the node numbered with its
// index. owner is the UID field of the node this analysis resolved or
// typed under that number (nil if none), so a node of another program,
// or one added after this analysis, reads as unresolved; comparing
// field addresses keeps interface compares off the interpreter's hot
// path.
type entry struct {
	owner *int
	res   Symbol
	typ   types.Type
}

// UseOf resolves an identifier use to its variable or constant symbol
// (nil when e is not a resolved use in this analysis).
func (in *Info) UseOf(e *ast.Ident) Symbol {
	sym := in.resolution(e)
	if _, ok := sym.(*VarSym); ok {
		return sym
	}
	if _, ok := sym.(*ConstSym); ok {
		return sym
	}
	return nil
}

// resolution returns what this analysis resolved identifier e to: a
// variable, a constant or, for a parameterless function call, a routine
// (nil when e was not resolved under it). Single type assertions on its
// result compile to one pointer compare, which keeps UseOf cheap.
func (in *Info) resolution(e *ast.Ident) Symbol {
	if uid := e.UID; uid < len(in.tab) && in.tab[uid].owner == &e.UID {
		return in.tab[uid].res
	}
	return nil
}

// CallOf resolves the user-routine target of a CallStmt, CallExpr or
// parameterless-function Ident (nil for builtins, unresolved calls and
// any other node).
func (in *Info) CallOf(n ast.Node) *Routine {
	r, _ := in.tab[in.uidOf(n)].res.(*Routine)
	return r
}

// BuiltinOf resolves the predeclared target of a CallStmt or CallExpr
// (nil for user calls, unresolved calls and any other node).
func (in *Info) BuiltinOf(n ast.Node) *Builtin {
	b, _ := in.tab[in.uidOf(n)].res.(*Builtin)
	return b
}

// TypeOf returns the type this analysis gave expression e (nil when e
// was not checked under it).
func (in *Info) TypeOf(e ast.Expr) types.Type {
	return in.tab[in.uidOf(e)].typ
}

// uidOf returns n's UID when this analysis resolved or typed n under
// it, else 0 (whose entry is always empty).
func (in *Info) uidOf(n ast.Node) int {
	if p := uidField(n); p != nil && *p < len(in.tab) && in.tab[*p].owner == p {
		return *p
	}
	return 0
}

// uidField returns the UID field of an expression or CallStmt (nil for
// any other node).
func uidField(n ast.Node) *int {
	switch n := n.(type) {
	case *ast.Ident:
		return &n.UID
	case *ast.CallExpr:
		return &n.UID
	case *ast.CallStmt:
		return &n.UID
	case *ast.IntLit:
		return &n.UID
	case *ast.RealLit:
		return &n.UID
	case *ast.StringLit:
		return &n.UID
	case *ast.BinaryExpr:
		return &n.UID
	case *ast.UnaryExpr:
		return &n.UID
	case *ast.IndexExpr:
		return &n.UID
	case *ast.FieldExpr:
		return &n.UID
	case *ast.SetLit:
		return &n.UID
	}
	return nil
}

// numberNodes gives every expression and CallStmt of prog without a UID
// the next number from prog's counter, then sizes the table to cover
// every UID the program has handed out. UIDs are never reassigned, so
// an earlier Info of the same program stays valid.
func (in *Info) numberNodes(prog *ast.Program) {
	ast.Inspect(prog, func(n ast.Node) bool {
		if p := uidField(n); p != nil && *p == 0 {
			prog.UIDs++
			*p = prog.UIDs
		}
		return true
	})
	in.tab = make([]entry, prog.UIDs+1) // slot 0 stays empty
}

// resolve records n's resolution (a use's symbol or a call's target).
func (in *Info) resolve(n ast.Node, sym Symbol) {
	p := uidField(n)
	in.tab[*p].owner, in.tab[*p].res = p, sym
}

func (in *Info) setType(e ast.Expr, t types.Type) {
	p := uidField(e)
	in.tab[*p].owner, in.tab[*p].typ = p, t
}

// LookupRoutine finds a routine symbol by name, preferring the first
// declared match in pre-order. Returns nil when not found.
func (in *Info) LookupRoutine(name string) *Routine {
	for _, r := range in.Routines {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// VarOf resolves the base variable of a designator expression (an
// identifier possibly wrapped in index/field selections). Returns nil
// when e is not a designator rooted at a variable.
func (in *Info) VarOf(e ast.Expr) *VarSym {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, _ := in.resolution(x).(*VarSym)
			return v
		case *ast.IndexExpr:
			e = x.X
		case *ast.FieldExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Analyze resolves and type-checks prog. The returned Info is usable even
// when errors are present (err is the non-empty error list).
func Analyze(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Program:   prog,
			RoutineOf: make(map[*ast.Routine]*Routine),
			GotoTgt:   make(map[*ast.GotoStmt]*LabelInfo),
		},
	}
	c.info.numberNodes(prog)

	main := &Routine{Name: prog.Name, Kind: ast.ProcKind, Block: prog.Block, Level: 0, Labels: make(map[string]*LabelInfo)}
	c.info.Main = main
	c.info.Routines = append(c.info.Routines, main)
	c.routineScope(main, universe)

	for _, r := range c.info.Routines {
		LayoutRoutine(r)
	}

	return c.info, c.info.Errors.Err()
}

// LayoutRoutine (re)computes the activation-record layout of a routine,
// assigning each variable a dense frame-slot index in AllVars order
// (params, result, locals). Analyze runs it on every routine; callers
// that add variable symbols to a routine after analysis must rerun it
// before interpreting.
func LayoutRoutine(r *Routine) {
	vars := r.AllVars()
	for i, v := range vars {
		v.Slot = i
	}
	r.Frame = FrameLayout{Vars: vars}
}

type checker struct {
	info *Info
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.info.Errors = append(c.info.Errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// universe is the scope of the predeclared types, constants and
// routines. It is built once and only read: every analysis declares its
// program's names in child scopes, so concurrent analyses share it.
var universe = newUniverse()

func newUniverse() *scope {
	u := newScope(nil)
	u.declare("integer", &TypeSym{Name: "integer", Type: types.Integer})
	u.declare("real", &TypeSym{Name: "real", Type: types.RealT})
	u.declare("boolean", &TypeSym{Name: "boolean", Type: types.Boolean})
	u.declare("string", &TypeSym{Name: "string", Type: types.String})
	u.declare("true", &ConstSym{Name: "true", Type: types.Boolean, Value: true})
	u.declare("false", &ConstSym{Name: "false", Type: types.Boolean, Value: false})
	u.declare("maxint", &ConstSym{Name: "maxint", Type: types.Integer, Value: int64(1<<63 - 1)})
	for name, b := range builtins {
		u.declare(name, b)
	}
	return u
}

// newVar gives v the analysis's next variable ID and returns it.
func (c *checker) newVar(v *VarSym) *VarSym {
	v.ID = c.info.NumVars
	c.info.NumVars++
	return v
}

// routineScope builds the scope of routine r (declared in parent scope
// outer), resolves its declarations, nested routines, and body.
func (c *checker) routineScope(r *Routine, outer *scope) {
	sc := newScope(outer)

	// Formal parameters.
	if r.Decl != nil {
		idx := 0
		for _, group := range r.Decl.Params {
			pt := c.resolveTypeExpr(group.Type, sc)
			for _, name := range group.Names {
				v := c.newVar(&VarSym{Name: name, Type: pt, Kind: ParamVar, Mode: group.Mode, Owner: r, Decl: group, Pos: group.Pos(), Index: idx})
				idx++
				if prev := sc.declare(name, v); prev != nil {
					c.errorf(group.Pos(), "duplicate parameter %s in %s", name, r.Name)
				}
				r.Params = append(r.Params, v)
			}
		}
		if r.Kind == ast.FuncKind {
			rt := c.resolveTypeExpr(r.Decl.Result, sc)
			r.Result = c.newVar(&VarSym{Name: r.Name, Type: rt, Kind: ResultVar, Owner: r, Decl: r.Decl, Pos: r.Decl.Pos()})
			// Note: the function name itself resolves to the routine;
			// assignment to it is special-cased in checkAssign.
		}
	}

	b := r.Block
	// Labels.
	for _, l := range b.Labels {
		li := &LabelInfo{Name: l.Name, Routine: r}
		if _, dup := r.Labels[l.Name]; dup {
			c.errorf(l.Pos(), "duplicate label %s", l.Name)
		}
		r.Labels[l.Name] = li
	}
	// Constants.
	for _, d := range b.Consts {
		t, v := c.constValue(d.Value, sc)
		sym := &ConstSym{Name: d.Name, Type: t, Value: v, Pos: d.Pos()}
		if prev := sc.declare(d.Name, sym); prev != nil {
			c.errorf(d.Pos(), "duplicate declaration of %s", d.Name)
		}
	}
	// Types.
	for _, d := range b.Types {
		t := c.resolveTypeExpr(d.Type, sc)
		sym := &TypeSym{Name: d.Name, Type: t, Pos: d.Pos()}
		if prev := sc.declare(d.Name, sym); prev != nil {
			c.errorf(d.Pos(), "duplicate declaration of %s", d.Name)
		}
	}
	// Variables.
	idx := 0
	for _, d := range b.Vars {
		t := c.resolveTypeExpr(d.Type, sc)
		for _, name := range d.Names {
			v := c.newVar(&VarSym{Name: name, Type: t, Kind: LocalVar, Owner: r, Decl: d, Pos: d.Pos(), Index: idx})
			idx++
			if prev := sc.declare(name, v); prev != nil {
				c.errorf(d.Pos(), "duplicate declaration of %s", name)
			}
			r.Locals = append(r.Locals, v)
		}
	}
	// Nested routines: declare all names first (allowing mutual
	// recursion without forward declarations, a small liberalization of
	// Pascal), then analyze bodies.
	var nested []*Routine
	for _, rd := range b.Routines {
		nr := &Routine{
			Name:      rd.Name,
			Kind:      rd.Kind,
			Decl:      rd,
			Block:     rd.Block,
			Parent:    r,
			Level:     r.Level + 1,
			Labels:    make(map[string]*LabelInfo),
			Synthetic: rd.Synthetic,
		}
		c.info.RoutineOf[rd] = nr
		if prev := sc.declare(rd.Name, nr); prev != nil {
			c.errorf(rd.Pos(), "duplicate declaration of %s", rd.Name)
		}
		r.Nested = append(r.Nested, nr)
		nested = append(nested, nr)
	}
	for _, nr := range nested {
		c.info.Routines = append(c.info.Routines, nr)
		c.routineScope(nr, sc)
	}

	// Body.
	c.checkStmt(b.Body, r, sc)

	// All gotos inside this routine chain were resolved during
	// checkStmt; verify that every declared label was placed.
	for _, li := range r.Labels {
		if li.Placement == nil {
			c.errorf(r.SymPos(), "label %s declared but not placed in %s", li.Name, r.Name)
		}
	}
}

func (c *checker) resolveTypeExpr(te ast.TypeExpr, sc *scope) types.Type {
	switch te := te.(type) {
	case nil:
		return types.Bad
	case *ast.NamedType:
		sym := sc.lookup(te.Name)
		if sym == nil {
			c.errorf(te.Pos(), "undeclared type %s", te.Name)
			return types.Bad
		}
		ts, ok := sym.(*TypeSym)
		if !ok {
			c.errorf(te.Pos(), "%s is not a type", te.Name)
			return types.Bad
		}
		return ts.Type
	case *ast.ArrayType:
		lo, loOK := c.constInt(te.Lo, sc)
		hi, hiOK := c.constInt(te.Hi, sc)
		elem := c.resolveTypeExpr(te.Elem, sc)
		if !loOK || !hiOK {
			return types.Bad
		}
		if hi < lo {
			c.errorf(te.Pos(), "array upper bound %d below lower bound %d", hi, lo)
			return types.Bad
		}
		return &types.Array{Lo: lo, Hi: hi, Elem: elem}
	case *ast.RecordType:
		rt := &types.Record{}
		seen := map[string]bool{}
		for _, f := range te.Fields {
			ft := c.resolveTypeExpr(f.Type, sc)
			for _, name := range f.Names {
				if seen[name] {
					c.errorf(f.Pos(), "duplicate field %s", name)
					continue
				}
				seen[name] = true
				rt.Fields = append(rt.Fields, types.Field{Name: name, Type: ft})
			}
		}
		return rt
	}
	return types.Bad
}

// constValue evaluates a compile-time constant expression.
func (c *checker) constValue(e ast.Expr, sc *scope) (types.Type, any) {
	switch e := e.(type) {
	case *ast.IntLit:
		return types.Integer, e.Value
	case *ast.RealLit:
		return types.RealT, e.Value
	case *ast.StringLit:
		return types.String, e.Value
	case *ast.Ident:
		if sym, ok := sc.lookup(e.Name).(*ConstSym); ok && sym != nil {
			c.info.resolve(e, sym)
			return sym.Type, sym.Value
		}
		c.errorf(e.Pos(), "%s is not a constant", e.Name)
		return types.Bad, nil
	case *ast.UnaryExpr:
		t, v := c.constValue(e.X, sc)
		switch v := v.(type) {
		case int64:
			if e.Op == token.Minus {
				return t, -v
			}
			if e.Op == token.Plus {
				return t, v
			}
		case float64:
			if e.Op == token.Minus {
				return t, -v
			}
			if e.Op == token.Plus {
				return t, v
			}
		case bool:
			if e.Op == token.Not {
				return t, !v
			}
		}
		c.errorf(e.Pos(), "invalid constant operand")
		return types.Bad, nil
	case *ast.BinaryExpr:
		_, x := c.constValue(e.X, sc)
		_, y := c.constValue(e.Y, sc)
		xi, xOK := x.(int64)
		yi, yOK := y.(int64)
		if xOK && yOK {
			switch e.Op {
			case token.Plus:
				return types.Integer, xi + yi
			case token.Minus:
				return types.Integer, xi - yi
			case token.Star:
				return types.Integer, xi * yi
			case token.Div:
				if yi != 0 {
					return types.Integer, xi / yi
				}
			}
		}
		c.errorf(e.Pos(), "unsupported constant expression")
		return types.Bad, nil
	}
	c.errorf(e.Pos(), "not a constant expression")
	return types.Bad, nil
}

func (c *checker) constInt(e ast.Expr, sc *scope) (int64, bool) {
	t, v := c.constValue(e, sc)
	if !types.IsInteger(t) {
		c.errorf(e.Pos(), "constant integer expected")
		return 0, false
	}
	i, ok := v.(int64)
	return i, ok
}

// ---------------------------------------------------------------------------
// Statement checking

func (c *checker) checkStmt(s ast.Stmt, r *Routine, sc *scope) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.CompoundStmt:
		for _, cs := range s.Stmts {
			c.checkStmt(cs, r, sc)
		}
	case *ast.AssignStmt:
		c.checkAssign(s, r, sc)
	case *ast.CallStmt:
		c.checkCall(s, s.Name, s.Args, s.Pos(), r, sc, true)
	case *ast.IfStmt:
		c.checkCond(s.Cond, r, sc)
		c.checkStmt(s.Then, r, sc)
		c.checkStmt(s.Else, r, sc)
	case *ast.WhileStmt:
		c.checkCond(s.Cond, r, sc)
		c.checkStmt(s.Body, r, sc)
	case *ast.RepeatStmt:
		for _, cs := range s.Stmts {
			c.checkStmt(cs, r, sc)
		}
		c.checkCond(s.Cond, r, sc)
	case *ast.ForStmt:
		vt := c.checkExpr(s.Var, r, sc)
		if !types.IsInteger(vt) && vt != types.Bad {
			c.errorf(s.Var.Pos(), "for-loop variable %s must be integer, have %s", s.Var.Name, vt)
		}
		if v := c.info.VarOf(s.Var); v == nil {
			c.errorf(s.Var.Pos(), "for-loop control %s is not a variable", s.Var.Name)
		}
		ft := c.checkExpr(s.From, r, sc)
		lt := c.checkExpr(s.Limit, r, sc)
		if !types.IsInteger(ft) && ft != types.Bad {
			c.errorf(s.From.Pos(), "for-loop bound must be integer, have %s", ft)
		}
		if !types.IsInteger(lt) && lt != types.Bad {
			c.errorf(s.Limit.Pos(), "for-loop bound must be integer, have %s", lt)
		}
		c.checkStmt(s.Body, r, sc)
	case *ast.CaseStmt:
		et := c.checkExpr(s.Expr, r, sc)
		for _, arm := range s.Arms {
			for _, ce := range arm.Consts {
				ct := c.checkExpr(ce, r, sc)
				if et != types.Bad && ct != types.Bad && !ct.Equal(et) {
					c.errorf(ce.Pos(), "case label type %s does not match selector type %s", ct, et)
				}
			}
			c.checkStmt(arm.Body, r, sc)
		}
		c.checkStmt(s.Else, r, sc)
	case *ast.GotoStmt:
		li := c.findLabel(r, s.Label)
		if li == nil {
			c.errorf(s.Pos(), "goto to undeclared label %s", s.Label)
			return
		}
		c.info.GotoTgt[s] = li
	case *ast.LabeledStmt:
		li, ok := r.Labels[s.Label]
		if !ok {
			c.errorf(s.Pos(), "label %s not declared in %s", s.Label, r.Name)
		} else if li.Placement != nil {
			c.errorf(s.Pos(), "label %s placed more than once", s.Label)
		} else {
			li.Placement = s
		}
		c.checkStmt(s.Stmt, r, sc)
	case *ast.EmptyStmt:
		// nothing
	}
}

func (c *checker) findLabel(r *Routine, name string) *LabelInfo {
	for ; r != nil; r = r.Parent {
		if li, ok := r.Labels[name]; ok {
			return li
		}
	}
	return nil
}

func (c *checker) checkCond(e ast.Expr, r *Routine, sc *scope) {
	t := c.checkExpr(e, r, sc)
	if !types.IsBoolean(t) && t != types.Bad {
		c.errorf(e.Pos(), "condition must be boolean, have %s", t)
	}
}

func (c *checker) checkAssign(s *ast.AssignStmt, r *Routine, sc *scope) {
	// Special case: assignment to the enclosing function's name sets the
	// result.
	if id, ok := s.Lhs.(*ast.Ident); ok {
		for fr := r; fr != nil; fr = fr.Parent {
			if fr.Kind == ast.FuncKind && fr.Name == id.Name && fr.Result != nil {
				c.info.resolve(id, fr.Result)
				c.info.setType(id, fr.Result.Type)
				rt := c.checkExpr(s.Rhs, r, sc)
				if rt != types.Bad && !types.AssignableTo(rt, fr.Result.Type) {
					c.errorf(s.Pos(), "cannot assign %s result to function %s of type %s", rt, fr.Name, fr.Result.Type)
				}
				return
			}
		}
	}
	lt := c.checkLValue(s.Lhs, r, sc)
	rt := c.checkExpr(s.Rhs, r, sc)
	if lt == types.Bad || rt == types.Bad {
		return
	}
	if !types.AssignableTo(rt, lt) {
		// Array displays are assignable to matching arrays.
		if sl, ok := s.Rhs.(*ast.SetLit); ok {
			if at, isArr := lt.(*types.Array); isArr && c.setLitFits(sl, at) {
				return
			}
		}
		c.errorf(s.Pos(), "cannot assign %s to %s", rt, lt)
	}
}

func (c *checker) setLitFits(sl *ast.SetLit, at *types.Array) bool {
	if int64(len(sl.Elems)) > at.Len() {
		return false
	}
	for _, e := range sl.Elems {
		t := c.info.TypeOf(e)
		if t == nil || !types.AssignableTo(t, at.Elem) {
			return false
		}
	}
	return true
}

// checkLValue checks a designator used as an assignment target or as a
// var/out argument and returns its type.
func (c *checker) checkLValue(e ast.Expr, r *Routine, sc *scope) types.Type {
	t := c.checkExpr(e, r, sc)
	v := c.info.VarOf(e)
	if v == nil {
		c.errorf(e.Pos(), "expression is not assignable")
		return types.Bad
	}
	return t
}

// checkCall checks a call to name with the given args. stmtCtx is true
// for procedure-statement position. Returns the result type (Bad for
// procedures).
func (c *checker) checkCall(node ast.Node, name string, args []ast.Expr, pos token.Pos, r *Routine, sc *scope, stmtCtx bool) types.Type {
	sym := sc.lookup(name)
	switch sym := sym.(type) {
	case nil:
		c.errorf(pos, "call to undeclared routine %s", name)
		for _, a := range args {
			c.checkExpr(a, r, sc)
		}
		return types.Bad
	case *Builtin:
		c.info.resolve(node, sym)
		return c.checkBuiltinCall(sym, args, pos, r, sc, stmtCtx)
	case *Routine:
		c.info.resolve(node, sym)
		if stmtCtx && sym.Kind == ast.FuncKind {
			c.errorf(pos, "function %s called as a procedure", name)
		}
		if !stmtCtx && sym.Kind == ast.ProcKind {
			c.errorf(pos, "procedure %s used in an expression", name)
		}
		if len(args) != len(sym.Params) {
			c.errorf(pos, "%s expects %d argument(s), got %d", name, len(sym.Params), len(args))
		}
		for i, a := range args {
			at := c.checkExpr(a, r, sc)
			if i >= len(sym.Params) {
				continue
			}
			p := sym.Params[i]
			if p.Mode != ast.Value {
				if v := c.info.VarOf(a); v == nil {
					c.errorf(a.Pos(), "argument %d of %s must be a variable (%s parameter %s)", i+1, name, p.Mode, p.Name)
					continue
				}
				if at != types.Bad && !at.Equal(p.Type) {
					c.errorf(a.Pos(), "argument %d of %s: %s parameter %s requires exactly %s, have %s", i+1, name, p.Mode, p.Name, p.Type, at)
				}
				continue
			}
			if at == types.Bad {
				continue
			}
			if !types.AssignableTo(at, p.Type) {
				if sl, ok := a.(*ast.SetLit); ok {
					if arr, isArr := p.Type.(*types.Array); isArr && c.setLitFits(sl, arr) {
						c.info.setType(a, arr)
						continue
					}
				}
				c.errorf(a.Pos(), "argument %d of %s: cannot pass %s as %s", i+1, name, at, p.Type)
			}
		}
		if sym.Kind == ast.FuncKind && sym.Result != nil {
			return sym.Result.Type
		}
		return types.Bad
	default:
		c.errorf(pos, "%s is not a routine", name)
		return types.Bad
	}
}

func (c *checker) checkBuiltinCall(b *Builtin, args []ast.Expr, pos token.Pos, r *Routine, sc *scope, stmtCtx bool) types.Type {
	if b.Proc && !stmtCtx {
		c.errorf(pos, "procedure %s used in an expression", b.Name)
	}
	switch b.Name {
	case "read", "readln":
		for _, a := range args {
			c.checkLValue(a, r, sc)
		}
		return types.Bad
	case "write", "writeln":
		for _, a := range args {
			c.checkExpr(a, r, sc)
		}
		return types.Bad
	}
	if stmtCtx {
		c.errorf(pos, "function %s called as a procedure", b.Name)
	}
	if len(args) != 1 {
		c.errorf(pos, "%s expects 1 argument, got %d", b.Name, len(args))
		return types.Bad
	}
	at := c.checkExpr(args[0], r, sc)
	switch b.Name {
	case "abs", "sqr":
		if !types.IsNumeric(at) && at != types.Bad {
			c.errorf(pos, "%s requires a numeric argument, have %s", b.Name, at)
			return types.Bad
		}
		return at
	case "odd":
		if !types.IsInteger(at) && at != types.Bad {
			c.errorf(pos, "odd requires an integer argument, have %s", at)
		}
		return types.Boolean
	case "trunc", "round":
		if !types.IsNumeric(at) && at != types.Bad {
			c.errorf(pos, "%s requires a numeric argument, have %s", b.Name, at)
		}
		return types.Integer
	}
	return types.Bad
}

// ---------------------------------------------------------------------------
// Expression checking

func (c *checker) checkExpr(e ast.Expr, r *Routine, sc *scope) types.Type {
	t := c.exprType(e, r, sc)
	c.info.setType(e, t)
	return t
}

func (c *checker) exprType(e ast.Expr, r *Routine, sc *scope) types.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return types.Integer
	case *ast.RealLit:
		return types.RealT
	case *ast.StringLit:
		return types.String
	case *ast.Ident:
		sym := sc.lookup(e.Name)
		switch sym := sym.(type) {
		case nil:
			c.errorf(e.Pos(), "undeclared identifier %s", e.Name)
			return types.Bad
		case *VarSym:
			c.info.resolve(e, sym)
			return sym.Type
		case *ConstSym:
			c.info.resolve(e, sym)
			return sym.Type
		case *Routine:
			// Parameterless function call in expression position.
			if sym.Kind == ast.FuncKind {
				if len(sym.Params) != 0 {
					c.errorf(e.Pos(), "function %s requires arguments", e.Name)
				}
				c.info.resolve(e, sym)
				if sym.Result != nil {
					return sym.Result.Type
				}
				return types.Bad
			}
			c.errorf(e.Pos(), "procedure %s used in an expression", e.Name)
			return types.Bad
		default:
			c.errorf(e.Pos(), "%s cannot be used in an expression", e.Name)
			return types.Bad
		}
	case *ast.BinaryExpr:
		xt := c.checkExpr(e.X, r, sc)
		yt := c.checkExpr(e.Y, r, sc)
		return c.binaryType(e, xt, yt)
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X, r, sc)
		switch e.Op {
		case token.Minus, token.Plus:
			if !types.IsNumeric(xt) && xt != types.Bad {
				c.errorf(e.Pos(), "unary %s requires a numeric operand, have %s", e.Op, xt)
				return types.Bad
			}
			return xt
		case token.Not:
			if !types.IsBoolean(xt) && xt != types.Bad {
				c.errorf(e.Pos(), "not requires a boolean operand, have %s", xt)
				return types.Bad
			}
			return types.Boolean
		}
		return types.Bad
	case *ast.IndexExpr:
		xt := c.checkExpr(e.X, r, sc)
		for _, ie := range e.Indices {
			it := c.checkExpr(ie, r, sc)
			if !types.IsInteger(it) && it != types.Bad {
				c.errorf(ie.Pos(), "array index must be integer, have %s", it)
			}
			at, ok := xt.(*types.Array)
			if !ok {
				if xt != types.Bad {
					c.errorf(e.Pos(), "indexing non-array type %s", xt)
				}
				return types.Bad
			}
			xt = at.Elem
		}
		return xt
	case *ast.FieldExpr:
		xt := c.checkExpr(e.X, r, sc)
		rt, ok := xt.(*types.Record)
		if !ok {
			if xt != types.Bad {
				c.errorf(e.Pos(), "selecting field %s of non-record type %s", e.Field, xt)
			}
			return types.Bad
		}
		ft := rt.Lookup(e.Field)
		if ft == nil {
			c.errorf(e.Pos(), "record has no field %s", e.Field)
			return types.Bad
		}
		return ft
	case *ast.CallExpr:
		return c.checkCall(e, e.Name, e.Args, e.Pos(), r, sc, false)
	case *ast.SetLit:
		// An array display: element type is the common element type;
		// the full array type is imposed by context (assignment or
		// parameter passing).
		var et types.Type = types.Bad
		for _, el := range e.Elems {
			t := c.checkExpr(el, r, sc)
			if et == types.Bad {
				et = t
			} else if t != types.Bad && !t.Equal(et) {
				c.errorf(el.Pos(), "mixed element types %s and %s in array display", et, t)
			}
		}
		if et == types.Bad && len(e.Elems) > 0 {
			return types.Bad
		}
		if len(e.Elems) == 0 {
			return &types.Array{Lo: 1, Hi: 0, Elem: types.Integer}
		}
		return &types.Array{Lo: 1, Hi: int64(len(e.Elems)), Elem: et}
	}
	return types.Bad
}

// binaryType types e from its operand types and reports an operator
// that does not apply to them. An operand already typed Bad was
// reported where it failed, so it adds no error here.
func (c *checker) binaryType(e *ast.BinaryExpr, xt, yt types.Type) types.Type {
	t := BinaryType(e.Op, xt, yt)
	if t != types.Bad || xt == types.Bad || yt == types.Bad {
		return t
	}
	switch e.Op {
	case token.Plus, token.Minus, token.Star, token.Slash:
		c.errorf(e.Pos(), "operator %s requires numeric operands, have %s and %s", e.Op, xt, yt)
	case token.Div, token.Mod:
		c.errorf(e.Pos(), "operator %s requires integer operands, have %s and %s", e.Op, xt, yt)
	case token.And, token.Or:
		c.errorf(e.Pos(), "operator %s requires boolean operands, have %s and %s", e.Op, xt, yt)
	case token.Eq, token.NotEq:
		c.errorf(e.Pos(), "cannot compare %s with %s", xt, yt)
	case token.Less, token.LessEq, token.Greater, token.GreatEq:
		c.errorf(e.Pos(), "cannot order %s against %s", xt, yt)
	}
	return t
}

// BinaryType returns the type of `x op y` for operands of types x and y,
// or types.Bad when op does not apply to them or either operand is Bad.
// It is the checker's whole rule for binary operators, so code that
// judges an operator edit without re-analyzing the program (package
// mutate) applies the same rule.
func BinaryType(op token.Kind, x, y types.Type) types.Type {
	if x == types.Bad || y == types.Bad {
		return types.Bad
	}
	switch op {
	case token.Plus, token.Minus, token.Star:
		// String concatenation with + is a common dialect extension.
		if op == token.Plus && x.Equal(types.String) && y.Equal(types.String) {
			return types.String
		}
		return types.Arith(x, y)
	case token.Slash:
		if types.IsNumeric(x) && types.IsNumeric(y) {
			return types.RealT
		}
	case token.Div, token.Mod:
		if types.IsInteger(x) && types.IsInteger(y) {
			return types.Integer
		}
	case token.And, token.Or:
		if types.IsBoolean(x) && types.IsBoolean(y) {
			return types.Boolean
		}
	case token.Eq, token.NotEq:
		if x.Equal(y) || types.Arith(x, y) != types.Bad {
			return types.Boolean
		}
	case token.Less, token.LessEq, token.Greater, token.GreatEq:
		if types.IsOrdered(x) && types.IsOrdered(y) && (x.Equal(y) || types.Arith(x, y) != types.Bad) {
			return types.Boolean
		}
	}
	return types.Bad
}
