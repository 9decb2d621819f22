// Package defuse classifies variable occurrences in statements and
// expressions as definitions or uses, at whole-variable granularity
// (array/record elements count as their base variable, the granularity
// the paper's slicing uses).
//
// Call effects are pluggable: a Resolver (normally the interprocedural
// side-effect analysis) supplies the variables a call site defines and
// uses from the caller's perspective. With a nil Resolver, calls
// contribute only the uses syntactically present in their argument
// expressions — that syntactic-only mode is what the side-effect
// analysis itself bootstraps from.
//
// The package also holds the analyses' bit sets: Set for variables,
// BitSet and BitSets for state indexed by node, variable or definition.
package defuse

import (
	"gadt/internal/analysis/cfg"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// Resolver supplies interprocedural call effects.
type Resolver interface {
	// CallDefs returns the caller-visible variables the call at site may
	// modify (bound var/out actuals plus global side effects).
	CallDefs(site ast.Node) []*sem.VarSym
	// CallUses returns the caller-visible variables the call may read
	// beyond its syntactic value-argument expressions (referenced
	// globals plus var actuals whose formals are read).
	CallUses(site ast.Node) []*sem.VarSym
}

// Set is an insertion-ordered set of variable symbols. A set holds the
// variables of one analysis, and the IDs of two analyses overlap. The
// zero value is an empty set.
//
// Most sets are built per statement and hold a few variables, so
// membership scans the elements; only a set of smallSet or more keeps
// one bit per sem.VarSym.ID.
type Set struct {
	order []*sem.VarSym
	bits  BitSet // valid once len(order) >= smallSet
}

// smallSet is the size from which a Set tests membership by bit.
const smallSet = 16

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Add inserts v and reports whether it was new; nil symbols are ignored.
func (s *Set) Add(v *sem.VarSym) bool {
	if v == nil || s.Has(v) {
		return false
	}
	s.order = append(s.order, v)
	switch n := len(s.order); {
	case n == smallSet:
		s.bits.Reset()
		for _, u := range s.order {
			s.bits.Set(u.ID)
		}
	case n > smallSet:
		s.bits.Set(v.ID)
	}
	return true
}

// AddAll inserts every element of vs.
func (s *Set) AddAll(vs []*sem.VarSym) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Has reports membership.
func (s *Set) Has(v *sem.VarSym) bool {
	if v == nil {
		return false
	}
	if len(s.order) >= smallSet {
		return s.bits.Has(v.ID)
	}
	for _, u := range s.order {
		if u == v {
			return true
		}
	}
	return false
}

// Reset empties the set, keeping its storage. Slices returned by Slice
// before the reset are overwritten as the set refills.
func (s *Set) Reset() { s.order = s.order[:0] }

// Slice returns the elements in insertion order.
func (s *Set) Slice() []*sem.VarSym { return s.order }

// Len returns the cardinality.
func (s *Set) Len() int { return len(s.order) }

// ExprUses collects the base variables read by expression e, including
// call effects via res, into uses; variables defined by embedded calls
// (function var parameters) go into defs.
func ExprUses(info *sem.Info, e ast.Expr, res Resolver, defs, uses *Set) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		switch sym := info.UseOf(e).(type) {
		case *sem.VarSym:
			uses.Add(sym)
			return
		case *sem.ConstSym:
			return
		default:
			_ = sym
		}
		// Parameterless function call.
		if callee := info.CallOf(e); callee != nil {
			callEffects(info, e, nil, callee, res, defs, uses)
		}
	case *ast.IntLit, *ast.RealLit, *ast.StringLit:
		return
	case *ast.BinaryExpr:
		ExprUses(info, e.X, res, defs, uses)
		ExprUses(info, e.Y, res, defs, uses)
	case *ast.UnaryExpr:
		ExprUses(info, e.X, res, defs, uses)
	case *ast.IndexExpr:
		ExprUses(info, e.X, res, defs, uses)
		for _, ie := range e.Indices {
			ExprUses(info, ie, res, defs, uses)
		}
	case *ast.FieldExpr:
		ExprUses(info, e.X, res, defs, uses)
	case *ast.CallExpr:
		if b := info.BuiltinOf(e); b != nil {
			for _, a := range e.Args {
				ExprUses(info, a, res, defs, uses)
			}
			return
		}
		callEffects(info, e, e.Args, info.CallOf(e), res, defs, uses)
	case *ast.SetLit:
		for _, el := range e.Elems {
			ExprUses(info, el, res, defs, uses)
		}
	}
}

// ExprUsesShallow collects uses like ExprUses but treats user-routine
// calls as opaque leaves: their arguments and effects are skipped. The
// SDG builder uses it so that call statements do not aggregate argument
// uses (those belong to actual-in nodes).
func ExprUsesShallow(info *sem.Info, e ast.Expr, uses *Set) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		if sym, ok := info.UseOf(e).(*sem.VarSym); ok {
			uses.Add(sym)
		}
	case *ast.BinaryExpr:
		ExprUsesShallow(info, e.X, uses)
		ExprUsesShallow(info, e.Y, uses)
	case *ast.UnaryExpr:
		ExprUsesShallow(info, e.X, uses)
	case *ast.IndexExpr:
		ExprUsesShallow(info, e.X, uses)
		for _, ie := range e.Indices {
			ExprUsesShallow(info, ie, uses)
		}
	case *ast.FieldExpr:
		ExprUsesShallow(info, e.X, uses)
	case *ast.CallExpr:
		if info.BuiltinOf(e) != nil {
			for _, a := range e.Args {
				ExprUsesShallow(info, a, uses)
			}
		}
		// User calls are opaque here.
	case *ast.SetLit:
		for _, el := range e.Elems {
			ExprUsesShallow(info, el, uses)
		}
	}
}

// callEffects adds the defs/uses of a user-routine call.
func callEffects(info *sem.Info, site ast.Node, args []ast.Expr, callee *sem.Routine, res Resolver, defs, uses *Set) {
	if callee == nil {
		for _, a := range args {
			ExprUses(info, a, res, defs, uses)
		}
		return
	}
	for i, a := range args {
		var mode ast.ParamMode
		if i < len(callee.Params) {
			mode = callee.Params[i].Mode
		}
		if mode == ast.Value {
			ExprUses(info, a, res, defs, uses)
			continue
		}
		// var/out argument: binding itself reads only the index
		// expressions of the designator; base-variable reads and writes
		// come from the resolver.
		designatorIndexUses(info, a, res, defs, uses)
	}
	if res != nil {
		defs.AddAll(res.CallDefs(site))
		uses.AddAll(res.CallUses(site))
	}
}

// designatorIndexUses collects uses appearing in index positions of a
// designator (the base variable itself is not a use).
func designatorIndexUses(info *sem.Info, e ast.Expr, res Resolver, defs, uses *Set) {
	switch e := e.(type) {
	case *ast.IndexExpr:
		designatorIndexUses(info, e.X, res, defs, uses)
		for _, ie := range e.Indices {
			ExprUses(info, ie, res, defs, uses)
		}
	case *ast.FieldExpr:
		designatorIndexUses(info, e.X, res, defs, uses)
	}
}

// Assign adds the defs/uses of an assignment statement to defs and uses.
func Assign(info *sem.Info, s *ast.AssignStmt, res Resolver, defs, uses *Set) {
	ExprUses(info, s.Rhs, res, defs, uses)
	base := info.VarOf(s.Lhs)
	// Index expressions of the target are uses; a partial update also
	// uses the old value of the base.
	if _, isIdent := s.Lhs.(*ast.Ident); !isIdent {
		designatorIndexUses(info, s.Lhs, res, defs, uses)
		uses.Add(base)
	}
	defs.Add(base)
}

// CallStmt adds the defs/uses of a procedure call statement, including
// read/write builtins, to defs and uses.
func CallStmt(info *sem.Info, s *ast.CallStmt, res Resolver, defs, uses *Set) {
	if b := info.BuiltinOf(s); b != nil {
		switch b.Name {
		case "read", "readln":
			for _, a := range s.Args {
				designatorIndexUses(info, a, res, defs, uses)
				if base := info.VarOf(a); base != nil {
					if _, isIdent := a.(*ast.Ident); !isIdent {
						uses.Add(base) // partial update
					}
					defs.Add(base)
				}
			}
		default: // write, writeln
			for _, a := range s.Args {
				ExprUses(info, a, res, defs, uses)
			}
		}
		return
	}
	callEffects(info, s, s.Args, info.CallOf(s), res, defs, uses)
}

// Node adds the defs/uses of a CFG node to defs and uses. Entry/Exit
// nodes add nothing; the dataflow layer adds parameter and liveness
// boundary effects itself.
func Node(info *sem.Info, n *cfg.Node, res Resolver, defs, uses *Set) {
	switch n.Kind {
	case cfg.Stmt:
		switch s := n.Stmt.(type) {
		case *ast.AssignStmt:
			Assign(info, s, res, defs, uses)
		case *ast.CallStmt:
			CallStmt(info, s, res, defs, uses)
		}
	case cfg.Cond:
		ExprUses(info, n.Cond, res, defs, uses)
	case cfg.ForInit:
		fs := n.Stmt.(*ast.ForStmt)
		ExprUses(info, fs.From, res, defs, uses)
		defs.Add(info.VarOf(fs.Var))
	case cfg.ForCond:
		fs := n.Stmt.(*ast.ForStmt)
		uses.Add(info.VarOf(fs.Var))
		ExprUses(info, fs.Limit, res, defs, uses)
	case cfg.ForIncr:
		v := info.VarOf(n.Stmt.(*ast.ForStmt).Var)
		uses.Add(v)
		defs.Add(v)
	}
}
