// Static equivalent-mutant triage: classify mutants that provably
// cannot change observable behaviour on any input, using the abstract
// interpretation (package absint) of the ORIGINAL program only. Two
// rule families:
//
//   - unreachable site: the CFG node evaluating the mutated construct
//     can never execute, so the edit is invisible;
//   - same value: the original and mutated construct compute the
//     identical single value at every visit of the site — operator
//     flips with a definite outcome, var-swaps between variables
//     holding the same constant, and drops of stores that rewrite the
//     value already held.
//
// Every rule errs toward "not equivalent": a mutant is marked only
// when the abstract facts guarantee identical behaviour, including
// identical runtime faults (see the division guards below).
package mutate

import (
	"fmt"
	"math"

	"gadt/internal/analysis/absint"
	"gadt/internal/analysis/cfg"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
)

// TriageEquivalent runs the value analysis over the enumeration's
// original program and marks every mutant it can prove
// behaviour-preserving. Returns the number of mutants marked.
func TriageEquivalent(en *Enumeration) int {
	tr := &triager{
		info:   en.Info,
		res:    absint.Analyze(en.Info),
		writes: writePositions(en.Info),
	}
	marked := 0
	for _, m := range en.Mutants {
		if m.orig == nil || m.orig.node == nil {
			continue
		}
		if reason, ok := tr.equivalent(m.orig); ok {
			m.Equivalent, m.EquivReason = true, reason
			marked++
		}
	}
	return marked
}

type triager struct {
	info   *sem.Info
	res    *absint.Result
	writes map[*ast.Ident]bool
}

func (t *triager) equivalent(st *site) (string, bool) {
	n := t.res.CoveringNode(st.node)
	if n == nil {
		return "", false
	}
	if !t.res.Reachable(n) {
		// The edit sits in code no input reaches; control flow into the
		// site is decided by surrounding code the mutation left intact.
		return "site unreachable on all inputs", true
	}
	switch st.op {
	case RelFlip:
		return t.sameRel(n, st)
	case ArithFlip:
		return t.sameArith(n, st)
	case VarSwap:
		return t.sameVar(n, st)
	case DropStmt:
		return t.deadStore(n, st)
	}
	return "", false
}

// sameRel proves a relational flip equivalent when the comparison has
// the same definite outcome under both operators at every visit, e.g.
// `<` vs `<=` over operand intervals separated by a gap.
func (t *triager) sameRel(n *cfg.Node, st *site) (string, bool) {
	e := st.node.(*ast.BinaryExpr)
	vx, vy := t.res.EvalAt(n, e.X), t.res.EvalAt(n, e.Y)
	if !vx.IsInt() || !vy.IsInt() {
		return "", false
	}
	a, aok := relOutcome(e.Op, vx, vy)
	b, bok := relOutcome(st.altOp, vx, vy)
	if aok && bok && a == b {
		return fmt.Sprintf("comparison is %v under both operators", a), true
	}
	return "", false
}

func relOutcome(op token.Kind, x, y absint.Val) (bool, bool) {
	var v absint.Val
	switch op {
	case token.Eq:
		v = x.EqV(y)
	case token.NotEq:
		v = x.NeV(y)
	case token.Less:
		v = x.Lt(y)
	case token.LessEq:
		v = x.Le(y)
	case token.Greater:
		v = x.Gt(y)
	case token.GreatEq:
		v = x.Ge(y)
	default:
		return false, false
	}
	return v.ConstBool()
}

// sameArith proves an arithmetic flip equivalent when both operators
// yield the same exact constant on the operand intervals (2*2 vs 2+2).
// A div or mod on either side additionally needs the divisor provably
// nonzero, or the faulting behaviours could differ.
func (t *triager) sameArith(n *cfg.Node, st *site) (string, bool) {
	e := st.node.(*ast.BinaryExpr)
	vx, vy := t.res.EvalAt(n, e.X), t.res.EvalAt(n, e.Y)
	if !vx.IsInt() || !vy.IsInt() {
		return "", false
	}
	for _, op := range []token.Kind{e.Op, st.altOp} {
		if (op == token.Div || op == token.Mod) && !excludesZero(vy) {
			return "", false
		}
	}
	a, aok := arithOutcome(e.Op, vx, vy)
	b, bok := arithOutcome(st.altOp, vx, vy)
	if aok && bok && a == b {
		return fmt.Sprintf("both operators yield %d", a), true
	}
	return "", false
}

func arithOutcome(op token.Kind, x, y absint.Val) (int64, bool) {
	var v absint.Val
	switch op {
	case token.Plus:
		v = x.Add(y)
	case token.Minus:
		v = x.Sub(y)
	case token.Star:
		v = x.Mul(y)
	case token.Div:
		v = x.Div(y)
	case token.Mod:
		v = x.Mod(y)
	default:
		return 0, false
	}
	return exactConst(v)
}

// sameVar proves a var-swap equivalent when the identifier is a pure
// read and both variables provably hold the same constant at every
// visit of the site.
func (t *triager) sameVar(n *cfg.Node, st *site) (string, bool) {
	id := st.node.(*ast.Ident)
	if t.writes[id] {
		return "", false // write target: the swap redirects a store
	}
	v := t.info.VarOf(id)
	if v == nil || v.Owner == nil {
		return "", false
	}
	var w *sem.VarSym
	for _, cand := range v.Owner.AllVars() {
		if cand != v && cand.Name == st.altName {
			w = cand
			break
		}
	}
	if w == nil {
		return "", false
	}
	a, aok := exactConst(t.res.VarAt(n, v))
	b, bok := exactConst(t.res.VarAt(n, w))
	if aok && bok && a == b {
		return fmt.Sprintf("both variables hold %d at the site", a), true
	}
	return "", false
}

// deadStore proves a drop-stmt equivalent when the dropped statement
// is an assignment that rewrites the value the variable already holds,
// with a side-effect-free and fault-free right-hand side.
func (t *triager) deadStore(n *cfg.Node, st *site) (string, bool) {
	s, ok := st.node.(*ast.AssignStmt)
	if !ok {
		return "", false // dropping a call always loses its effects
	}
	id, ok := s.Lhs.(*ast.Ident)
	if !ok {
		return "", false // array/field stores are untracked
	}
	v := t.info.VarOf(id)
	if v == nil || !t.pureArith(s.Rhs) {
		return "", false
	}
	cur, cok := exactConst(t.res.VarAt(n, v))
	rhs, rok := exactConst(t.res.EvalAt(n, s.Rhs))
	if cok && rok && cur == rhs {
		return fmt.Sprintf("store rewrites the %d already held", cur), true
	}
	return "", false
}

// pureArith accepts expressions whose evaluation can neither fault nor
// have side effects: variable reads, integer literals, and +/-/* over
// them. Calls, division (may trap) and indexing (may be out of
// bounds) disqualify.
func (t *triager) pureArith(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		// A bare identifier may be a parameterless function call.
		return t.info.CallOf(e) == nil && t.info.VarOf(e) != nil
	case *ast.IntLit:
		return true
	case *ast.UnaryExpr:
		return (e.Op == token.Plus || e.Op == token.Minus) && t.pureArith(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.Plus, token.Minus, token.Star:
			return t.pureArith(e.X) && t.pureArith(e.Y)
		}
	}
	return false
}

// exactConst returns the single finite integer v denotes. Saturated
// bounds are rejected: they summarize values the domain could not
// represent exactly, so they must not witness an equality proof.
func exactConst(v absint.Val) (int64, bool) {
	c, ok := v.ConstInt()
	if !ok || c == math.MinInt64 || c == math.MaxInt64 {
		return 0, false
	}
	return c, true
}

func excludesZero(v absint.Val) bool {
	lo, hi, ok := v.Bounds()
	return ok && (lo > 0 || hi < 0)
}

// writePositions collects every identifier occurrence that is a write
// target: assignment left-hand sides (the base variable of an indexed
// store), for-loop variables, read/readln arguments, and actuals bound
// to var-parameters. Swapping such an occurrence redirects a store, so
// value-based triage never applies to it.
func writePositions(info *sem.Info) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	base := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				writes[x] = true
				return
			case *ast.IndexExpr:
				e = x.X
			case *ast.FieldExpr:
				e = x.X
			default:
				return
			}
		}
	}
	markCall := func(node ast.Node, args []ast.Expr) {
		if b := info.BuiltinOf(node); b != nil && (b.Code == sem.BuiltinRead || b.Code == sem.BuiltinReadln) {
			for _, a := range args {
				base(a)
			}
			return
		}
		r := info.CallOf(node)
		if r == nil {
			return
		}
		for i, a := range args {
			if i < len(r.Params) && r.Params[i].IsByRef() {
				base(a)
			}
		}
	}
	ast.Inspect(info.Program, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			base(n.Lhs)
		case *ast.ForStmt:
			writes[n.Var] = true
		case *ast.CallStmt:
			markCall(n, n.Args)
		case *ast.CallExpr:
			markCall(n, n.Args)
		}
		return true
	})
	return writes
}
