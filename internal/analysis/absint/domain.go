// Package absint implements a flow-sensitive, interprocedural abstract
// interpreter over the Pascal-subset CFGs. Per program point it computes
// an abstract store mapping integer and boolean variables to values of a
// constant/interval lattice, with widening at loop heads, a bounded
// narrowing pass, branch refinement on conditions, and callgraph-ordered
// procedure summaries that reuse the sideeffect MOD/REF sets.
//
// The facts feed four consumers: equivalent-mutant triage in the
// mutation campaign, the provable lint checks P012–P015, infeasible-edge
// pruning before SDG construction, and the plint -pval dump.
package absint

import (
	"fmt"
	"math"
)

// negInf/posInf are the interval infinity sentinels. Saturating
// arithmetic keeps every computed bound inside [negInf, posInf].
const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

type valKind uint8

const (
	botVal  valKind = iota // unreachable / no value
	intVal                 // integer interval [Lo, Hi]
	boolVal                // boolean with may-true / may-false flags
	topVal                 // unknown value of any type
)

// Val is one element of the value lattice: ⊥, an integer interval, a
// boolean (possibly half-known), or ⊤. The zero Val is ⊥.
type Val struct {
	kind       valKind
	lo, hi     int64 // intVal only
	mayT, mayF bool  // boolVal only
}

// Constructors.

// Bot returns ⊥.
func Bot() Val { return Val{} }

// Top returns ⊤ (a value of unknown type).
func Top() Val { return Val{kind: topVal} }

// IntConst returns the singleton interval [v, v].
func IntConst(v int64) Val { return Val{kind: intVal, lo: v, hi: v} }

// IntRange returns the interval [lo, hi]; lo > hi yields ⊥.
func IntRange(lo, hi int64) Val {
	if lo > hi {
		return Bot()
	}
	return Val{kind: intVal, lo: lo, hi: hi}
}

// AnyInt returns the full integer interval.
func AnyInt() Val { return Val{kind: intVal, lo: negInf, hi: posInf} }

// BoolConst returns the definite boolean b.
func BoolConst(b bool) Val { return Val{kind: boolVal, mayT: b, mayF: !b} }

// AnyBool returns the unknown boolean.
func AnyBool() Val { return Val{kind: boolVal, mayT: true, mayF: true} }

// Predicates.

// IsBot reports v == ⊥.
func (v Val) IsBot() bool { return v.kind == botVal }

// IsTop reports v == ⊤.
func (v Val) IsTop() bool { return v.kind == topVal }

// IsInt reports whether v is an integer interval.
func (v Val) IsInt() bool { return v.kind == intVal }

// ConstInt returns the integer constant v denotes, if it is a singleton
// interval.
func (v Val) ConstInt() (int64, bool) {
	if v.kind == intVal && v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

// ConstBool returns the boolean constant v denotes, if definite.
func (v Val) ConstBool() (bool, bool) {
	if v.kind == boolVal && v.mayT != v.mayF {
		return v.mayT, true
	}
	return false, false
}

// Bounds returns the interval bounds of an integer value (the full range
// when v is not an interval; ⊥ has no bounds and reports false).
func (v Val) Bounds() (lo, hi int64, ok bool) {
	switch v.kind {
	case intVal:
		return v.lo, v.hi, true
	case botVal:
		return 0, 0, false
	}
	return negInf, posInf, true
}

// Lattice operations.

// Join returns the least upper bound of v and w.
func (v Val) Join(w Val) Val {
	switch {
	case v.kind == botVal:
		return w
	case w.kind == botVal:
		return v
	case v.kind != w.kind:
		return Top()
	}
	switch v.kind {
	case intVal:
		return Val{kind: intVal, lo: min64(v.lo, w.lo), hi: max64(v.hi, w.hi)}
	case boolVal:
		return Val{kind: boolVal, mayT: v.mayT || w.mayT, mayF: v.mayF || w.mayF}
	}
	return Top()
}

// Widen returns a sound extrapolation of old ∇ new: unstable interval
// bounds jump to the 0 threshold first, then to infinity, bounding every
// ascending chain.
func (v Val) Widen(w Val) Val {
	j := v.Join(w)
	if v.kind != intVal || j.kind != intVal {
		return j
	}
	out := j
	if j.lo < v.lo {
		if j.lo >= 0 {
			out.lo = 0
		} else {
			out.lo = negInf
		}
	}
	if j.hi > v.hi {
		if j.hi <= 0 {
			out.hi = 0
		} else {
			out.hi = posInf
		}
	}
	return out
}

// Meet returns the greatest lower bound (⊥ when disjoint). Used by
// branch refinement to intersect a variable with a condition-derived
// bound.
func (v Val) Meet(w Val) Val {
	switch {
	case v.kind == botVal || w.kind == botVal:
		return Bot()
	case v.kind == topVal:
		return w
	case w.kind == topVal:
		return v
	case v.kind != w.kind:
		return Bot()
	}
	switch v.kind {
	case intVal:
		return IntRange(max64(v.lo, w.lo), min64(v.hi, w.hi))
	case boolVal:
		out := Val{kind: boolVal, mayT: v.mayT && w.mayT, mayF: v.mayF && w.mayF}
		if !out.mayT && !out.mayF {
			return Bot()
		}
		return out
	}
	return Top()
}

// Equal reports lattice equality.
func (v Val) Equal(w Val) bool { return v == w }

// String renders the value for dumps: ⊥/⊤, "3", "[0..9]", "true",
// "bool" (unknown boolean).
func (v Val) String() string {
	switch v.kind {
	case botVal:
		return "bot"
	case topVal:
		return "top"
	case boolVal:
		if b, ok := v.ConstBool(); ok {
			return fmt.Sprintf("%v", b)
		}
		return "bool"
	}
	if c, ok := v.ConstInt(); ok {
		return fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("[%s..%s]", boundStr(v.lo), boundStr(v.hi))
}

func boundStr(b int64) string {
	switch b {
	case negInf:
		return "-inf"
	case posInf:
		return "+inf"
	}
	return fmt.Sprintf("%d", b)
}

// ---------------------------------------------------------------------------
// Saturating interval arithmetic

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// satAdd adds with ±inf absorption and overflow saturation.
func satAdd(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	// Overflow iff operands share a sign the sum lost.
	if a > 0 && b > 0 && s < 0 {
		return posInf
	}
	if a < 0 && b < 0 && s >= 0 {
		return negInf
	}
	return s
}

func satNeg(a int64) int64 {
	switch a {
	case negInf:
		return posInf
	case posInf:
		return negInf
	}
	return -a
}

func satSub(a, b int64) int64 { return satAdd(a, satNeg(b)) }

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	if a == negInf || a == posInf || b == negInf || b == posInf {
		if neg {
			return negInf
		}
		return posInf
	}
	p := a * b
	if p/b != a {
		if neg {
			return negInf
		}
		return posInf
	}
	return p
}

// satDiv truncates toward zero (Pascal div) for a finite-sign-safe pair;
// b must be nonzero.
func satDiv(a, b int64) int64 {
	if b == negInf || b == posInf {
		return 0 // |a/b| < 1 truncates to 0 for finite a; ±inf/±inf handled by caller corners
	}
	switch a {
	case negInf:
		if b < 0 {
			return posInf
		}
		return negInf
	case posInf:
		if b < 0 {
			return negInf
		}
		return posInf
	}
	if a == math.MinInt64 && b == -1 {
		return posInf
	}
	return a / b
}

// Arithmetic on values. Non-interval operands degrade to the full range;
// ⊥ is absorbing.

func liftInt(v Val) (Val, bool) {
	switch v.kind {
	case botVal:
		return Bot(), false
	case intVal:
		return v, true
	}
	return AnyInt(), true
}

func arith2(v, w Val, f func(a, b Val) Val) Val {
	a, ok := liftInt(v)
	if !ok {
		return Bot()
	}
	b, ok := liftInt(w)
	if !ok {
		return Bot()
	}
	return f(a, b)
}

// Add returns v + w.
func (v Val) Add(w Val) Val {
	return arith2(v, w, func(a, b Val) Val {
		return Val{kind: intVal, lo: satAdd(a.lo, b.lo), hi: satAdd(a.hi, b.hi)}
	})
}

// Sub returns v - w.
func (v Val) Sub(w Val) Val {
	return arith2(v, w, func(a, b Val) Val {
		return Val{kind: intVal, lo: satSub(a.lo, b.hi), hi: satSub(a.hi, b.lo)}
	})
}

// Neg returns -v.
func (v Val) Neg() Val {
	a, ok := liftInt(v)
	if !ok {
		return Bot()
	}
	return Val{kind: intVal, lo: satNeg(a.hi), hi: satNeg(a.lo)}
}

// Mul returns v * w.
func (v Val) Mul(w Val) Val {
	return arith2(v, w, func(a, b Val) Val {
		c1, c2 := satMul(a.lo, b.lo), satMul(a.lo, b.hi)
		c3, c4 := satMul(a.hi, b.lo), satMul(a.hi, b.hi)
		return Val{kind: intVal,
			lo: min64(min64(c1, c2), min64(c3, c4)),
			hi: max64(max64(c1, c2), max64(c3, c4))}
	})
}

// Div returns v div w (truncating). Division by zero is a runtime trap,
// so the result describes the executions that survive: the divisor is
// restricted to its nonzero part, and an all-zero divisor yields ⊥.
func (v Val) Div(w Val) Val {
	return arith2(v, w, func(a, b Val) Val {
		var out Val
		out = Bot()
		for _, d := range splitNonzero(b) {
			c1, c2 := satDiv(a.lo, d.lo), satDiv(a.lo, d.hi)
			c3, c4 := satDiv(a.hi, d.lo), satDiv(a.hi, d.hi)
			q := Val{kind: intVal,
				lo: min64(min64(c1, c2), min64(c3, c4)),
				hi: max64(max64(c1, c2), max64(c3, c4))}
			// ±inf dividends cover the whole range through a sign flip.
			if a.lo == negInf || a.hi == posInf {
				if d.lo == negInf || d.hi == posInf || d.lo < 0 != (d.hi < 0) {
					q = AnyInt()
				}
			}
			out = out.Join(q)
		}
		return out
	})
}

// Mod returns v mod w (sign follows the dividend, as the interpreter
// implements it). An all-zero divisor yields ⊥.
func (v Val) Mod(w Val) Val {
	return arith2(v, w, func(a, b Val) Val {
		var out Val
		out = Bot()
		for _, d := range splitNonzero(b) {
			m := max64(satSub(absBound(d.lo), 1), satSub(absBound(d.hi), 1))
			lo := max64(satNeg(m), min64(a.lo, 0))
			hi := min64(m, max64(a.hi, 0))
			out = out.Join(IntRange(lo, hi))
		}
		return out
	})
}

func absBound(b int64) int64 {
	if b == negInf || b == posInf {
		return posInf
	}
	if b < 0 {
		return satNeg(b)
	}
	return b
}

// splitNonzero returns the sign-homogeneous nonzero parts of an interval
// divisor (at most two).
func splitNonzero(b Val) []Val {
	var parts []Val
	if b.lo <= -1 {
		parts = append(parts, IntRange(b.lo, min64(b.hi, -1)))
	}
	if b.hi >= 1 {
		parts = append(parts, IntRange(max64(b.lo, 1), b.hi))
	}
	return parts
}

// Abs returns |v|.
func (v Val) Abs() Val {
	a, ok := liftInt(v)
	if !ok {
		return Bot()
	}
	if a.lo >= 0 {
		return a
	}
	if a.hi <= 0 {
		return a.Neg()
	}
	return Val{kind: intVal, lo: 0, hi: max64(satNeg(a.lo), a.hi)}
}

// Odd returns odd(v) as an abstract boolean.
func (v Val) Odd() Val {
	if v.kind == botVal {
		return Bot()
	}
	if c, ok := v.ConstInt(); ok {
		return BoolConst(c%2 != 0)
	}
	return AnyBool()
}

// Comparisons produce abstract booleans; a definite answer requires the
// intervals to be fully ordered or disjoint.

func cmpVals(v, w Val, lt, eq, gt bool) Val {
	a, ok := liftInt(v)
	if !ok {
		return Bot()
	}
	b, ok := liftInt(w)
	if !ok {
		return Bot()
	}
	mayLt := a.lo < b.hi
	mayEq := a.lo <= b.hi && b.lo <= a.hi
	mayGt := a.hi > b.lo
	mayT := lt && mayLt || eq && mayEq || gt && mayGt
	mayF := !lt && mayLt || !eq && mayEq || !gt && mayGt
	if !mayT {
		return BoolConst(false)
	}
	if !mayF {
		return BoolConst(true)
	}
	return AnyBool()
}

// Lt returns v < w as an abstract boolean; the remaining comparisons
// follow the same convention.
func (v Val) Lt(w Val) Val { return cmpVals(v, w, true, false, false) }
func (v Val) Le(w Val) Val { return cmpVals(v, w, true, true, false) }
func (v Val) Gt(w Val) Val { return cmpVals(v, w, false, false, true) }
func (v Val) Ge(w Val) Val { return cmpVals(v, w, false, true, true) }
func (v Val) EqV(w Val) Val {
	if v.kind == boolVal && w.kind == boolVal {
		vb, vok := v.ConstBool()
		wb, wok := w.ConstBool()
		if vok && wok {
			return BoolConst(vb == wb)
		}
		return AnyBool()
	}
	return cmpVals(v, w, false, true, false)
}
func (v Val) NeV(w Val) Val { return v.EqV(w).Not() }

// Boolean connectives.

func liftBool(v Val) (Val, bool) {
	switch v.kind {
	case botVal:
		return Bot(), false
	case boolVal:
		return v, true
	}
	return AnyBool(), true
}

// Not returns the boolean negation.
func (v Val) Not() Val {
	b, ok := liftBool(v)
	if !ok {
		return Bot()
	}
	return Val{kind: boolVal, mayT: b.mayF, mayF: b.mayT}
}

// And returns the conjunction.
func (v Val) And(w Val) Val {
	a, ok := liftBool(v)
	if !ok {
		return Bot()
	}
	b, ok := liftBool(w)
	if !ok {
		return Bot()
	}
	return Val{kind: boolVal, mayT: a.mayT && b.mayT, mayF: a.mayF || b.mayF}
}

// Or returns the disjunction.
func (v Val) Or(w Val) Val {
	a, ok := liftBool(v)
	if !ok {
		return Bot()
	}
	b, ok := liftBool(w)
	if !ok {
		return Bot()
	}
	return Val{kind: boolVal, mayT: a.mayT || b.mayT, mayF: a.mayF && b.mayF}
}
