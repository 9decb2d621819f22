package lint

import (
	"fmt"
	"math"

	"gadt/internal/analysis/absint"
	"gadt/internal/analysis/cfg"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/token"
	"gadt/internal/pascal/types"
)

// The P012–P015 checks consult the abstract-interpretation result: they
// report only facts the interval/constant analysis proves on every
// execution, so unlike the dataflow anomalies they carry no "may"
// hedging — a finding here is a definite property of the program.

// readsVariable reports whether the expression reads at least one
// variable. Conditions built purely from literals and named constants
// (`while true do`) are deliberate idiom, not derived facts worth
// reporting.
func readsVariable(cx *Context, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && cx.Info.VarOf(id) != nil {
			found = true
		}
		return !found
	})
	return found
}

// describeVal renders a proven integer value for messages: "5" for a
// singleton, "5..9" for a wider interval.
func describeVal(v absint.Val) string {
	if b, ok := v.ConstBool(); ok {
		return fmt.Sprintf("%v", b)
	}
	lo, hi, _ := v.Bounds()
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}

// provenInt returns the finite bounds of a proven integer value; ok is
// false for ⊤/⊥/booleans and for intervals whose ends are the
// saturation sentinels (those encode "at least/at most", not a proof).
func provenInt(v absint.Val) (lo, hi int64, ok bool) {
	lo, hi, ok = v.Bounds()
	if !ok || lo == math.MinInt64 || hi == math.MaxInt64 {
		return 0, 0, false
	}
	return lo, hi, true
}

// ---------------------------------------------------------------------------
// P012 — constant branch conditions

// checkConstCond flags branch and loop conditions the value analysis
// proves always take the same way. The for-loop's synthetic bound check
// is excluded: a counted loop legitimately runs a fixed number of
// times.
func checkConstCond(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		for _, n := range cx.Graphs[r].Nodes {
			if n.Kind != cfg.Cond || !cx.Values.Reachable(n) {
				continue
			}
			if !readsVariable(cx, n.Cond) {
				continue
			}
			b, ok := cx.Values.EvalAt(n, n.Cond).ConstBool()
			if !ok {
				continue
			}
			out = append(out, Diagnostic{
				Pos: n.Cond.Pos(), End: maxPos(n.Cond), Severity: Warning, Code: "P012",
				Message: fmt.Sprintf("condition %s is always %v", printer.PrintExpr(n.Cond), b),
				Routine: r.Name,
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// P013 — provably out-of-range array indices

// checkIndexRange flags index expressions whose proven interval lies
// entirely outside the declared array bounds: the access faults on
// every execution that reaches it.
func checkIndexRange(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		if r.Block == nil {
			continue
		}
		ast.Inspect(r.Block.Body, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			e, ok := m.(*ast.IndexExpr)
			if !ok {
				return true
			}
			n := cx.Values.CoveringNode(e)
			if n == nil || !cx.Values.Reachable(n) {
				return true
			}
			t := cx.Info.TypeOf(e.X)
			for _, idx := range e.Indices {
				arr, ok := t.(*types.Array)
				if !ok {
					break
				}
				t = arr.Elem
				v := cx.Values.EvalAt(n, idx)
				lo, hi, ok := provenInt(v)
				if !ok || (hi >= arr.Lo && lo <= arr.Hi) {
					continue
				}
				out = append(out, Diagnostic{
					Pos: idx.Pos(), End: maxPos(idx), Severity: Error, Code: "P013",
					Message: fmt.Sprintf("index %s is always %s, outside the array bounds %d..%d",
						printer.PrintExpr(idx), describeVal(v), arr.Lo, arr.Hi),
					Routine: r.Name,
				})
			}
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// P014 — guaranteed division by zero

// checkDivByZero flags div/mod expressions whose right operand is
// provably zero: the expression faults on every execution that reaches
// it.
func checkDivByZero(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		if r.Block == nil {
			continue
		}
		ast.Inspect(r.Block.Body, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			e, ok := m.(*ast.BinaryExpr)
			if !ok || (e.Op != token.Div && e.Op != token.Mod) {
				return true
			}
			n := cx.Values.CoveringNode(e)
			if n == nil || !cx.Values.Reachable(n) {
				return true
			}
			if c, ok := cx.Values.EvalAt(n, e.Y).ConstInt(); ok && c == 0 {
				out = append(out, Diagnostic{
					Pos: e.Pos(), End: maxPos(e), Severity: Error, Code: "P014",
					Message: fmt.Sprintf("right operand of %s is always zero", e.Op),
					Routine: r.Name,
				})
			}
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// P015 — stores proven to rewrite the value already held

// checkRedundantStore flags whole-variable assignments whose right-hand
// side provably equals the value the variable already holds at that
// point, so the store cannot change the state. This complements P003:
// a store can be live (the variable is read later) yet still redundant.
func checkRedundantStore(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		fl := cx.Flows[r]
		for _, n := range cx.Graphs[r].Nodes {
			if n.Kind != cfg.Stmt || !cx.Values.Reachable(n) {
				continue
			}
			s, ok := n.Stmt.(*ast.AssignStmt)
			if !ok {
				continue
			}
			if _, whole := s.Lhs.(*ast.Ident); !whole {
				continue
			}
			v := cx.Info.VarOf(s.Lhs)
			if v == nil {
				continue
			}
			// A store reached only by the synthetic initial definition is
			// an initializer: it "rewrites" the runtime's zero value, but
			// spelling the initial value out is good style, not an anomaly.
			if fl.SyntheticOnly(n, v) {
				continue
			}
			cur := cx.Values.VarAt(n, v)
			next := cx.Values.EvalAt(n, s.Rhs)
			same := false
			if lo, hi, ok := provenInt(cur); ok && lo == hi && cur.Equal(next) {
				same = true
			} else if b, ok := cur.ConstBool(); ok {
				if b2, ok2 := next.ConstBool(); ok2 && b == b2 {
					same = true
				}
			}
			if !same {
				continue
			}
			out = append(out, Diagnostic{
				Pos: s.Pos(), End: maxPos(s), Severity: Info, Code: "P015",
				Message: fmt.Sprintf("%s already holds %s here: the store cannot change it",
					v.Name, describeVal(next)),
				Routine: r.Name,
			})
		}
	}
	return out
}
