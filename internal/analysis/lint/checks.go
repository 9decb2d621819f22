package lint

import (
	"fmt"

	"gadt/internal/analysis/cfg"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
)

// nodePos returns the source position of a CFG node's construct.
func nodePos(n *cfg.Node) token.Pos {
	switch {
	case n.Stmt != nil:
		return n.Stmt.Pos()
	case n.Cond != nil:
		return n.Cond.Pos()
	}
	return token.Pos{}
}

// maxPos returns the largest position of any node in the subtree rooted
// at n — an approximation of the construct's end.
func maxPos(n ast.Node) token.Pos {
	var end token.Pos
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if p := c.Pos(); p.IsValid() && end.Before(p) {
			end = p
		}
		return true
	})
	return end
}

// localOf reports whether v is a plain local variable of r (not a
// parameter, not the function result). Program-level variables are
// excluded throughout the use-before-definition checks: the program
// block is the input boundary, and the runtime zero-initializes them
// (see interp.ZeroValue), so their first read is state, not anomaly.
func localOf(r *sem.Routine, v *sem.VarSym) bool {
	return v.Owner == r && v.Kind == sem.LocalVar && !r.IsProgram()
}

// ---------------------------------------------------------------------------
// P001 / P002 — use before definition

// checkUseBeforeDef flags uses of a routine's local variables that no
// real assignment can reach: every reaching definition is the synthetic
// initial definition planted at Entry by the reaching-defs analysis.
func checkUseBeforeDef(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		g, fl := cx.Graphs[r], cx.Flows[r]
		for _, n := range g.Nodes {
			if n == g.Entry || n == g.Exit {
				continue
			}
			for _, v := range fl.UsesAt[n.ID] {
				if !localOf(r, v) || !cx.observes(r, n, v) || !fl.SyntheticOnly(n, v) {
					continue
				}
				out = append(out, Diagnostic{
					Pos: nodePos(n), Severity: Error, Code: "P001",
					Message: fmt.Sprintf("variable %s is used but never assigned", v.Name),
					Routine: r.Name,
					Related: []Related{{Pos: v.Pos, Message: fmt.Sprintf("%s declared here", v.Name)}},
				})
			}
		}
	}
	return out
}

// checkMaybeUninit flags uses reachable on at least one path that
// bypasses every definition of the variable, while other paths do
// define it — the classic "ur" dataflow anomaly.
func checkMaybeUninit(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		if r.IsProgram() {
			continue
		}
		g, fl := cx.Graphs[r], cx.Flows[r]
		uninit := maybeUninit(cx, r)
		for _, n := range g.Nodes {
			if n == g.Entry || n == g.Exit {
				continue
			}
			for _, v := range fl.UsesAt[n.ID] {
				if !localOf(r, v) || !cx.observes(r, n, v) || !uninit.At(n.ID).Has(fl.VarIndex(v)) || fl.SyntheticOnly(n, v) {
					continue
				}
				out = append(out, Diagnostic{
					Pos: nodePos(n), Severity: Warning, Code: "P002",
					Message: fmt.Sprintf("variable %s may be used before it is assigned", v.Name),
					Routine: r.Name,
					Related: []Related{{Pos: v.Pos, Message: fmt.Sprintf("%s declared here", v.Name)}},
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// P003 — dead stores

// checkDeadStores flags whole-variable assignments whose value is not
// live out of the assigning node: no execution can observe it. Variables
// that are never read anywhere are left to P004 (one finding instead of
// one per store), and unreachable assignments to P006.
func checkDeadStores(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		g, live := cx.Graphs[r], cx.Lives[r]
		reach := g.Reachable()
		for _, n := range g.Nodes {
			if n.Kind != cfg.Stmt || !reach[n.ID] {
				continue
			}
			s, ok := n.Stmt.(*ast.AssignStmt)
			if !ok {
				continue
			}
			if _, whole := s.Lhs.(*ast.Ident); !whole {
				continue // partial updates keep the rest of the value observable
			}
			v := cx.Info.VarOf(s.Lhs)
			if v == nil || !cx.usedAnywhere.Has(v.ID) || live.LiveOut(n, v) {
				continue
			}
			out = append(out, Diagnostic{
				Pos: s.Pos(), End: maxPos(s), Severity: Warning, Code: "P003",
				Message: fmt.Sprintf("value assigned to %s is never used", v.Name),
				Routine: r.Name,
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// P004 / P005 — unused variables and parameters

func checkUnusedVars(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		for _, v := range r.Locals {
			if cx.usedAnywhere.Has(v.ID) {
				continue
			}
			msg := fmt.Sprintf("variable %s is declared but never used", v.Name)
			if cx.definedAnywhere.Has(v.ID) {
				msg = fmt.Sprintf("variable %s is assigned but its value is never used", v.Name)
			}
			out = append(out, Diagnostic{
				Pos: v.Pos, Severity: Warning, Code: "P004",
				Message: msg, Routine: r.Name,
			})
		}
	}
	return out
}

func checkUnusedParams(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		for _, p := range r.Params {
			if cx.usedAnywhere.Has(p.ID) || cx.definedAnywhere.Has(p.ID) {
				continue
			}
			out = append(out, Diagnostic{
				Pos: p.Pos, Severity: Warning, Code: "P005",
				Message: fmt.Sprintf("parameter %s of %s is never used", p.Name, r.Name),
				Routine: r.Name,
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// P006 — unreachable statements

// checkUnreachable reports maximal syntactic statements none of whose
// CFG nodes are reachable from Entry. Reporting the outermost dead
// statement keeps one finding per dead region instead of one per line.
func checkUnreachable(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		g := cx.Graphs[r]
		reach := g.Reachable()

		// stmtAlive: some CFG node of the statement subtree is reachable.
		stmtAlive := func(s ast.Stmt) (alive, hasNodes bool) {
			ast.Inspect(s, func(n ast.Node) bool {
				c, ok := n.(ast.Stmt)
				if !ok {
					return true
				}
				if nd := g.NodeOf[c]; nd != nil {
					hasNodes = true
					if reach[nd.ID] {
						alive = true
					}
				}
				for _, nd := range g.CondOf[c] {
					hasNodes = true
					if reach[nd.ID] {
						alive = true
					}
				}
				return !alive
			})
			return alive, hasNodes
		}

		report := func(s ast.Stmt) {
			out = append(out, Diagnostic{
				Pos: s.Pos(), End: maxPos(s), Severity: Warning, Code: "P006",
				Message: "unreachable statement", Routine: r.Name,
			})
		}
		// Report a maximal dead statement once and do not descend into
		// it; descend into partially-live statements.
		var top func(s ast.Stmt)
		top = func(s ast.Stmt) {
			if alive, has := stmtAlive(s); has && !alive {
				report(s)
				return
			}
			ast.Stmts(s, func(c *ast.Stmt) { top(*c) })
		}
		top(r.Block.Body)
	}
	return out
}

// ---------------------------------------------------------------------------
// P007 — unused routines

// checkUnusedRoutines flags routines unreachable from the program block
// in the call graph (including routines called only by other unreachable
// routines).
func checkUnusedRoutines(cx *Context) []Diagnostic {
	reachable := map[*sem.Routine]bool{cx.Info.Main: true}
	work := []*sem.Routine{cx.Info.Main}
	for len(work) > 0 {
		r := work[0]
		work = work[1:]
		for _, c := range cx.CG.Callees[r] {
			if !reachable[c] {
				reachable[c] = true
				work = append(work, c)
			}
		}
	}
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		if reachable[r] || r.IsProgram() {
			continue
		}
		out = append(out, Diagnostic{
			Pos: r.SymPos(), Severity: Warning, Code: "P007",
			Message: fmt.Sprintf("%s %s is never called", r.Kind, r.Name),
			Routine: r.Name,
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// P008 — var-parameter aliasing

// checkVarAliasing flags call sites where the same designator is bound
// to two by-reference formals, and whole variables bound by reference to
// a routine that also accesses them as non-locals — exactly the aliasing
// the Banning-style MOD/REF propagation (and the paper's transformation
// phase) assumes away. Distinct designators over the same base variable
// (v[j] vs v[j+1]) are may-aliases at this granularity and are not
// reported.
func checkVarAliasing(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		for _, site := range cx.CG.Sites[r] {
			callee := site.Callee
			type binding struct {
				formal *sem.VarSym
				arg    ast.Expr
				base   *sem.VarSym
				print  string
			}
			var byref []binding
			for i, p := range callee.Params {
				if p.Mode == ast.Value || i >= len(site.Args) {
					continue
				}
				base := cx.Info.VarOf(site.Args[i])
				if base == nil {
					continue
				}
				byref = append(byref, binding{p, site.Args[i], base, printer.PrintExpr(site.Args[i])})
			}
			for i := 0; i < len(byref); i++ {
				for j := i + 1; j < len(byref); j++ {
					a, b := byref[i], byref[j]
					if a.base != b.base || a.print != b.print {
						continue
					}
					out = append(out, Diagnostic{
						Pos: site.Node.Pos(), Severity: Error, Code: "P008",
						Message: fmt.Sprintf("%s is bound to both var parameters %s and %s of %s: writes through one alias are visible through the other",
							a.print, a.formal.Name, b.formal.Name, callee.Name),
						Routine: callee.Name,
						Related: []Related{
							{Pos: a.formal.Pos, Message: fmt.Sprintf("var parameter %s declared here", a.formal.Name)},
							{Pos: b.formal.Pos, Message: fmt.Sprintf("var parameter %s declared here", b.formal.Name)},
						},
					})
				}
			}
			// Whole variable by reference + non-local access by the callee.
			ce := cx.Side.Of[callee]
			for _, bnd := range byref {
				if _, whole := bnd.arg.(*ast.Ident); !whole {
					continue
				}
				if !ce.ModGlobals.Has(bnd.base) && !ce.RefGlobals.Has(bnd.base) {
					continue
				}
				out = append(out, Diagnostic{
					Pos: site.Node.Pos(), Severity: Error, Code: "P008",
					Message: fmt.Sprintf("%s is bound to var parameter %s of %s, which also accesses %s as a non-local",
						bnd.base.Name, bnd.formal.Name, callee.Name, bnd.base.Name),
					Routine: callee.Name,
					Related: []Related{{Pos: bnd.formal.Pos, Message: fmt.Sprintf("var parameter %s declared here", bnd.formal.Name)}},
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// P009 — function result never/maybe unassigned

// checkResultUnassigned flags functions with Entry→Exit paths on which
// the result variable is never assigned: the synthetic initial
// definition of the result still reaches Exit.
func checkResultUnassigned(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		if r.Result == nil {
			continue
		}
		fl := cx.Flows[r]
		if fl.DefinitelyAssigns(r.Result) {
			continue
		}
		hasReal := false
		for _, d := range fl.Defs {
			if d.Var == r.Result && !d.Synthetic {
				hasReal = true
				break
			}
		}
		d := Diagnostic{
			Pos: r.SymPos(), Severity: Error, Code: "P009",
			Message: fmt.Sprintf("function %s never assigns its result", r.Name),
			Routine: r.Name,
		}
		if hasReal {
			d.Severity = Warning
			d.Message = fmt.Sprintf("function %s may return without assigning its result", r.Name)
		}
		out = append(out, d)
	}
	return out
}

// ---------------------------------------------------------------------------
// P010 — goto into a loop body

// checkGotoIntoLoop flags local gotos whose target label sits inside a
// loop that does not enclose the goto: iteration state (the for-loop
// counter in particular) is live at the target but bypasses the loop's
// initialization.
func checkGotoIntoLoop(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		gotoLoops := make(map[*ast.GotoStmt][]ast.Stmt)
		labelLoops := make(map[*ast.LabeledStmt][]ast.Stmt)
		var gotos []*ast.GotoStmt

		var loops []ast.Stmt
		var walk func(slot *ast.Stmt)
		walk = func(slot *ast.Stmt) {
			switch s := (*slot).(type) {
			case *ast.WhileStmt, *ast.ForStmt, *ast.RepeatStmt:
				loops = append(loops, s)
				ast.Stmts(s, walk)
				loops = loops[:len(loops)-1]
				return
			case *ast.LabeledStmt:
				labelLoops[s] = append([]ast.Stmt(nil), loops...)
			case *ast.GotoStmt:
				gotoLoops[s] = append([]ast.Stmt(nil), loops...)
				gotos = append(gotos, s)
			}
			ast.Stmts(*slot, walk)
		}
		ast.Stmts(r.Block.Body, walk)

		for _, g := range gotos {
			li := cx.Info.GotoTgt[g]
			if li == nil || li.Routine != r || li.Placement == nil {
				continue // escaping gotos are P011's business
			}
			encloses := func(loop ast.Stmt) bool {
				for _, l := range gotoLoops[g] {
					if l == loop {
						return true
					}
				}
				return false
			}
			for _, loop := range labelLoops[li.Placement] {
				if encloses(loop) {
					continue
				}
				kind := "while"
				switch loop.(type) {
				case *ast.ForStmt:
					kind = "for"
				case *ast.RepeatStmt:
					kind = "repeat"
				}
				out = append(out, Diagnostic{
					Pos: g.Pos(), Severity: Warning, Code: "P010",
					Message: fmt.Sprintf("goto %s jumps into the body of a %s loop", g.Label, kind),
					Routine: r.Name,
					Related: []Related{{Pos: li.Placement.Pos(), Message: fmt.Sprintf("label %s declared here", g.Label)}},
				})
				break // one finding per goto, innermost-independent
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// P011 — non-local exits

// checkNonlocalExit reports routines that may transfer control out of
// their own body — directly (the CFG's escaping gotos, reported at the
// goto) or transitively through a callee (the Banning exit side effects
// accumulated by the side-effect analysis, reported at the routine).
func checkNonlocalExit(cx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range cx.Info.Routines {
		if r.IsProgram() {
			continue
		}
		direct := make(map[*sem.LabelInfo]bool)
		for _, g := range cx.Graphs[r].EscapingGotos {
			li := cx.Info.GotoTgt[g]
			if li != nil {
				direct[li] = true
			}
			target := "?"
			owner := ""
			if li != nil {
				target = li.Name
				owner = li.Routine.Name
			}
			d := Diagnostic{
				Pos: g.Pos(), Severity: Warning, Code: "P011",
				Message: fmt.Sprintf("goto %s transfers control out of %s (non-local exit into %s)", target, r.Name, owner),
				Routine: r.Name,
			}
			if li != nil && li.Placement != nil {
				d.Related = []Related{{Pos: li.Placement.Pos(), Message: fmt.Sprintf("label %s declared here", li.Name)}}
			}
			out = append(out, d)
		}
		// Exit side effects inherited from callees only.
		for _, li := range cx.Side.Of[r].SortedExits() {
			if direct[li] {
				continue
			}
			d := Diagnostic{
				Pos: r.SymPos(), Severity: Warning, Code: "P011",
				Message: fmt.Sprintf("%s %s may exit non-locally through a call (goto %s in %s)", r.Kind, r.Name, li.Name, li.Routine.Name),
				Routine: r.Name,
			}
			if li.Placement != nil {
				d.Related = []Related{{Pos: li.Placement.Pos(), Message: fmt.Sprintf("label %s declared here", li.Name)}}
			}
			out = append(out, d)
		}
	}
	return out
}
