// Package sideeffect computes interprocedural side effects in the style
// of Banning (POPL'79), as required by the paper's transformation phase
// (Section 6): for every routine, the non-local variables it may modify
// (MOD) or reference (REF) — directly or through calls, including effects
// that flow through var-parameter bindings — plus its exit side effects
// (gotos that transfer control out of the routine).
package sideeffect

import (
	"sort"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/defuse"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// Effects summarizes one routine.
type Effects struct {
	Routine *sem.Routine

	// ModGlobals / RefGlobals hold non-local variables (declared in a
	// proper ancestor routine) that the routine may modify / reference.
	ModGlobals defuse.Set
	RefGlobals defuse.Set

	// ModFormals / RefFormals hold the routine's own by-reference
	// formals that may be modified / referenced.
	ModFormals defuse.Set
	RefFormals defuse.Set

	// ExitTargets holds labels in proper ancestors that a goto inside
	// the routine (or its callees) may jump to — Banning's exit side
	// effects.
	ExitTargets map[*sem.LabelInfo]bool
}

// HasGlobalEffects reports whether the routine touches any non-local
// variable or can exit non-locally.
func (e *Effects) HasGlobalEffects() bool {
	return e.ModGlobals.Len() > 0 || e.RefGlobals.Len() > 0 || len(e.ExitTargets) > 0
}

// SortedMod returns ModGlobals sorted by name (then owner nesting level).
func (e *Effects) SortedMod() []*sem.VarSym { return sortVars(&e.ModGlobals) }

// SortedRef returns RefGlobals sorted by name.
func (e *Effects) SortedRef() []*sem.VarSym { return sortVars(&e.RefGlobals) }

// SortedExits returns ExitTargets sorted by label name.
func (e *Effects) SortedExits() []*sem.LabelInfo {
	out := make([]*sem.LabelInfo, 0, len(e.ExitTargets))
	for li := range e.ExitTargets {
		out = append(out, li)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Routine.Name < out[j].Routine.Name
	})
	return out
}

func sortVars(s *defuse.Set) []*sem.VarSym {
	out := append([]*sem.VarSym(nil), s.Slice()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Owner.Level < out[j].Owner.Level
	})
	return out
}

// Result holds the analysis for a whole program and implements
// defuse.Resolver.
type Result struct {
	Info *sem.Info
	CG   *callgraph.Graph
	Of   map[*sem.Routine]*Effects

	siteArgs map[ast.Node]*callgraph.Site
}

// Analyze runs the fixpoint over the call graph.
func Analyze(info *sem.Info, cg *callgraph.Graph) *Result {
	res := &Result{
		Info:     info,
		CG:       cg,
		Of:       make(map[*sem.Routine]*Effects, len(info.Routines)),
		siteArgs: make(map[ast.Node]*callgraph.Site),
	}
	for _, r := range info.Routines {
		res.Of[r] = &Effects{Routine: r, ExitTargets: make(map[*sem.LabelInfo]bool)}
	}
	for _, sites := range cg.Sites {
		for _, s := range sites {
			res.siteArgs[s.Node] = s
		}
	}

	// Phase 1: direct effects.
	for _, r := range info.Routines {
		res.direct(r)
	}

	// Phase 2: propagate through calls to a fixpoint. Post-order makes
	// the common (non-recursive) case converge in one sweep.
	order := cg.PostOrder(info.Main)
	for changed := true; changed; {
		changed = false
		for _, r := range order {
			if res.propagate(r) {
				changed = true
			}
		}
	}
	return res
}

// classify adds variable v, accessed inside routine r, to the right
// bucket of e (formal of r, non-local, or ignored local).
func classify(e *Effects, r *sem.Routine, v *sem.VarSym, write bool) {
	if v == nil {
		return
	}
	if v.Owner == r {
		if v.Kind == sem.ParamVar && v.Mode != ast.Value {
			if write {
				e.ModFormals.Add(v)
			} else {
				e.RefFormals.Add(v)
			}
		}
		return
	}
	// Non-local.
	if write {
		e.ModGlobals.Add(v)
	} else {
		e.RefGlobals.Add(v)
	}
}

// direct computes the routine's own (call-free) effects. Every
// statement and expression fills the same pair of sets in turn.
func (res *Result) direct(r *sem.Routine) {
	e := res.Of[r]
	var defs, uses defuse.Set
	// classifyAll files the variables the last statement or expression
	// put into defs and uses, then empties both.
	classifyAll := func() {
		for _, v := range defs.Slice() {
			classify(e, r, v, true)
		}
		for _, v := range uses.Slice() {
			classify(e, r, v, false)
		}
		defs.Reset()
		uses.Reset()
	}
	expr := func(x ast.Expr) {
		defuse.ExprUses(res.Info, x, nil, &defs, &uses)
		classifyAll()
	}
	var walk func(slot *ast.Stmt)
	walk = func(slot *ast.Stmt) {
		switch s := (*slot).(type) {
		case *ast.AssignStmt:
			defuse.Assign(res.Info, s, nil, &defs, &uses)
			classifyAll()
		case *ast.CallStmt:
			defuse.CallStmt(res.Info, s, nil, &defs, &uses)
			classifyAll()
		case *ast.IfStmt:
			expr(s.Cond)
		case *ast.WhileStmt:
			expr(s.Cond)
		case *ast.ForStmt:
			classify(e, r, res.Info.VarOf(s.Var), true)
			classify(e, r, res.Info.VarOf(s.Var), false)
			expr(s.From)
			expr(s.Limit)
		case *ast.CaseStmt:
			expr(s.Expr)
		case *ast.GotoStmt:
			if li := res.Info.GotoTgt[s]; li != nil && li.Routine != r {
				e.ExitTargets[li] = true
			}
		}
		ast.Stmts(*slot, walk)
		if s, ok := (*slot).(*ast.RepeatStmt); ok {
			expr(s.Cond) // after the body, as it runs
		}
	}
	ast.Stmts(r.Block.Body, walk)
}

// propagate folds callee effects into caller r; reports change.
func (res *Result) propagate(r *sem.Routine) bool {
	e := res.Of[r]
	changed := false
	set := func(s *defuse.Set, v *sem.VarSym) {
		if s.Add(v) {
			changed = true
		}
	}
	for _, site := range res.CG.Sites[r] {
		ce := res.Of[site.Callee]
		// Global effects of the callee that are not r's own locals.
		for _, v := range ce.ModGlobals.Slice() {
			if v.Owner == r {
				if v.Kind == sem.ParamVar && v.Mode != ast.Value {
					set(&e.ModFormals, v)
				}
				continue
			}
			set(&e.ModGlobals, v)
		}
		for _, v := range ce.RefGlobals.Slice() {
			if v.Owner == r {
				if v.Kind == sem.ParamVar && v.Mode != ast.Value {
					set(&e.RefFormals, v)
				}
				continue
			}
			set(&e.RefGlobals, v)
		}
		// Effects through by-reference parameter bindings.
		for i, p := range site.Callee.Params {
			if p.Mode == ast.Value || i >= len(site.Args) {
				continue
			}
			base := res.Info.VarOf(site.Args[i])
			if base == nil {
				continue
			}
			if ce.ModFormals.Has(p) {
				if base.Owner == r {
					if base.Kind == sem.ParamVar && base.Mode != ast.Value {
						set(&e.ModFormals, base)
					}
				} else {
					set(&e.ModGlobals, base)
				}
			}
			if ce.RefFormals.Has(p) {
				if base.Owner == r {
					if base.Kind == sem.ParamVar && base.Mode != ast.Value {
						set(&e.RefFormals, base)
					}
				} else {
					set(&e.RefGlobals, base)
				}
			}
		}
		// Exit side effects.
		for li := range ce.ExitTargets {
			if li.Routine == r {
				continue // the jump terminates inside r
			}
			if !e.ExitTargets[li] {
				e.ExitTargets[li] = true
				changed = true
			}
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// defuse.Resolver implementation

var _ defuse.Resolver = (*Result)(nil)

// CallDefs returns the caller-visible variables modified by the call at
// site: var/out actuals whose formals are modified, plus the callee's
// modified globals (excluding the caller's own locals, which are not
// visible effects at the caller's *statement* level — they are exactly
// the definitions the dataflow layer needs, so locals of the caller ARE
// included here).
func (res *Result) CallDefs(site ast.Node) []*sem.VarSym {
	s := res.siteArgs[site]
	if s == nil {
		return nil
	}
	ce := res.Of[s.Callee]
	out := defuse.NewSet()
	for i, p := range s.Callee.Params {
		if p.Mode == ast.Value || i >= len(s.Args) {
			continue
		}
		if ce.ModFormals.Has(p) {
			out.Add(res.Info.VarOf(s.Args[i]))
		}
	}
	out.AddAll(ce.ModGlobals.Slice())
	return out.Slice()
}

// CallUses returns caller-visible variables read by the call beyond its
// value-argument expressions.
func (res *Result) CallUses(site ast.Node) []*sem.VarSym {
	s := res.siteArgs[site]
	if s == nil {
		return nil
	}
	ce := res.Of[s.Callee]
	out := defuse.NewSet()
	for i, p := range s.Callee.Params {
		if p.Mode == ast.Value || i >= len(s.Args) {
			continue
		}
		if ce.RefFormals.Has(p) {
			out.Add(res.Info.VarOf(s.Args[i]))
		}
	}
	out.AddAll(ce.RefGlobals.Slice())
	return out.Slice()
}
