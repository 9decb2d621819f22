// Package weiser implements Weiser's original intraprocedural slicing
// algorithm ([Weiser-84], the foundation the paper's Section 4 builds
// on) as an independent baseline: iterative relevant-variable
// propagation over the CFG plus branch inclusion through control
// influence, without any dependence graph.
//
// It serves two purposes: a baseline for the slicing experiments, and a
// differential check of the SDG-based slicer — on intraprocedural
// criteria both must compute the same statement sets.
package weiser

import (
	"fmt"

	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/dataflow"
	"gadt/internal/analysis/defuse"
	"gadt/internal/analysis/pdg"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/render"
)

// Slice is an intraprocedural Weiser slice of one routine.
type Slice struct {
	Info    *sem.Info
	Routine *sem.Routine

	// Stmts are the retained atomic statements; Conds the structured
	// statements whose predicate is in the slice.
	Stmts map[ast.Stmt]bool
	Conds map[ast.Stmt]bool
}

// StmtCount returns the slice size in statements plus predicates.
func (s *Slice) StmtCount() int { return len(s.Stmts) + len(s.Conds) }

// Render prints the sliced routine's program (other routines are kept
// untouched only if they host retained statements — for intraprocedural
// slices that means they are dropped).
func (s *Slice) Render() string {
	f := &render.Filter{
		Info:     s.Info,
		KeepStmt: func(st ast.Stmt) bool { return s.Stmts[st] },
		KeepCond: func(st ast.Stmt) bool { return s.Conds[st] },
	}
	return f.Render()
}

// varSet is a small set of variables.
type varSet map[*sem.VarSym]bool

func (v varSet) clone() varSet {
	out := make(varSet, len(v))
	for k := range v {
		out[k] = true
	}
	return out
}

// Slicer computes Weiser slices for one analyzed program. Call effects
// are treated through the side-effect resolver like the rest of the
// system, but the propagation itself never leaves the routine — this is
// deliberately the intraprocedural baseline.
type Slicer struct {
	Info *sem.Info
	Res  defuse.Resolver // may be nil (syntactic call handling)
}

// OnVarAtEnd slices routine r on the value of v at routine exit.
func (w *Slicer) OnVarAtEnd(r *sem.Routine, v *sem.VarSym) (*Slice, error) {
	g := cfg.Build(w.Info, r)
	return w.slice(r, g, g.Exit, varSet{v: true})
}

// OnVarAtStmt slices on the value of v immediately before stmt.
func (w *Slicer) OnVarAtStmt(r *sem.Routine, stmt ast.Stmt, v *sem.VarSym) (*Slice, error) {
	g := cfg.Build(w.Info, r)
	n := g.NodeOf[stmt]
	if n == nil {
		if cs := g.CondOf[stmt]; len(cs) > 0 {
			n = cs[0]
		}
	}
	if n == nil {
		return nil, fmt.Errorf("weiser: no CFG node for statement at %s", stmt.Pos())
	}
	return w.slice(r, g, n, varSet{v: true})
}

// slice runs the fixpoint: directly relevant variables, relevant
// statements, then branch inclusion with new criteria until stable.
func (w *Slicer) slice(r *sem.Routine, g *cfg.Graph, critNode *cfg.Node, critVars varSet) (*Slice, error) {
	// Per-node def/use.
	defs := make(map[*cfg.Node][]*sem.VarSym)
	uses := make(map[*cfg.Node][]*sem.VarSym)
	for _, n := range g.Nodes {
		d, u := defuse.NewSet(), defuse.NewSet()
		defuse.Node(w.Info, n, w.Res, d, u)
		defs[n], uses[n] = d.Slice(), u.Slice()
	}
	infl := pdg.ControlDeps(g)

	// criteria: per node, variables relevant on entry to that node.
	seeds := map[*cfg.Node]varSet{critNode: critVars.clone()}
	inSlice := make(map[*cfg.Node]bool)
	branches := make(map[*cfg.Node]bool)

	for {
		relevant := w.propagate(g, defs, uses, seeds)

		// Statements defining a relevant variable join the slice.
		changedStmts := false
		for _, n := range g.Nodes {
			if inSlice[n] || n == g.Entry || n == g.Exit {
				continue
			}
			after := relevantAfter(n, relevant)
			for _, d := range defs[n] {
				if after[d] {
					inSlice[n] = true
					changedStmts = true
					break
				}
			}
		}

		// Branches whose influenced region intersects the slice join it,
		// contributing their referenced variables as new criteria.
		changedBranches := false
		for n, ctrls := range infl {
			if !inSlice[n] && !branches[n] {
				continue
			}
			for _, b := range ctrls {
				if b == g.Entry || branches[b] {
					continue
				}
				branches[b] = true
				changedBranches = true
				if seeds[b] == nil {
					seeds[b] = varSet{}
				}
				for _, u := range uses[b] {
					seeds[b][u] = true
				}
			}
		}
		if !changedBranches && !changedStmts {
			break
		}
		if !changedBranches {
			// No new criteria; the statement set is final.
			break
		}
	}

	out := &Slice{
		Info:    w.Info,
		Routine: r,
		Stmts:   make(map[ast.Stmt]bool),
		Conds:   make(map[ast.Stmt]bool),
	}
	for n := range inSlice {
		if n.Kind == cfg.Stmt {
			out.Stmts[n.Stmt] = true
		} else {
			out.Conds[n.Stmt] = true
		}
	}
	for b := range branches {
		out.Conds[b.Stmt] = true
	}
	return out, nil
}

// relevantAfter unions the entry-relevance of n's successors.
func relevantAfter(n *cfg.Node, relevant map[*cfg.Node]varSet) varSet {
	out := varSet{}
	for _, s := range n.Succs {
		for v := range relevant[s] {
			out[v] = true
		}
	}
	return out
}

// propagate runs the backward relevant-variable fixpoint: for each node
// m with successor-relevance S,
//
//	R(m) = (S \ KILL(m)) ∪ (REF(m) if DEF(m) ∩ S ≠ ∅) ∪ seed(m)
//
// where KILL is the must-defined subset of DEF.
func (w *Slicer) propagate(g *cfg.Graph, defs, uses map[*cfg.Node][]*sem.VarSym, seeds map[*cfg.Node]varSet) map[*cfg.Node]varSet {
	relevant := make(map[*cfg.Node]varSet, len(g.Nodes))
	for _, n := range g.Nodes {
		relevant[n] = varSet{}
		for v := range seeds[n] {
			relevant[n][v] = true
		}
	}
	work := append([]*cfg.Node(nil), g.Nodes...)
	inWork := make(map[*cfg.Node]bool, len(work))
	for _, n := range work {
		inWork[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n] = false

		after := relevantAfter(n, relevant)
		r := relevant[n]
		changed := false
		add := func(v *sem.VarSym) {
			if !r[v] {
				r[v] = true
				changed = true
			}
		}
		definesRelevant := false
		killed := varSet{}
		for _, d := range defs[n] {
			if after[d] {
				definesRelevant = true
			}
			if dataflow.MustDefine(w.Info, n, d) {
				killed[d] = true
			}
		}
		for v := range after {
			if !killed[v] {
				add(v)
			}
		}
		if definesRelevant {
			for _, u := range uses[n] {
				add(u)
			}
		}
		if changed {
			for _, p := range n.Preds {
				if !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}
	return relevant
}
