// Package dataflow implements intraprocedural reaching-definitions
// analysis over the CFG, producing the def-use chains that program
// slicing (Section 4 of the paper) is built on.
package dataflow

import (
	"cmp"
	"slices"

	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/defuse"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// Def is one definition of a variable.
type Def struct {
	ID   int
	Var  *sem.VarSym
	Node *cfg.Node
	// Must definitions overwrite the whole variable and kill previous
	// definitions; may definitions (call effects, partial updates of
	// composites) do not.
	Must bool
	// Synthetic marks the initial definition planted at the Entry node
	// (parameters, locals, function result, referenced non-locals). A use
	// whose only reaching definitions are synthetic is reached by no real
	// assignment — the dataflow anomaly the lint layer reports as
	// use-before-definition. Slicing treats synthetic defs exactly like
	// real ones, so marking them does not change slice contents.
	Synthetic bool
}

// Result holds reaching-definition facts for one routine.
type Result struct {
	Graph *cfg.Graph
	Defs  []*Def

	// DefsAt lists the definitions each node generates, UsesAt the
	// variables each node uses; both are indexed by cfg.Node.ID.
	DefsAt [][]*Def
	UsesAt [][]*sem.VarSym

	// Vars lists the routine's variables, sorted by sem.VarSym.ID: its
	// own plus every non-local it defines or uses. Each has at least the
	// synthetic definition, so per-variable facts of the routine are
	// indexed by position in Vars (see VarIndex).
	Vars []*sem.VarSym
	// defsOf lists the definitions of Vars[k] in ID order.
	defsOf [][]*Def
	// in holds, per node ID, the definitions reaching the node's entry
	// (one bit per Def.ID).
	in defuse.BitSets
}

// ReachingDefs runs the analysis for g. The resolver supplies call
// effects (nil treats calls as syntactic only). The routine's parameters,
// locals and function result receive synthetic initial definitions at the
// Entry node, so every use has at least one reaching definition.
func ReachingDefs(info *sem.Info, g *cfg.Graph, res defuse.Resolver) *Result {
	nn := len(g.Nodes)
	r := &Result{
		Graph:  g,
		DefsAt: make([][]*Def, nn),
		UsesAt: make([][]*sem.VarSym, nn),
	}
	var defs []Def
	newDef := func(n *cfg.Node, v *sem.VarSym, must, synthetic bool) {
		defs = append(defs, Def{ID: len(defs), Var: v, Node: n, Must: must, Synthetic: synthetic})
	}

	// Per-node defs/uses. The uses of all nodes share one array: node
	// n's are uses[useEnd[n.ID]:useEnd[n.ID+1]].
	var nonlocals, nodeDefs, nodeUses defuse.Set
	noteNonlocal := func(v *sem.VarSym) {
		if v != nil && v.Owner != g.Routine {
			nonlocals.Add(v)
		}
	}
	var uses []*sem.VarSym
	useEnd := make([]int, nn+1)
	for _, n := range g.Nodes {
		if n != g.Entry && n != g.Exit {
			nodeDefs.Reset()
			nodeUses.Reset()
			defuse.Node(info, n, res, &nodeDefs, &nodeUses)
			for _, v := range nodeDefs.Slice() {
				newDef(n, v, mustDefine(info, n, v), false)
				noteNonlocal(v)
			}
			for _, v := range nodeUses.Slice() {
				uses = append(uses, v)
				noteNonlocal(v)
			}
		}
		useEnd[n.ID+1] = len(uses)
	}
	// The Exit node uses every output: var/out parameters and the
	// function result (they are live-out of the routine).
	exitStart := len(uses)
	for _, p := range g.Routine.Params {
		if p.Mode != ast.Value {
			uses = append(uses, p)
		}
	}
	if g.Routine.Result != nil {
		uses = append(uses, g.Routine.Result)
	}
	for _, n := range g.Nodes {
		if lo, hi := useEnd[n.ID], useEnd[n.ID+1]; hi > lo {
			r.UsesAt[n.ID] = uses[lo:hi:hi]
		}
	}
	if len(uses) > exitStart {
		r.UsesAt[g.Exit.ID] = uses[exitStart:len(uses):len(uses)]
	}

	// Synthetic defs at entry: the routine's own variables plus every
	// non-local variable it touches (whose incoming value flows from the
	// caller's environment — the SDG maps these to hidden formal-ins).
	for _, v := range g.Routine.AllVars() {
		newDef(g.Entry, v, true, true)
	}
	for _, v := range nonlocals.Slice() {
		newDef(g.Entry, v, true, true)
	}

	// Each node's definitions are contiguous in ID order.
	r.Defs = make([]*Def, len(defs))
	for i := range defs {
		r.Defs[i] = &defs[i]
	}
	for i := 0; i < len(r.Defs); {
		j := i + 1
		for j < len(r.Defs) && r.Defs[j].Node == r.Defs[i].Node {
			j++
		}
		r.DefsAt[r.Defs[i].Node.ID] = r.Defs[i:j:j]
		i = j
	}

	// Group the definitions by variable: Vars in ID order, each
	// variable's definitions in ID order.
	byVar := append([]*Def(nil), r.Defs...)
	slices.SortFunc(byVar, func(a, b *Def) int {
		if c := cmp.Compare(a.Var.ID, b.Var.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	varOf := make([]int, len(defs)) // Def.ID → index in Vars
	for i := 0; i < len(byVar); {
		j := i + 1
		for j < len(byVar) && byVar[j].Var == byVar[i].Var {
			j++
		}
		for _, d := range byVar[i:j] {
			varOf[d.ID] = len(r.Vars)
		}
		r.Vars = append(r.Vars, byVar[i].Var)
		r.defsOf = append(r.defsOf, byVar[i:j:j])
		i = j
	}

	// gen/kill per node; out starts at gen.
	nDefs := len(defs)
	gen, kill, out := defuse.NewBitSets(nn, nDefs), defuse.NewBitSets(nn, nDefs), defuse.NewBitSets(nn, nDefs)
	r.in = defuse.NewBitSets(nn, nDefs)
	next := defuse.NewBitSet(nDefs)
	for _, d := range r.Defs {
		genN, killN := gen.At(d.Node.ID), kill.At(d.Node.ID)
		genN.Set(d.ID)
		if d.Must {
			for _, other := range r.defsOf[varOf[d.ID]] {
				if other != d {
					killN.Set(other.ID)
				}
			}
		}
	}
	for i := range nn {
		out.At(i).CopyFrom(gen.At(i))
	}

	// Iterative worklist over a ring of node IDs; inWork keeps each
	// node in it at most once.
	work := make([]int, nn)
	inWork := make([]bool, nn)
	for i, n := range g.Nodes {
		work[i] = n.ID
		inWork[n.ID] = true
	}
	for head, size := 0, nn; size > 0; {
		id := work[head]
		head, size = (head+1)%nn, size-1
		inWork[id] = false
		n := g.Nodes[id]
		in := r.in.At(id)
		in.Reset()
		for _, p := range n.Preds {
			in.UnionWith(out.At(p.ID))
		}
		next.CopyFrom(in)
		next.DiffWith(kill.At(id))
		next.UnionWith(gen.At(id))
		if !next.Equal(out.At(id)) {
			out.At(id).CopyFrom(next)
			for _, s := range n.Succs {
				if !inWork[s.ID] {
					inWork[s.ID] = true
					work[(head+size)%nn] = s.ID
					size++
				}
			}
		}
	}
	return r
}

// MustDefine reports whether node n's definition of v overwrites the
// whole variable (exported for the Weiser-baseline slicer's kill sets).
func MustDefine(info *sem.Info, n *cfg.Node, v *sem.VarSym) bool {
	return mustDefine(info, n, v)
}

// mustDefine reports whether node n's definition of v overwrites the
// whole variable.
func mustDefine(info *sem.Info, n *cfg.Node, v *sem.VarSym) bool {
	switch n.Kind {
	case cfg.ForInit, cfg.ForIncr:
		return true
	case cfg.Stmt:
		switch s := n.Stmt.(type) {
		case *ast.AssignStmt:
			if _, whole := s.Lhs.(*ast.Ident); whole && info.VarOf(s.Lhs) == v {
				return true
			}
			return false
		case *ast.CallStmt:
			if b := info.BuiltinOf(s); b != nil && (b.Name == "read" || b.Name == "readln") {
				for _, a := range s.Args {
					if _, whole := a.(*ast.Ident); whole && info.VarOf(a) == v {
						return true
					}
				}
			}
			// User calls are may-defs at this granularity.
			return false
		}
	}
	return false
}

// VarIndex returns v's position in Vars, or -1 when the routine
// neither defines nor uses v.
func (r *Result) VarIndex(v *sem.VarSym) int {
	if v == nil {
		return -1
	}
	k, ok := slices.BinarySearchFunc(r.Vars, v.ID, func(u *sem.VarSym, id int) int { return cmp.Compare(u.ID, id) })
	if !ok || r.Vars[k] != v {
		return -1
	}
	return k
}

// reaching calls f on each definition of v reaching the entry of node n,
// in ID order, until f returns false.
func (r *Result) reaching(n *cfg.Node, v *sem.VarSym, f func(d *Def) bool) {
	k := r.VarIndex(v)
	if k < 0 || n.Graph != r.Graph {
		return
	}
	in := r.in.At(n.ID)
	for _, d := range r.defsOf[k] {
		if in.Has(d.ID) && !f(d) {
			return
		}
	}
}

// ReachingAt returns the definitions of v reaching the entry of node n.
func (r *Result) ReachingAt(n *cfg.Node, v *sem.VarSym) []*Def {
	var out []*Def
	r.reaching(n, v, func(d *Def) bool {
		out = append(out, d)
		return true
	})
	return out
}

// FlowDeps returns, for node n, the definition nodes it is flow-dependent
// on (one entry per (use variable, reaching def) pair).
func (r *Result) FlowDeps(n *cfg.Node) []*Def {
	var out []*Def
	for _, v := range r.UsesAt[n.ID] {
		out = append(out, r.ReachingAt(n, v)...)
	}
	return out
}
