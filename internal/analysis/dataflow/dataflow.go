// Package dataflow implements intraprocedural reaching-definitions
// analysis over the CFG, producing the def-use chains that program
// slicing (Section 4 of the paper) is built on.
package dataflow

import (
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

	// DefsAt lists definitions generated by each node.
	DefsAt map[*cfg.Node][]*Def
	// UsesAt lists variables used by each node.
	UsesAt map[*cfg.Node][]*sem.VarSym
	// In holds the reaching definitions at node entry.
	In map[*cfg.Node]*BitSet

	byID []*Def
}

// ReachingDefs runs the analysis for g. The resolver supplies call
// effects (nil treats calls as syntactic only). The routine's parameters,
// locals and function result receive synthetic initial definitions at the
// Entry node, so every use has at least one reaching definition.
func ReachingDefs(info *sem.Info, g *cfg.Graph, res defuse.Resolver) *Result {
	r := &Result{
		Graph:  g,
		DefsAt: make(map[*cfg.Node][]*Def),
		UsesAt: make(map[*cfg.Node][]*sem.VarSym),
		In:     make(map[*cfg.Node]*BitSet),
	}
	newDef := func(n *cfg.Node, v *sem.VarSym, must bool) *Def {
		d := &Def{ID: len(r.Defs), Var: v, Node: n, Must: must}
		r.Defs = append(r.Defs, d)
		r.DefsAt[n] = append(r.DefsAt[n], d)
		return d
	}

	// Per-node defs/uses.
	nonlocals := defuse.NewSet()
	noteNonlocal := func(v *sem.VarSym) {
		if v != nil && v.Owner != g.Routine {
			nonlocals.Add(v)
		}
	}
	for _, n := range g.Nodes {
		if n == g.Entry || n == g.Exit {
			continue
		}
		defs, uses := defuse.Node(info, n, res)
		for _, v := range defs.Slice() {
			newDef(n, v, mustDefine(info, n, v))
			noteNonlocal(v)
		}
		r.UsesAt[n] = uses.Slice()
		for _, v := range uses.Slice() {
			noteNonlocal(v)
		}
	}

	// Synthetic defs at entry: the routine's own variables plus every
	// non-local variable it touches (whose incoming value flows from the
	// caller's environment — the SDG maps these to hidden formal-ins).
	for _, v := range g.Routine.AllVars() {
		newDef(g.Entry, v, true).Synthetic = true
	}
	for _, v := range nonlocals.Slice() {
		newDef(g.Entry, v, true).Synthetic = true
	}
	// The Exit node uses every output: var/out parameters and the
	// function result (they are live-out of the routine).
	for _, p := range g.Routine.Params {
		if p.Mode != ast.Value {
			r.UsesAt[g.Exit] = append(r.UsesAt[g.Exit], p)
		}
	}
	if g.Routine.Result != nil {
		r.UsesAt[g.Exit] = append(r.UsesAt[g.Exit], g.Routine.Result)
	}

	r.byID = r.Defs

	// defsOfVar: all def IDs per variable, for kill sets.
	defsOfVar := make(map[*sem.VarSym][]*Def)
	for _, d := range r.Defs {
		defsOfVar[d.Var] = append(defsOfVar[d.Var], d)
	}

	nDefs := len(r.Defs)
	gen := make(map[*cfg.Node]*BitSet)
	kill := make(map[*cfg.Node]*BitSet)
	out := make(map[*cfg.Node]*BitSet)
	for _, n := range g.Nodes {
		genN := NewBitSet(nDefs)
		killN := NewBitSet(nDefs)
		for _, d := range r.DefsAt[n] {
			genN.Set(d.ID)
			if d.Must {
				for _, other := range defsOfVar[d.Var] {
					if other != d {
						killN.Set(other.ID)
					}
				}
			}
		}
		gen[n], kill[n] = genN, killN
		r.In[n] = NewBitSet(nDefs)
		out[n] = genN.Clone()
	}

	// Iterative worklist.
	work := make([]*cfg.Node, len(g.Nodes))
	copy(work, g.Nodes)
	inWork := make(map[*cfg.Node]bool, len(g.Nodes))
	for _, n := range work {
		inWork[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		inWork[n] = false
		in := NewBitSet(nDefs)
		for _, p := range n.Preds {
			in.UnionWith(out[p])
		}
		r.In[n] = in
		newOut := in.Clone()
		newOut.DiffWith(kill[n])
		newOut.UnionWith(gen[n])
		if !newOut.Equal(out[n]) {
			out[n] = newOut
			for _, s := range n.Succs {
				if !inWork[s] {
					inWork[s] = true
					work = append(work, s)
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

// ReachingAt returns the definitions of v reaching the entry of node n.
func (r *Result) ReachingAt(n *cfg.Node, v *sem.VarSym) []*Def {
	in := r.In[n]
	if in == nil {
		return nil
	}
	var out []*Def
	for _, d := range r.Defs {
		if d.Var == v && in.Has(d.ID) {
			out = append(out, d)
		}
	}
	return out
}

// FlowDeps returns, for node n, the definition nodes it is flow-dependent
// on (one entry per (use variable, reaching def) pair).
func (r *Result) FlowDeps(n *cfg.Node) []*Def {
	var out []*Def
	for _, v := range r.UsesAt[n] {
		out = append(out, r.ReachingAt(n, v)...)
	}
	return out
}

// ---------------------------------------------------------------------------

// BitSet is a fixed-capacity bit set.
type BitSet struct {
	words []uint64
}

// NewBitSet returns a set able to hold n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// Set marks bit i.
func (b *BitSet) Set(i int) { b.words[i/64] |= 1 << (uint(i) % 64) }

// Has reports bit i.
func (b *BitSet) Has(i int) bool {
	if i/64 >= len(b.words) {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Clone copies the set.
func (b *BitSet) Clone() *BitSet {
	return &BitSet{words: append([]uint64(nil), b.words...)}
}

// UnionWith ors o into b.
func (b *BitSet) UnionWith(o *BitSet) {
	for i := range o.words {
		if i < len(b.words) {
			b.words[i] |= o.words[i]
		}
	}
}

// DiffWith removes o's bits from b.
func (b *BitSet) DiffWith(o *BitSet) {
	for i := range o.words {
		if i < len(b.words) {
			b.words[i] &^= o.words[i]
		}
	}
}

// Equal reports set equality.
func (b *BitSet) Equal(o *BitSet) bool {
	if len(b.words) != len(o.words) {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}
