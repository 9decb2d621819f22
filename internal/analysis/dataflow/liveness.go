// Live-variable analysis over the CFG, the backward companion of
// reaching definitions. The lint layer uses it to detect dead stores:
// a must-definition whose variable is not live out of the defining node
// computes a value no execution can observe.
package dataflow

import (
	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/defuse"
	"gadt/internal/pascal/sem"
)

// Live holds live-variable sets for one routine's CFG.
type Live struct {
	Graph *cfg.Graph
	flow  *Result
	// in/out hold, per node ID, the variables live at node entry/exit,
	// one bit per index in flow.Vars.
	in, out defuse.BitSets
}

// LiveOut reports whether v is live immediately after n.
func (l *Live) LiveOut(n *cfg.Node, v *sem.VarSym) bool {
	k := l.flow.VarIndex(v)
	return k >= 0 && l.out.At(n.ID).Has(k)
}

// Liveness computes live variables over the graph of r, reusing the
// per-node def/use sets already collected by ReachingDefs. Live at Exit
// are the routine's outputs (var/out parameters and the function result,
// recorded in UsesAt[Exit]) plus every non-local variable the routine
// defines: those values are visible to callers after the call returns.
func (r *Result) Liveness() *Live {
	g := r.Graph
	nn, nv := len(g.Nodes), len(r.Vars)
	l := &Live{Graph: g, flow: r, in: defuse.NewBitSets(nn, nv), out: defuse.NewBitSets(nn, nv)}
	uses, kills := defuse.NewBitSets(nn, nv), defuse.NewBitSets(nn, nv)
	live := defuse.NewBitSet(nv)
	for _, n := range g.Nodes {
		u := uses.At(n.ID)
		for _, v := range r.UsesAt[n.ID] {
			u.Set(r.VarIndex(v))
		}
		// Only must definitions kill liveness; may definitions (partial
		// updates, call effects) leave the incoming value observable.
		k := kills.At(n.ID)
		for _, d := range r.DefsAt[n.ID] {
			if d.Must && !d.Synthetic {
				k.Set(r.VarIndex(d.Var))
			}
		}
	}

	// Boundary condition at Exit: declared outputs plus defined
	// non-locals (their final values escape to the caller's environment).
	exitLive := l.in.At(g.Exit.ID)
	exitLive.UnionWith(uses.At(g.Exit.ID))
	for _, d := range r.Defs {
		if !d.Synthetic && d.Var.Owner != g.Routine {
			exitLive.Set(r.VarIndex(d.Var))
		}
	}

	// Iterate to a fixpoint, walking nodes in reverse allocation order so
	// the common reducible case converges in a couple of sweeps.
	for changed := true; changed; {
		changed = false
		for i := nn - 1; i >= 0; i-- {
			n := g.Nodes[i]
			out := l.out.At(n.ID)
			for _, s := range n.Succs {
				if out.UnionWith(l.in.At(s.ID)) {
					changed = true
				}
			}
			live.CopyFrom(out)
			live.DiffWith(kills.At(n.ID))
			live.UnionWith(uses.At(n.ID))
			if l.in.At(n.ID).UnionWith(live) {
				changed = true
			}
		}
	}
	return l
}

// SyntheticReaches reports whether the synthetic initial definition of v
// reaches the entry of n — i.e. some path from Entry arrives at n without
// passing a real whole-variable assignment of v.
func (r *Result) SyntheticReaches(n *cfg.Node, v *sem.VarSym) bool {
	found := false
	r.reaching(n, v, func(d *Def) bool {
		found = d.Synthetic
		return !found
	})
	return found
}

// SyntheticOnly reports whether every definition of v reaching the entry
// of node n is the synthetic Entry definition — i.e. no real assignment
// of v can reach n on any path.
func (r *Result) SyntheticOnly(n *cfg.Node, v *sem.VarSym) bool {
	reached, only := false, true
	r.reaching(n, v, func(d *Def) bool {
		reached, only = true, d.Synthetic
		return only
	})
	return reached && only
}

// DefinitelyAssigns reports whether the routine assigns variable v on
// every path from Entry to Exit (the synthetic initial definition of v
// does not reach Exit). For a callee's var/out formal this is the
// interprocedural must-assign fact the lint layer's definite-assignment
// analysis consumes at call sites.
func (r *Result) DefinitelyAssigns(v *sem.VarSym) bool {
	return !r.SyntheticReaches(r.Graph.Exit, v)
}
