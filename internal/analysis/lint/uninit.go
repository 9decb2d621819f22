package lint

import (
	"gadt/internal/analysis/defuse"
	"gadt/internal/pascal/sem"
)

// maybeUninit computes, for every CFG node of r, the set of r's local
// variables that are possibly uninitialized at node entry: there exists
// a path from Entry on which no definition of the variable occurs.
//
// Unlike reaching definitions — where call effects and partial updates
// are may-definitions that do not kill the synthetic initial def — this
// forward analysis clears a variable on ANY definition. A call binding a
// local to a var parameter initializes it on the path through that call;
// whether the callee assigns unconditionally is already folded in by the
// side-effect resolver (a callee that never writes its formal produces
// no definition at the site at all). The asymmetry is deliberate:
// reaching definitions must over-approximate for slicing soundness,
// while the anomaly report must under-approximate to avoid crying wolf.
func maybeUninit(cx *Context, r *sem.Routine) defuse.BitSets {
	g, fl := cx.Graphs[r], cx.Flows[r]
	nn, nv := len(g.Nodes), len(fl.Vars)

	// Per node ID, one bit per index in fl.Vars.
	in, out, next := defuse.NewBitSets(nn, nv), defuse.NewBitSets(nn, nv), defuse.NewBitSet(nv)
	// Track plain locals only; parameters are caller-initialized and the
	// function result is P009's business.
	entry := out.At(g.Entry.ID)
	for _, v := range r.Locals {
		entry.Set(fl.VarIndex(v))
	}

	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n == g.Entry {
				continue
			}
			inN := in.At(n.ID)
			for _, p := range n.Preds {
				if inN.UnionWith(out.At(p.ID)) {
					changed = true
				}
			}
			next.CopyFrom(inN)
			for _, d := range fl.DefsAt[n.ID] {
				if !d.Synthetic {
					next.Unset(fl.VarIndex(d.Var))
				}
			}
			if out.At(n.ID).UnionWith(next) {
				changed = true
			}
		}
	}
	return in
}
