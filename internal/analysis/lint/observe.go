package lint

import (
	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/defuse"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// The side-effect analysis is flow-insensitive: a by-reference actual
// counts as a use whenever the callee reads its formal ANYWHERE, even
// when every read follows a write (arrsum's `b := 0; b := b + a[i]`
// reads b, yet the caller's actual is pure output). That
// over-approximation is what slicing wants, but reported verbatim it
// turns every output parameter into a use-before-definition anomaly.
//
// observeResolver refines call uses to OBSERVING uses: a by-reference
// actual (or a non-local the callee touches) is read by the call only if
// the variable is upward-exposed in the callee — some path through the
// callee reads it before any definition. Upward exposure is itself
// computed from observed uses, so the refinement is a least fixpoint
// over the call graph: starting from "nothing is observed", a formal
// becomes exposed only when a syntactic read (or an already-exposed
// nested binding) is reachable from the callee's Entry with the
// synthetic initial definition still live.
type observeResolver struct {
	cx    *Context
	sites map[ast.Node]*callgraph.Site
	// exposed[r] holds the variables (one bit per sem.VarSym.ID) whose
	// incoming value routine r may read. Only by-reference formals and
	// non-locals are ever consulted. Each set has room for every ID, so
	// it is updated in place through the map.
	exposed map[*sem.Routine]defuse.BitSet
	// uses is CallUses' result, valid until its next call.
	uses defuse.Set
}

func (o *observeResolver) CallDefs(site ast.Node) []*sem.VarSym {
	return o.cx.Side.CallDefs(site)
}

func (o *observeResolver) CallUses(site ast.Node) []*sem.VarSym {
	s := o.sites[site]
	if s == nil {
		return nil
	}
	ce, ex := o.cx.Side.Of[s.Callee], o.exposed[s.Callee]
	out := &o.uses
	out.Reset()
	for i, p := range s.Callee.Params {
		if p.Mode == ast.Value || i >= len(s.Args) {
			continue
		}
		if ce.RefFormals.Has(p) && ex.Has(p.ID) {
			out.Add(o.cx.Info.VarOf(s.Args[i]))
		}
	}
	for _, v := range ce.RefGlobals.Slice() {
		if ex.Has(v.ID) {
			out.Add(v)
		}
	}
	return out.Slice()
}

// computeObserved fills cx.Observed with the observing uses of every CFG
// node and returns when the exposure fixpoint is stable. Exposure only
// grows and observed uses grow with it, so iteration terminates.
func computeObserved(cx *Context) {
	res := &observeResolver{
		cx:      cx,
		sites:   make(map[ast.Node]*callgraph.Site),
		exposed: make(map[*sem.Routine]defuse.BitSet, len(cx.Info.Routines)),
	}
	for _, sites := range cx.CG.Sites {
		for _, s := range sites {
			res.sites[s.Node] = s
		}
	}
	cx.Observed = make(map[*sem.Routine]defuse.BitSets, len(cx.Info.Routines))
	for _, r := range cx.Info.Routines {
		res.exposed[r] = defuse.NewBitSet(cx.Info.NumVars)
		cx.Observed[r] = defuse.NewBitSets(len(cx.Graphs[r].Nodes), len(cx.Flows[r].Vars))
	}

	var defs, uses defuse.Set
	for changed := true; changed; {
		changed = false
		for _, r := range cx.Info.Routines {
			g, fl, ex := cx.Graphs[r], cx.Flows[r], res.exposed[r]
			for _, n := range g.Nodes {
				if n == g.Entry || n == g.Exit {
					continue
				}
				defs.Reset()
				uses.Reset()
				defuse.Node(cx.Info, n, res, &defs, &uses)
				obs := cx.Observed[r].At(n.ID)
				obs.Reset()
				for _, v := range uses.Slice() {
					// Observing uses are a subset of the node's uses, so
					// every one has an index in fl.Vars.
					obs.Set(fl.VarIndex(v))
					if fl.SyntheticReaches(n, v) && !ex.Has(v.ID) {
						ex.Set(v.ID)
						changed = true
					}
				}
			}
		}
	}
}
