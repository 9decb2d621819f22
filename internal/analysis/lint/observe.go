package lint

import (
	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/cfg"
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
	// exposed[r][v]: routine r may read v's incoming value. Keyed by every
	// variable for uniformity; only by-reference formals and non-locals
	// are ever consulted.
	exposed map[*sem.Routine]map[*sem.VarSym]bool
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
	out := defuse.NewSet()
	for i, p := range s.Callee.Params {
		if p.Mode == ast.Value || i >= len(s.Args) {
			continue
		}
		if ce.RefFormals.Has(p) && ex[p] {
			out.Add(o.cx.Info.VarOf(s.Args[i]))
		}
	}
	for _, v := range ce.RefGlobals.Slice() {
		if ex[v] {
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
		exposed: make(map[*sem.Routine]map[*sem.VarSym]bool, len(cx.Info.Routines)),
	}
	for _, sites := range cx.CG.Sites {
		for _, s := range sites {
			res.sites[s.Node] = s
		}
	}
	for _, r := range cx.Info.Routines {
		res.exposed[r] = make(map[*sem.VarSym]bool)
	}

	for changed := true; changed; {
		changed = false
		cx.Observed = make(map[*cfg.Node]map[*sem.VarSym]bool)
		for _, r := range cx.Info.Routines {
			g, fl := cx.Graphs[r], cx.Flows[r]
			for _, n := range g.Nodes {
				if n == g.Entry || n == g.Exit {
					continue
				}
				_, uses := defuse.Node(cx.Info, n, res)
				obs := make(map[*sem.VarSym]bool, uses.Len())
				for _, v := range uses.Slice() {
					obs[v] = true
					if fl.SyntheticReaches(n, v) && !res.exposed[r][v] {
						res.exposed[r][v] = true
						changed = true
					}
				}
				cx.Observed[n] = obs
			}
		}
	}
}
