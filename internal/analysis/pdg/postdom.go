// Package pdg builds program dependence graphs (control + data
// dependence) per routine and links them into a system dependence graph
// (SDG) with summary edges, in the style of Horwitz, Reps and Binkley —
// the machinery behind the paper's interprocedural slicing (Section 4).
package pdg

import (
	"gadt/internal/analysis/cfg"
)

// postDoms computes the immediate postdominator of every CFG node that
// can reach Exit, using the iterative dominance algorithm of Cooper,
// Harvey and Kennedy on the reverse graph.
func postDoms(g *cfg.Graph) map[*cfg.Node]*cfg.Node {
	// Reverse post-order of the reverse CFG (i.e. order from Exit).
	var order []*cfg.Node
	index := make(map[*cfg.Node]int)
	seen := make(map[*cfg.Node]bool)
	var dfs func(n *cfg.Node)
	dfs = func(n *cfg.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, p := range n.Preds {
			dfs(p)
		}
		order = append(order, n)
	}
	dfs(g.Exit)
	// order is post-order of reverse graph; reverse it for RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, n := range order {
		index[n] = i
	}

	ipdom := make(map[*cfg.Node]*cfg.Node)
	ipdom[g.Exit] = g.Exit

	intersect := func(a, b *cfg.Node) *cfg.Node {
		for a != b {
			for index[a] > index[b] {
				a = ipdom[a]
			}
			for index[b] > index[a] {
				b = ipdom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if n == g.Exit {
				continue
			}
			var newIdom *cfg.Node
			for _, s := range n.Succs {
				if _, ok := ipdom[s]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom == nil {
				continue
			}
			if ipdom[n] != newIdom {
				ipdom[n] = newIdom
				changed = true
			}
		}
	}
	return ipdom
}

// ControlDeps computes, for each CFG node, the set of condition nodes it
// is control-dependent on (Ferrante–Ottenstein–Warren): for an edge
// A→B where B does not postdominate A, every node on the postdominator
// path from B up to (but excluding) ipdom(A) is control-dependent on A.
// Nodes with no controlling condition depend on Entry.
func ControlDeps(g *cfg.Graph) map[*cfg.Node][]*cfg.Node {
	ipdom := postDoms(g)
	deps := make(map[*cfg.Node][]*cfg.Node)
	add := func(n, on *cfg.Node) {
		if n == on {
			return
		}
		for _, d := range deps[n] {
			if d == on {
				return
			}
		}
		deps[n] = append(deps[n], on)
	}

	for _, a := range g.Nodes {
		if len(a.Succs) < 2 {
			continue
		}
		stop := ipdom[a]
		for _, b := range a.Succs {
			// Walk the postdominator chain from b to ipdom(a).
			for cur := b; cur != nil && cur != stop; {
				add(cur, a)
				next, ok := ipdom[cur]
				if !ok || next == cur {
					break
				}
				cur = next
			}
		}
	}

	// Nodes without a controller are controlled by Entry.
	for _, n := range g.Nodes {
		if n == g.Entry {
			continue
		}
		if len(deps[n]) == 0 {
			deps[n] = []*cfg.Node{g.Entry}
		}
	}
	return deps
}
