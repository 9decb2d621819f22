// Package callgraph computes the static call graph of an analyzed
// program: which routines each routine may call, and at which sites.
package callgraph

import (
	"sort"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// Site is one call site inside a routine.
type Site struct {
	Caller *sem.Routine
	Callee *sem.Routine
	// Node is the *ast.CallStmt, *ast.CallExpr or *ast.Ident of the call.
	Node ast.Node
	// Args are the syntactic arguments (nil for parameterless calls).
	Args []ast.Expr
}

// Graph is the call graph.
type Graph struct {
	// Callees maps each routine to its distinct callees.
	Callees map[*sem.Routine][]*sem.Routine
	// Callers is the inverse relation.
	Callers map[*sem.Routine][]*sem.Routine
	// Sites lists every call site per caller, in source order.
	Sites map[*sem.Routine][]*Site
}

// Build walks every routine body and records resolved user-routine
// calls (builtins are not part of the graph).
func Build(info *sem.Info) *Graph {
	g := &Graph{
		Callees: make(map[*sem.Routine][]*sem.Routine),
		Callers: make(map[*sem.Routine][]*sem.Routine),
		Sites:   make(map[*sem.Routine][]*Site),
	}
	for _, r := range info.Routines {
		g.Callees[r] = nil
	}
	for _, r := range info.Routines {
		r := r
		ast.Inspect(r.Block.Body, func(n ast.Node) bool {
			var site *Site
			switch n := n.(type) {
			case *ast.CallStmt:
				if callee := info.CallOf(n); callee != nil {
					site = &Site{Caller: r, Callee: callee, Node: n, Args: n.Args}
				}
			case *ast.CallExpr:
				if callee := info.CallOf(n); callee != nil {
					site = &Site{Caller: r, Callee: callee, Node: n, Args: n.Args}
				}
			case *ast.Ident:
				if callee := info.CallOf(n); callee != nil {
					site = &Site{Caller: r, Callee: callee, Node: n}
				}
			}
			if site != nil {
				g.Sites[r] = append(g.Sites[r], site)
				g.addEdge(r, site.Callee)
			}
			return true
		})
	}
	return g
}

func (g *Graph) addEdge(caller, callee *sem.Routine) {
	for _, c := range g.Callees[caller] {
		if c == callee {
			return
		}
	}
	g.Callees[caller] = append(g.Callees[caller], callee)
	g.Callers[callee] = append(g.Callers[callee], caller)
}

// PostOrder returns routines so that callees come before callers where
// possible (cycles broken arbitrarily), starting from the program block.
func (g *Graph) PostOrder(main *sem.Routine) []*sem.Routine {
	var order []*sem.Routine
	state := make(map[*sem.Routine]int) // 0 unseen, 1 visiting, 2 done
	var visit func(r *sem.Routine)
	visit = func(r *sem.Routine) {
		if state[r] != 0 {
			return
		}
		state[r] = 1
		callees := append([]*sem.Routine(nil), g.Callees[r]...)
		sort.Slice(callees, func(i, j int) bool { return callees[i].Name < callees[j].Name })
		for _, c := range callees {
			visit(c)
		}
		state[r] = 2
		order = append(order, r)
	}
	visit(main)
	// Include unreachable routines too, for completeness of analyses.
	rest := make([]*sem.Routine, 0)
	for r := range g.Callees {
		if state[r] == 0 {
			rest = append(rest, r)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	for _, r := range rest {
		visit(r)
	}
	return order
}
