package pdg

import (
	"fmt"

	"gadt/internal/analysis/absint"
	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/dataflow"
	"gadt/internal/analysis/defuse"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// NodeKind classifies SDG nodes.
type NodeKind int

const (
	EntryKind NodeKind = iota
	StmtKind           // wraps a CFG node (statements, conditions, calls)
	FormalIn
	FormalOut
	ActualIn
	ActualOut
)

func (k NodeKind) String() string {
	switch k {
	case EntryKind:
		return "entry"
	case FormalIn:
		return "formal-in"
	case FormalOut:
		return "formal-out"
	case ActualIn:
		return "actual-in"
	case ActualOut:
		return "actual-out"
	}
	return "stmt"
}

// Node is one SDG node.
type Node struct {
	ID      int
	Kind    NodeKind
	Routine *sem.Routine
	CFG     *cfg.Node       // StmtKind and EntryKind
	Var     *sem.VarSym     // Formal*/Actual*: formal param, result var, or global
	Site    *callgraph.Site // Actual*
}

func (n *Node) String() string {
	switch n.Kind {
	case EntryKind:
		return "entry " + n.Routine.Name
	case StmtKind:
		return fmt.Sprintf("%s: %s", n.Routine.Name, n.CFG)
	case FormalIn, FormalOut:
		return fmt.Sprintf("%s %s.%s", n.Kind, n.Routine.Name, n.Var.Name)
	default:
		return fmt.Sprintf("%s %s->%s.%s", n.Kind, n.Routine.Name, n.Site.Callee.Name, n.Var.Name)
	}
}

// EdgeKind classifies SDG edges.
type EdgeKind int

const (
	ControlDep EdgeKind = iota
	FlowDep
	CallEdge
	ParamIn
	ParamOut
	Summary
)

func (k EdgeKind) String() string {
	switch k {
	case ControlDep:
		return "control"
	case FlowDep:
		return "flow"
	case CallEdge:
		return "call"
	case ParamIn:
		return "param-in"
	case ParamOut:
		return "param-out"
	}
	return "summary"
}

// Edge is a directed dependence edge.
type Edge struct {
	From, To *Node
	Kind     EdgeKind
}

// SDG is the system dependence graph of a program.
type SDG struct {
	Info *sem.Info
	CG   *callgraph.Graph
	SE   *sideeffect.Result
	// Values is the abstract-interpretation result used to prune
	// statically infeasible CFG edges before dependence construction.
	Values *absint.Result

	Nodes []*Node

	preds map[*Node][]Edge
	edges map[[3]int]bool // dedup: fromID, toID, kind

	EntryOf   map[*sem.Routine]*Node
	CFGs      map[*sem.Routine]*cfg.Graph
	Flows     map[*sem.Routine]*dataflow.Result
	nodeOfCFG map[*cfg.Node]*Node

	formalIns  map[*sem.Routine]map[*sem.VarSym]*Node
	formalOuts map[*sem.Routine]map[*sem.VarSym]*Node
	actualIns  map[*callgraph.Site]map[*sem.VarSym]*Node
	actualOuts map[*callgraph.Site]map[*sem.VarSym]*Node
	// actualOutByCallerVar indexes a site's actual-out nodes by the
	// caller-side variable they define.
	actualOutByCallerVar map[*callgraph.Site]map[*sem.VarSym][]*Node
	// sitesAt lists call sites whose call occurs inside a CFG node.
	sitesAt map[*cfg.Node][]*callgraph.Site
}

// Preds returns the incoming edges of n. The graph keeps no successor
// lists: every slice walks dependences backward, and each edge sits in
// exactly one predecessor list.
func (s *SDG) Preds(n *Node) []Edge { return s.preds[n] }

// FormalOutOf returns the formal-out node of routine r for v (a var/out
// parameter, the function result variable, or a modified global), or nil.
func (s *SDG) FormalOutOf(r *sem.Routine, v *sem.VarSym) *Node { return s.formalOuts[r][v] }

func (s *SDG) newNode(n *Node) *Node {
	n.ID = len(s.Nodes)
	s.Nodes = append(s.Nodes, n)
	return n
}

func (s *SDG) addEdge(from, to *Node, kind EdgeKind) {
	if from == nil || to == nil || from == to {
		return
	}
	key := [3]int{from.ID, to.ID, int(kind)}
	if s.edges[key] {
		return
	}
	s.edges[key] = true
	s.preds[to] = append(s.preds[to], Edge{From: from, To: to, Kind: kind})
}

// Build constructs the SDG of an analyzed program: per-routine PDGs
// (control + flow dependence), parameter linkage at call sites, and
// HRB summary edges. Control flow the value analysis proves infeasible
// is pruned first, so slices never include dead branches.
func Build(info *sem.Info) *SDG {
	return build(info, true)
}

// BuildUnpruned constructs the SDG without infeasible-edge pruning.
// Differential tests use it to compare against value-blind baselines
// such as the Weiser slicer; regular clients want Build.
func BuildUnpruned(info *sem.Info) *SDG {
	return build(info, false)
}

func build(info *sem.Info, prune bool) *SDG {
	cg := callgraph.Build(info)
	se := sideeffect.Analyze(info, cg)
	s := &SDG{
		Info:                 info,
		CG:                   cg,
		SE:                   se,
		preds:                make(map[*Node][]Edge),
		edges:                make(map[[3]int]bool),
		EntryOf:              make(map[*sem.Routine]*Node),
		CFGs:                 make(map[*sem.Routine]*cfg.Graph),
		Flows:                make(map[*sem.Routine]*dataflow.Result),
		nodeOfCFG:            make(map[*cfg.Node]*Node),
		formalIns:            make(map[*sem.Routine]map[*sem.VarSym]*Node),
		formalOuts:           make(map[*sem.Routine]map[*sem.VarSym]*Node),
		actualIns:            make(map[*callgraph.Site]map[*sem.VarSym]*Node),
		actualOuts:           make(map[*callgraph.Site]map[*sem.VarSym]*Node),
		actualOutByCallerVar: make(map[*callgraph.Site]map[*sem.VarSym][]*Node),
		sitesAt:              make(map[*cfg.Node][]*callgraph.Site),
	}

	// Build every CFG first, then let the value analysis prune branches
	// it proves untakeable: a dependence can only arise along an edge
	// some execution follows, so dropping infeasible edges (and the
	// nodes they orphan) shrinks every downstream slice soundly.
	for _, r := range info.Routines {
		s.CFGs[r] = cfg.Build(info, r)
	}
	if prune {
		s.pruneInfeasible()
	}
	for _, r := range info.Routines {
		s.buildRoutineSkeleton(r)
	}
	for _, r := range info.Routines {
		s.buildCallLinkage(r)
	}
	for _, r := range info.Routines {
		s.buildFlowEdges(r)
	}
	s.computeSummaryEdges()
	return s
}

// pruneInfeasible removes CFG edges the abstract interpretation proves
// can never be taken, then fully detaches nodes left unreachable (by
// the analysis or by the edge removal), so control and flow dependence
// never route through dead branches.
func (s *SDG) pruneInfeasible() {
	res := absint.AnalyzeGraphs(s.Info, s.CFGs, s.CG, s.SE)
	s.Values = res
	for _, r := range s.Info.Routines {
		g := s.CFGs[r]
		for _, e := range res.InfeasibleEdges(g) {
			g.RemoveEdge(e.From, e.To)
		}
		reach := g.Reachable()
		for _, n := range g.Nodes {
			if n == g.Entry || n == g.Exit {
				continue
			}
			if !reach[n.ID] || !res.Reachable(n) {
				g.Disconnect(n)
			}
		}
	}
}

// buildRoutineSkeleton creates the routine's nodes and control edges.
func (s *SDG) buildRoutineSkeleton(r *sem.Routine) {
	g := s.CFGs[r]
	s.Flows[r] = dataflow.ReachingDefs(s.Info, g, s.SE)

	entry := s.newNode(&Node{Kind: EntryKind, Routine: r, CFG: g.Entry})
	s.EntryOf[r] = entry
	s.nodeOfCFG[g.Entry] = entry
	for _, c := range g.Nodes {
		if c == g.Entry || c == g.Exit {
			continue
		}
		s.nodeOfCFG[c] = s.newNode(&Node{Kind: StmtKind, Routine: r, CFG: c})
	}

	// Formal parameter nodes.
	fins := make(map[*sem.VarSym]*Node)
	fouts := make(map[*sem.VarSym]*Node)
	s.formalIns[r], s.formalOuts[r] = fins, fouts
	for _, p := range r.Params {
		fins[p] = s.newNode(&Node{Kind: FormalIn, Routine: r, Var: p})
		if p.Mode != ast.Value {
			fouts[p] = s.newNode(&Node{Kind: FormalOut, Routine: r, Var: p})
		}
	}
	if r.Result != nil {
		fouts[r.Result] = s.newNode(&Node{Kind: FormalOut, Routine: r, Var: r.Result})
	}
	// Globals the routine touches are modeled as hidden parameters.
	eff := s.SE.Of[r]
	for _, v := range eff.RefGlobals.Slice() {
		if fins[v] == nil {
			fins[v] = s.newNode(&Node{Kind: FormalIn, Routine: r, Var: v})
		}
	}
	for _, v := range eff.ModGlobals.Slice() {
		if fins[v] == nil { // a modified global's old value may survive (may-def)
			fins[v] = s.newNode(&Node{Kind: FormalIn, Routine: r, Var: v})
		}
		fouts[v] = s.newNode(&Node{Kind: FormalOut, Routine: r, Var: v})
	}
	for _, n := range fins {
		s.addEdge(entry, n, ControlDep)
	}
	for _, n := range fouts {
		s.addEdge(entry, n, ControlDep)
	}

	// Control dependence edges.
	cd := ControlDeps(g)
	for _, c := range g.Nodes {
		if c == g.Entry || c == g.Exit {
			continue
		}
		for _, ctrl := range cd[c] {
			s.addEdge(s.nodeOfCFG[ctrl], s.nodeOfCFG[c], ControlDep)
		}
	}
}

// callASTs returns the call-expression ASTs syntactically owned by a CFG
// node (not descending into nested statements).
func ownedExprs(c *cfg.Node) []ast.Node {
	switch c.Kind {
	case cfg.Cond:
		return []ast.Node{c.Cond}
	case cfg.ForInit:
		return []ast.Node{c.Stmt.(*ast.ForStmt).From}
	case cfg.ForCond:
		return []ast.Node{c.Stmt.(*ast.ForStmt).Limit}
	case cfg.Stmt:
		switch st := c.Stmt.(type) {
		case *ast.AssignStmt:
			return []ast.Node{st.Lhs, st.Rhs}
		case *ast.CallStmt:
			return []ast.Node{st}
		}
	}
	return nil
}

// buildCallLinkage creates actual parameter nodes and the call/param
// edges for every call site in r.
func (s *SDG) buildCallLinkage(r *sem.Routine) {
	g := s.CFGs[r]
	// Map call-site ASTs to CFG nodes.
	siteByAST := make(map[ast.Node]*callgraph.Site)
	for _, site := range s.CG.Sites[r] {
		siteByAST[site.Node] = site
	}
	siteCFG := make(map[*callgraph.Site]*cfg.Node)
	for _, c := range g.Nodes {
		for _, root := range ownedExprs(c) {
			c := c
			ast.Inspect(root, func(n ast.Node) bool {
				if site, ok := siteByAST[n]; ok {
					siteCFG[site] = c
					s.sitesAt[c] = append(s.sitesAt[c], site)
				}
				return true
			})
		}
	}

	for _, site := range s.CG.Sites[r] {
		c := siteCFG[site]
		if c == nil {
			continue // unreachable or malformed
		}
		callNode := s.nodeOfCFG[c]
		callee := site.Callee
		s.addEdge(callNode, s.EntryOf[callee], CallEdge)

		ains := make(map[*sem.VarSym]*Node)
		aouts := make(map[*sem.VarSym]*Node)
		byCallerVar := make(map[*sem.VarSym][]*Node)
		s.actualIns[site], s.actualOuts[site] = ains, aouts
		s.actualOutByCallerVar[site] = byCallerVar

		for i, p := range callee.Params {
			ain := s.newNode(&Node{Kind: ActualIn, Routine: r, Var: p, Site: site})
			ains[p] = ain
			s.addEdge(callNode, ain, ControlDep)
			s.addEdge(ain, s.formalIns[callee][p], ParamIn)
			if p.Mode != ast.Value {
				aout := s.newNode(&Node{Kind: ActualOut, Routine: r, Var: p, Site: site})
				aouts[p] = aout
				s.addEdge(callNode, aout, ControlDep)
				if fo := s.formalOuts[callee][p]; fo != nil {
					s.addEdge(fo, aout, ParamOut)
				}
				if i < len(site.Args) {
					if base := s.Info.VarOf(site.Args[i]); base != nil {
						byCallerVar[base] = append(byCallerVar[base], aout)
					}
				}
			}
		}
		// Function result.
		if callee.Result != nil {
			aout := s.newNode(&Node{Kind: ActualOut, Routine: r, Var: callee.Result, Site: site})
			aouts[callee.Result] = aout
			s.addEdge(callNode, aout, ControlDep)
			if fo := s.formalOuts[callee][callee.Result]; fo != nil {
				s.addEdge(fo, aout, ParamOut)
			}
			// The result flows into the statement consuming the call.
			s.addEdge(aout, callNode, FlowDep)
		}
		// Hidden parameters for the callee's global effects.
		eff := s.SE.Of[callee]
		for _, v := range eff.RefGlobals.Slice() {
			ain := s.newNode(&Node{Kind: ActualIn, Routine: r, Var: v, Site: site})
			ains[v] = ain
			s.addEdge(callNode, ain, ControlDep)
			s.addEdge(ain, s.formalIns[callee][v], ParamIn)
		}
		for _, v := range eff.ModGlobals.Slice() {
			if ains[v] == nil {
				ain := s.newNode(&Node{Kind: ActualIn, Routine: r, Var: v, Site: site})
				ains[v] = ain
				s.addEdge(callNode, ain, ControlDep)
				s.addEdge(ain, s.formalIns[callee][v], ParamIn)
			}
			aout := s.newNode(&Node{Kind: ActualOut, Routine: r, Var: v, Site: site})
			aouts[v] = aout
			s.addEdge(callNode, aout, ControlDep)
			if fo := s.formalOuts[callee][v]; fo != nil {
				s.addEdge(fo, aout, ParamOut)
			}
			byCallerVar[v] = append(byCallerVar[v], aout)
		}
	}
}

// defSources maps a reaching definition to the SDG nodes that act as its
// source: formal-in nodes for entry definitions, actual-out nodes for
// call effects, the statement node otherwise.
func (s *SDG) defSources(r *sem.Routine, d *dataflow.Def) []*Node {
	g := s.CFGs[r]
	if d.Node == g.Entry {
		if fi := s.formalIns[r][d.Var]; fi != nil {
			return []*Node{fi}
		}
		return []*Node{s.EntryOf[r]}
	}
	var out []*Node
	own := false
	switch d.Node.Kind {
	case cfg.ForInit, cfg.ForIncr:
		own = true
	case cfg.Stmt:
		switch st := d.Node.Stmt.(type) {
		case *ast.AssignStmt:
			if s.Info.VarOf(st.Lhs) == d.Var {
				own = true
			}
		case *ast.CallStmt:
			if b := s.Info.BuiltinOf(st); b != nil {
				own = true // read/readln define their targets directly
			}
		}
	}
	for _, site := range s.sitesAt[d.Node] {
		for _, aout := range s.actualOutByCallerVar[site][d.Var] {
			out = append(out, aout)
		}
	}
	if own || len(out) == 0 {
		out = append(out, s.nodeOfCFG[d.Node])
	}
	return out
}

// buildFlowEdges adds intraprocedural flow dependences, including edges
// into actual-in and formal-out nodes.
func (s *SDG) buildFlowEdges(r *sem.Routine) {
	g := s.CFGs[r]
	df := s.Flows[r]

	// Entry definitions of non-local variables flow from their hidden
	// formal-in nodes; those of locals from the entry node (handled by
	// defSources). For every node's uses, connect reaching defs.
	for _, c := range g.Nodes {
		if c == g.Entry || c == g.Exit {
			continue
		}
		target := s.nodeOfCFG[c]
		for _, u := range s.nodeLevelUses(c, df) {
			for _, d := range df.ReachingAt(c, u) {
				for _, src := range s.defSources(r, d) {
					s.addEdge(src, target, FlowDep)
				}
			}
		}
		// Per-argument flow into actual-in nodes.
		for _, site := range s.sitesAt[c] {
			for i, p := range site.Callee.Params {
				ain := s.actualIns[site][p]
				if ain == nil || i >= len(site.Args) {
					continue
				}
				arg := site.Args[i]
				uses := defuse.NewSet()
				if p.Mode == ast.Value {
					defs := defuse.NewSet()
					defuse.ExprUses(s.Info, arg, nil, defs, uses)
				} else {
					// By-reference argument: the callee may read the
					// bound variable; index expressions are read at
					// binding time.
					if base := s.Info.VarOf(arg); base != nil {
						uses.Add(base)
					}
					idx := defuse.NewSet()
					defuse.ExprUses(s.Info, arg, nil, defuse.NewSet(), idx)
					for _, v := range idx.Slice() {
						if v != s.Info.VarOf(arg) {
							uses.Add(v)
						}
					}
				}
				for _, u := range uses.Slice() {
					for _, d := range df.ReachingAt(c, u) {
						for _, src := range s.defSources(r, d) {
							s.addEdge(src, ain, FlowDep)
						}
					}
				}
			}
			// Hidden global actual-ins read the global at the call.
			for v, ain := range s.actualIns[site] {
				if v.Kind == sem.ParamVar && v.Owner == site.Callee {
					continue // formal param, handled above
				}
				for _, d := range df.ReachingAt(c, v) {
					for _, src := range s.defSources(r, d) {
						s.addEdge(src, ain, FlowDep)
					}
				}
			}
		}
	}

	// Formal-out nodes read the final value of their variable at Exit.
	for v, fo := range s.formalOuts[r] {
		for _, d := range df.ReachingAt(g.Exit, v) {
			for _, src := range s.defSources(r, d) {
				s.addEdge(src, fo, FlowDep)
			}
		}
	}
}

// nodeLevelUses returns the uses attributed to the statement node
// itself. For nodes containing user-routine calls, argument uses and
// callee effects belong to the call's actual-in nodes, so only the
// "shallow" uses outside call arguments remain at the node; other nodes
// keep their full use set.
func (s *SDG) nodeLevelUses(c *cfg.Node, df *dataflow.Result) []*sem.VarSym {
	if len(s.sitesAt[c]) == 0 {
		return df.UsesAt[c.ID]
	}
	uses := defuse.NewSet()
	switch c.Kind {
	case cfg.Cond:
		defuse.ExprUsesShallow(s.Info, c.Cond, uses)
	case cfg.ForInit:
		defuse.ExprUsesShallow(s.Info, c.Stmt.(*ast.ForStmt).From, uses)
	case cfg.ForCond:
		fs := c.Stmt.(*ast.ForStmt)
		uses.Add(s.Info.VarOf(fs.Var))
		defuse.ExprUsesShallow(s.Info, fs.Limit, uses)
	case cfg.Stmt:
		switch st := c.Stmt.(type) {
		case *ast.AssignStmt:
			defuse.ExprUsesShallow(s.Info, st.Rhs, uses)
			if _, whole := st.Lhs.(*ast.Ident); !whole {
				if idx, ok := st.Lhs.(*ast.IndexExpr); ok {
					for _, ie := range idx.Indices {
						defuse.ExprUsesShallow(s.Info, ie, uses)
					}
				}
				uses.Add(s.Info.VarOf(st.Lhs))
			}
		case *ast.CallStmt:
			if b := s.Info.BuiltinOf(st); b != nil && b.Name != "read" && b.Name != "readln" {
				for _, a := range st.Args {
					defuse.ExprUsesShallow(s.Info, a, uses)
				}
			}
			// User procedure calls: arguments are actual-in uses.
		}
	}
	return uses.Slice()
}

// computeSummaryEdges adds HRB summary edges (actual-in → actual-out)
// describing transitive dependences through each call, iterating to a
// fixpoint so recursion is handled.
func (s *SDG) computeSummaryEdges() {
	// known[fo] = set of formal-in IDs already recorded for fo.
	known := make(map[*Node]map[*Node]bool)

	work := make([]*sem.Routine, len(s.Info.Routines))
	copy(work, s.Info.Routines)
	inWork := make(map[*sem.Routine]bool)
	for _, r := range work {
		inWork[r] = true
	}

	for len(work) > 0 {
		r := work[0]
		work = work[1:]
		inWork[r] = false

		// Inside r, a formal-out depends on the formal-ins that reach
		// it over control, flow and summary edges.
		intra := func(e Edge) bool {
			return (e.Kind == ControlDep || e.Kind == FlowDep || e.Kind == Summary) && e.From.Routine == r
		}
		for _, fo := range s.formalOuts[r] {
			reached := s.traverse([]*Node{fo}, intra)
			for fi := range reached {
				if fi.Kind != FormalIn || fi.Routine != r {
					continue
				}
				if known[fo] == nil {
					known[fo] = make(map[*Node]bool)
				}
				if known[fo][fi] {
					continue
				}
				known[fo][fi] = true
				// New (formal-in → formal-out) dependence: add summary
				// edges at every call site of r.
				for _, caller := range s.CG.Callers[r] {
					for _, site := range s.CG.Sites[caller] {
						if site.Callee != r {
							continue
						}
						ain := s.actualIns[site][fi.Var]
						aout := s.actualOuts[site][fo.Var]
						if ain != nil && aout != nil {
							s.addEdge(ain, aout, Summary)
							if !inWork[caller] {
								inWork[caller] = true
								work = append(work, caller)
							}
						}
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Two-phase backward slicing

// BackwardSlice computes the interprocedural backward slice from the
// criterion nodes using the Horwitz–Reps–Binkley two-phase algorithm.
func (s *SDG) BackwardSlice(criterion []*Node) map[*Node]bool {
	phase1 := s.traverse(criterion, func(e Edge) bool { return e.Kind != ParamOut })
	var seeds []*Node
	for n := range phase1 {
		seeds = append(seeds, n)
	}
	phase2 := s.traverse(seeds, func(e Edge) bool { return e.Kind != CallEdge && e.Kind != ParamIn })
	for n := range phase1 {
		phase2[n] = true
	}
	return phase2
}

// traverse returns every node that reaches a start node backward over
// the edges follow accepts, the start nodes included.
func (s *SDG) traverse(start []*Node, follow func(Edge) bool) map[*Node]bool {
	seen := make(map[*Node]bool)
	var stack []*Node
	for _, n := range start {
		if n != nil && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range s.preds[cur] {
			if !follow(e) || seen[e.From] {
				continue
			}
			seen[e.From] = true
			stack = append(stack, e.From)
		}
	}
	return seen
}

// ReachingDefNodes returns the SDG nodes acting as sources of the
// definitions of v that reach CFG node c in routine r — the usual way to
// seed a slice on "variable v at point p".
func (s *SDG) ReachingDefNodes(r *sem.Routine, c *cfg.Node, v *sem.VarSym) []*Node {
	df := s.Flows[r]
	var out []*Node
	for _, d := range df.ReachingAt(c, v) {
		out = append(out, s.defSources(r, d)...)
	}
	return out
}
