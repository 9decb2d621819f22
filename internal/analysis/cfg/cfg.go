// Package cfg builds per-routine control-flow graphs for the GADT Pascal
// subset.
//
// Nodes are atomic statements (assignments, calls, I/O) plus synthetic
// condition nodes for structured control and synthetic init/incr nodes
// for for-loops. Local gotos become edges; gotos that leave the routine
// (the paper's "exit side-effects") become edges to the routine's Exit
// node and are recorded in Graph.EscapingGotos.
package cfg

import (
	"fmt"
	"strings"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
)

// Kind classifies CFG nodes.
type Kind int

const (
	Entry Kind = iota
	Exit
	Stmt    // assignment, call, goto, empty
	Cond    // branch condition of if/while/repeat/case
	ForInit // synthetic: v := from
	ForCond // synthetic: v <= limit (or >= for downto)
	ForIncr // synthetic: v := v ± 1
)

func (k Kind) String() string {
	switch k {
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	case Cond:
		return "cond"
	case ForInit:
		return "for-init"
	case ForCond:
		return "for-cond"
	case ForIncr:
		return "for-incr"
	}
	return "stmt"
}

// Branch labels an edge with the condition outcome that takes it. Edges
// out of Cond/ForCond nodes carry BranchTrue or BranchFalse; when both
// outcomes of a condition reach the same node (an empty branch) the
// merged edge is BranchBoth. All other edges are BranchAlways.
type Branch int

const (
	BranchAlways Branch = iota // unconditional flow
	BranchTrue                 // taken when the condition holds
	BranchFalse                // taken when the condition fails
	BranchBoth                 // true and false outcomes merge here
)

func (br Branch) String() string {
	switch br {
	case BranchTrue:
		return "true"
	case BranchFalse:
		return "false"
	case BranchBoth:
		return "both"
	}
	return "always"
}

// mergeBranch combines the labels of two parallel edges between the same
// node pair (the builder dedups such edges into one).
func mergeBranch(a, b Branch) Branch {
	if a == b {
		return a
	}
	if a == BranchAlways || b == BranchAlways {
		return BranchAlways
	}
	return BranchBoth
}

// Node is one CFG node.
type Node struct {
	// ID numbers the nodes of one graph densely, 0 to len(Graph.Nodes)-1
	// in creation order (Entry is 0, Exit 1), so analyses keep per-node
	// state in slices indexed by it.
	ID    int
	Kind  Kind
	Graph *Graph // the graph the node belongs to

	// Stmt is set for Stmt nodes and for the For* synthetic nodes (the
	// enclosing *ast.ForStmt); Cond carries the branch expression for
	// Cond nodes (the selector expression for case).
	Stmt ast.Stmt
	Cond ast.Expr

	Succs []*Node
	Preds []*Node
}

// String renders a short human-readable description of the node.
func (n *Node) String() string {
	switch n.Kind {
	case Entry, Exit:
		return n.Kind.String()
	case Cond:
		return "cond " + printer.PrintExpr(n.Cond)
	case ForInit, ForCond, ForIncr:
		fs := n.Stmt.(*ast.ForStmt)
		return fmt.Sprintf("%s %s", n.Kind, fs.Var.Name)
	}
	s := printer.PrintStmt(n.Stmt)
	return strings.TrimRight(s, "\n")
}

// Graph is the CFG of one routine.
type Graph struct {
	Routine *sem.Routine
	Entry   *Node
	Exit    *Node
	Nodes   []*Node

	// EscapingGotos lists goto statements whose target label is declared
	// in an enclosing routine (global gotos).
	EscapingGotos []*ast.GotoStmt

	// NodeOf maps an atomic source statement to its CFG node. Synthetic
	// condition nodes are reachable through CondOf.
	NodeOf map[ast.Stmt]*Node
	// CondOf maps a structured statement to its condition node(s).
	CondOf map[ast.Stmt][]*Node

	// labels records the branch label of every edge, keyed by the
	// (from, to) node-ID pair.
	labels map[[2]int]Branch
}

// Label returns the branch label of the from→to edge (BranchAlways when
// the edge does not exist or carries no condition outcome).
func (g *Graph) Label(from, to *Node) Branch {
	return g.labels[[2]int{from.ID, to.ID}]
}

// RemoveEdge deletes the from→to edge, if present. Used by clients that
// prune statically infeasible branches before dependence analysis.
func (g *Graph) RemoveEdge(from, to *Node) {
	for i, s := range from.Succs {
		if s == to {
			from.Succs = append(from.Succs[:i], from.Succs[i+1:]...)
			break
		}
	}
	for i, p := range to.Preds {
		if p == from {
			to.Preds = append(to.Preds[:i], to.Preds[i+1:]...)
			break
		}
	}
	delete(g.labels, [2]int{from.ID, to.ID})
}

// Disconnect removes every edge touching n, detaching it from the graph
// (the node itself stays in Nodes so IDs remain stable).
func (g *Graph) Disconnect(n *Node) {
	for _, s := range append([]*Node(nil), n.Succs...) {
		g.RemoveEdge(n, s)
	}
	for _, p := range append([]*Node(nil), n.Preds...) {
		g.RemoveEdge(p, n)
	}
}

// Build constructs the CFG of routine r using resolved goto targets from
// info.
func Build(info *sem.Info, r *sem.Routine) *Graph {
	b := &builder{
		info: info,
		g: &Graph{
			Routine: r,
			NodeOf:  make(map[ast.Stmt]*Node),
			CondOf:  make(map[ast.Stmt][]*Node),
			labels:  make(map[[2]int]Branch),
		},
		labels: make(map[string]*Node),
	}
	b.g.Entry = b.newNode(Entry)
	b.g.Exit = b.newNode(Exit)

	exits := b.stmt(r.Block.Body, []flow{{b.g.Entry, BranchAlways}})
	for _, f := range exits {
		b.edge(f.n, b.g.Exit, f.br)
	}
	// Wire pending local gotos now that all labels are known.
	for _, pg := range b.pendingGotos {
		target, ok := b.labels[pg.label]
		if !ok {
			// Label exists per sem but was not seen: defensive fallback.
			b.edge(pg.node, b.g.Exit, BranchAlways)
			continue
		}
		b.edge(pg.node, target, BranchAlways)
	}
	return b.g
}

// BuildAll constructs CFGs for every routine of an analyzed program.
func BuildAll(info *sem.Info) map[*sem.Routine]*Graph {
	out := make(map[*sem.Routine]*Graph, len(info.Routines))
	for _, r := range info.Routines {
		out[r] = Build(info, r)
	}
	return out
}

type pendingGoto struct {
	node  *Node
	label string
}

type builder struct {
	info         *sem.Info
	g            *Graph
	labels       map[string]*Node
	pendingGotos []pendingGoto
}

func (b *builder) newNode(k Kind) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: k, Graph: b.g}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// flow is a dangling edge source awaiting its target: the node control
// leaves from, plus the branch outcome that leaves it.
type flow struct {
	n  *Node
	br Branch
}

func (b *builder) edge(from, to *Node, br Branch) {
	key := [2]int{from.ID, to.ID}
	for _, s := range from.Succs {
		if s == to {
			b.g.labels[key] = mergeBranch(b.g.labels[key], br)
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
	b.g.labels[key] = br
}

func (b *builder) connect(preds []flow, to *Node) {
	for _, p := range preds {
		b.edge(p.n, to, p.br)
	}
}

// stmt adds nodes for s with the given predecessors and returns the set
// of dangling flows whose fall-through continues after s. Nodes that
// transfer control elsewhere (goto) return no exits.
func (b *builder) stmt(s ast.Stmt, preds []flow) []flow {
	switch s := s.(type) {
	case nil:
		return preds
	case *ast.CompoundStmt:
		cur := preds
		for _, c := range s.Stmts {
			cur = b.stmt(c, cur)
		}
		return cur
	case *ast.EmptyStmt:
		return preds
	case *ast.AssignStmt, *ast.CallStmt:
		n := b.newNode(Stmt)
		n.Stmt = s
		b.g.NodeOf[s] = n
		b.connect(preds, n)
		return []flow{{n, BranchAlways}}
	case *ast.GotoStmt:
		n := b.newNode(Stmt)
		n.Stmt = s
		b.g.NodeOf[s] = n
		b.connect(preds, n)
		li := b.info.GotoTgt[s]
		if li == nil || li.Routine != b.g.Routine {
			// Escaping goto: control leaves this routine.
			b.g.EscapingGotos = append(b.g.EscapingGotos, s)
			b.edge(n, b.g.Exit, BranchAlways)
		} else {
			b.pendingGotos = append(b.pendingGotos, pendingGoto{node: n, label: s.Label})
		}
		return nil
	case *ast.LabeledStmt:
		// The label attaches to the first node of the inner statement;
		// introduce a join node so backward gotos have a stable target
		// even when the inner statement is structured.
		join := b.newNode(Stmt)
		join.Stmt = &ast.EmptyStmt{SemiPos: s.Pos()}
		b.g.NodeOf[s] = join
		b.labels[s.Label] = join
		b.connect(preds, join)
		return b.stmt(s.Stmt, []flow{{join, BranchAlways}})
	case *ast.IfStmt:
		cond := b.newNode(Cond)
		cond.Cond = s.Cond
		cond.Stmt = s
		b.g.CondOf[s] = append(b.g.CondOf[s], cond)
		b.connect(preds, cond)
		thenExits := b.stmt(s.Then, []flow{{cond, BranchTrue}})
		if s.Else == nil {
			return append(thenExits, flow{cond, BranchFalse})
		}
		elseExits := b.stmt(s.Else, []flow{{cond, BranchFalse}})
		return append(thenExits, elseExits...)
	case *ast.WhileStmt:
		cond := b.newNode(Cond)
		cond.Cond = s.Cond
		cond.Stmt = s
		b.g.CondOf[s] = append(b.g.CondOf[s], cond)
		b.connect(preds, cond)
		bodyExits := b.stmt(s.Body, []flow{{cond, BranchTrue}})
		b.connect(bodyExits, cond)
		return []flow{{cond, BranchFalse}}
	case *ast.RepeatStmt:
		// Body executes at least once; condition tested after.
		first := b.newNode(Stmt)
		first.Stmt = &ast.EmptyStmt{SemiPos: s.Pos()}
		b.g.NodeOf[s] = first
		b.connect(preds, first)
		cur := []flow{{first, BranchAlways}}
		for _, c := range s.Stmts {
			cur = b.stmt(c, cur)
		}
		cond := b.newNode(Cond)
		cond.Cond = s.Cond
		cond.Stmt = s
		b.g.CondOf[s] = append(b.g.CondOf[s], cond)
		b.connect(cur, cond)
		b.edge(cond, first, BranchFalse) // loop back when condition false
		return []flow{{cond, BranchTrue}}
	case *ast.ForStmt:
		init := b.newNode(ForInit)
		init.Stmt = s
		b.g.NodeOf[s] = init
		b.connect(preds, init)
		cond := b.newNode(ForCond)
		cond.Stmt = s
		b.g.CondOf[s] = append(b.g.CondOf[s], cond)
		b.edge(init, cond, BranchAlways)
		bodyExits := b.stmt(s.Body, []flow{{cond, BranchTrue}})
		incr := b.newNode(ForIncr)
		incr.Stmt = s
		b.connect(bodyExits, incr)
		b.edge(incr, cond, BranchAlways)
		return []flow{{cond, BranchFalse}}
	case *ast.CaseStmt:
		cond := b.newNode(Cond)
		cond.Cond = s.Expr
		cond.Stmt = s
		b.g.CondOf[s] = append(b.g.CondOf[s], cond)
		b.connect(preds, cond)
		var exits []flow
		for _, arm := range s.Arms {
			exits = append(exits, b.stmt(arm.Body, []flow{{cond, BranchAlways}})...)
		}
		if s.Else != nil {
			exits = append(exits, b.stmt(s.Else, []flow{{cond, BranchAlways}})...)
		} else {
			exits = append(exits, flow{cond, BranchAlways}) // no matching arm falls through
		}
		return exits
	}
	// Unknown statement: treat as opaque.
	n := b.newNode(Stmt)
	n.Stmt = s
	b.g.NodeOf[s] = n
	b.connect(preds, n)
	return []flow{{n, BranchAlways}}
}

// Reachable reports, per Node.ID, whether the node is reachable from
// Entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Nodes))
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for _, s := range n.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}
