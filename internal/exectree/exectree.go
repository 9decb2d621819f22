// Package exectree implements the paper's tracing phase (Section 5.2):
// executing the (transformed) program builds an execution tree whose
// nodes record, for every unit invocation, the input parameter values at
// entry and the output parameter values (and function result) at exit.
package exectree

import (
	"fmt"
	"io"
	"strings"

	"gadt/internal/obs"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/sem"
)

// Node is one unit invocation in the execution tree.
type Node struct {
	ID       int64
	Unit     *sem.Routine
	CallSite ast.Node
	Parent   *Node
	Children []*Node
	Depth    int

	Ins    []interp.Binding
	Outs   []interp.Binding
	Result interp.Value

	// Steps counts the statements executed directly by this invocation
	// (statements of callees are charged to their own nodes). It is the
	// per-node cost the weighted divide-and-query strategy uses.
	Steps int64

	// Incomplete marks nodes whose invocation did not finish (a runtime
	// error unwound through them).
	Incomplete bool
}

// IsRoot reports whether the node is the program-block invocation.
func (n *Node) IsRoot() bool { return n.Parent == nil }

// Label renders the node the way the paper's figures do:
// `arrsum(In a: [1, 2], In n: 2, Out b: 3)`; functions append `= result`.
// Value parameters display their entry value, var/out parameters their
// exit value. The modes map lets callers override the displayed mode per
// parameter name (used for transformed globals); it may be nil.
func (n *Node) Label(modes map[string]ast.ParamMode) string {
	var parts []string
	for _, b := range n.Ins {
		mode := b.Mode
		if modes != nil {
			if m, ok := modes[b.Name]; ok {
				mode = m
			}
		}
		if mode == ast.Value {
			parts = append(parts, fmt.Sprintf("In %s: %s", b.Name, interp.FormatValue(b.Value)))
		}
	}
	for _, b := range n.Outs {
		parts = append(parts, fmt.Sprintf("Out %s: %s", b.Name, interp.FormatValue(b.Value)))
	}
	s := n.Unit.Name
	if len(parts) > 0 {
		s += "(" + strings.Join(parts, ", ") + ")"
	}
	if n.Unit.Kind == ast.FuncKind {
		s += " = " + interp.FormatValue(n.Result)
	}
	return s
}

// InBinding returns the entry binding with the given name, if any.
func (n *Node) InBinding(name string) (interp.Binding, bool) {
	for _, b := range n.Ins {
		if b.Name == name {
			return b, true
		}
	}
	return interp.Binding{}, false
}

// OutBinding returns the exit binding with the given name, if any.
func (n *Node) OutBinding(name string) (interp.Binding, bool) {
	for _, b := range n.Outs {
		if b.Name == name {
			return b, true
		}
	}
	return interp.Binding{}, false
}

// OutputNames lists the node's output names in order (var/out parameters
// then the function-result pseudo-name, which is the unit name).
func (n *Node) OutputNames() []string {
	var names []string
	for _, b := range n.Outs {
		names = append(names, b.Name)
	}
	if n.Unit.Kind == ast.FuncKind {
		names = append(names, n.Unit.Name)
	}
	return names
}

// Tree is a complete execution tree.
type Tree struct {
	Root  *Node
	Nodes []*Node // pre-order
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.Nodes) }

// Walk visits nodes in pre-order; returning false skips the subtree.
func (t *Tree) Walk(f func(*Node) bool) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if !f(n) {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// Render prints the tree in indented form (Figure 7 style). keep, when
// non-nil, filters nodes (pruned nodes and their subtrees are elided).
func (t *Tree) Render(w io.Writer, keep func(*Node) bool, modes func(*Node) map[string]ast.ParamMode) {
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if keep != nil && !keep(n) {
			return
		}
		var m map[string]ast.ParamMode
		if modes != nil {
			m = modes(n)
		}
		fmt.Fprintf(w, "%s%s\n", strings.Repeat("  ", depth), n.Label(m))
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if t.Root != nil {
		rec(t.Root, 0)
	}
}

// String renders the full tree with default labels.
func (t *Tree) String() string {
	var b strings.Builder
	t.Render(&b, nil, nil)
	return b.String()
}

// Builder constructs a Tree from interpreter events; it implements
// interp.EventSink (Read/Write are ignored — see slicing/dynamic for
// the dependence recorder; Stmt only charges the open call's step cost).
// A node keeps its CallInfo's Ins and Outs slices as they are: the
// interpreter hands each call fresh slices and leaves them alone after
// the event, so the tree holds the only copy of each call's bindings.
type Builder struct {
	interp.NopSink
	root  *Node
	stack []*Node
	nodes []*Node
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{}
}

var _ interp.EventSink = (*Builder)(nil)

// EnterCall implements interp.EventSink.
func (b *Builder) EnterCall(ci *interp.CallInfo) {
	n := &Node{
		ID:         ci.ID,
		Unit:       ci.Routine,
		CallSite:   ci.CallSite,
		Depth:      ci.Depth,
		Ins:        ci.Ins,
		Incomplete: true,
	}
	if len(b.stack) > 0 {
		parent := b.stack[len(b.stack)-1]
		n.Parent = parent
		parent.Children = append(parent.Children, n)
	} else {
		b.root = n
	}
	b.stack = append(b.stack, n)
	b.nodes = append(b.nodes, n)
}

// ExitCall implements interp.EventSink.
func (b *Builder) ExitCall(ci *interp.CallInfo) {
	if len(b.stack) == 0 {
		return
	}
	n := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	if n.ID != ci.ID {
		// Mismatched exit (should not happen); keep the tree consistent.
		return
	}
	n.Outs = ci.Outs
	n.Result = ci.Result
	n.Incomplete = false
}

// Stmt implements interp.EventSink: each executed statement is charged
// to the innermost open invocation as its step cost.
func (b *Builder) Stmt(ast.Stmt, *sem.Routine) {
	if len(b.stack) > 0 {
		b.stack[len(b.stack)-1].Steps++
	}
}

// Tree finalizes and returns the built tree. Safe to call after a failed
// run: nodes still on the stack stay marked Incomplete.
func (b *Builder) Tree() *Tree {
	return &Tree{Root: b.root, Nodes: b.nodes}
}

// TraceResult bundles a built tree with the run outcome.
type TraceResult struct {
	Tree   *Tree
	Output string
	Err    error // runtime error, if the program failed
	Steps  int
}

// Trace executes an analyzed program and builds its execution tree. A
// runtime error does not discard the partial tree.
func Trace(info *sem.Info, input string) *TraceResult {
	return TraceWith(info, TraceOpts{Input: input})
}

// TraceOpts configures TraceWith beyond the common defaults.
type TraceOpts struct {
	Input string
	// Metrics (nil allowed) receives the interpreter's execution
	// counters plus the tree-shape gauges exectree.nodes and
	// exectree.depth.max.
	Metrics *obs.Registry

	// MaxSteps and MaxDepth bound the traced execution (<= 0 uses the
	// interpreter defaults). The mutation campaign sets tight budgets so
	// mutants with planted infinite loops or runaway recursion stop with
	// interp.ErrFuelExhausted (resp. a depth error) and a bounded tree
	// instead of hanging the worker.
	MaxSteps int
	MaxDepth int
}

// TraceWith executes an analyzed program under explicit resource limits
// and builds its execution tree. A resource-limit or runtime error does
// not discard the partial tree.
func TraceWith(info *sem.Info, o TraceOpts) *TraceResult {
	b := NewBuilder()
	var out strings.Builder
	metrics := o.Metrics
	it := interp.New(info, interp.Config{
		Input:    strings.NewReader(o.Input),
		Output:   &out,
		Sink:     b,
		Metrics:  metrics,
		MaxSteps: o.MaxSteps,
		MaxDepth: o.MaxDepth,
	})
	err := it.Run()
	tree := b.Tree()
	if metrics != nil {
		maxDepth := 0
		tree.Walk(func(n *Node) bool {
			if n.Depth > maxDepth {
				maxDepth = n.Depth
			}
			return true
		})
		metrics.Counter("exectree.traces").Inc()
		metrics.Gauge("exectree.nodes").Set(int64(tree.Size()))
		metrics.Gauge("exectree.nodes.max").SetMax(int64(tree.Size()))
		metrics.Gauge("exectree.depth.max").SetMax(int64(maxDepth))
	}
	return &TraceResult{Tree: tree, Output: out.String(), Err: err, Steps: it.Steps()}
}
