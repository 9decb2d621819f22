// Package dynamic implements interprocedural dynamic slicing at the
// execution-tree level (Section 7 of the paper; [Kamkar-91b]): a
// Recorder builds a dynamic data-dependence graph over
// statement-execution events; slicing on an output variable of a unit
// invocation then prunes the execution tree to the invocations that
// actually contributed to that value — exactly the tree reductions shown
// in Figures 8 and 9. A slice names invocations, not statements: the
// debugger asks only which nodes to keep. Tracing builds the execution
// tree alone; Deps builds a traced run's graph on its first slice by
// executing the run again with only the Recorder attached.
//
// Dependences combine data flow (at whole-variable granularity, one
// memory location per variable like the rest of the system) with
// dynamic control dependences: each statement execution depends on the
// latest execution of its statically controlling predicate within the
// same frame, so a value produced under a wrong branch decision keeps
// the deciding condition — and everything it read — in the slice.
package dynamic

import (
	"fmt"
	"strings"
	"sync"

	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/pdg"
	"gadt/internal/exectree"
	"gadt/internal/obs"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/sem"
)

// event is one statement execution.
type event struct {
	node int64 // invocation (CallInfo/exectree node) ID
	deps []int32
}

const noEvent = int32(-1)

// Recorder builds the dynamic dependence graph; it implements
// interp.EventSink.
type Recorder struct {
	calls     int // EnterCall events seen
	events    []event
	lastWrite map[interp.Loc]int32

	stack []*frameRec

	// outWriter[nodeID][outputName] = event that produced the final
	// value of that output (function results use the unit name).
	outWriter map[int64]map[string]int32

	// Control-dependence support (enabled when info is non-nil):
	// ctrl maps each statement to its statically controlling structured
	// statements, built lazily per routine from the CFG.
	info      *sem.Info
	ctrl      map[ast.Stmt][]ast.Stmt
	ctrlBuilt map[*sem.Routine]bool
}

type frameRec struct {
	id  int64
	cur int32 // current statement event, -1 before the first statement
	// lastByStmt records the latest event of each statement in this
	// frame, the anchor for dynamic control dependences.
	lastByStmt map[ast.Stmt]int32
}

// NewRecorder returns a Recorder with dynamic control dependences for
// the analyzed program info. Passing nil yields a data-flow-only
// recorder (the ablation variant; it can mis-attribute bugs that hide in
// branch or loop conditions).
func NewRecorder(info *sem.Info) *Recorder {
	return &Recorder{
		lastWrite: make(map[interp.Loc]int32),
		outWriter: make(map[int64]map[string]int32),
		info:      info,
		ctrl:      make(map[ast.Stmt][]ast.Stmt),
		ctrlBuilt: make(map[*sem.Routine]bool),
	}
}

// buildControl fills ctrl for routine r's statements.
func (r *Recorder) buildControl(rt *sem.Routine) {
	if r.info == nil || r.ctrlBuilt[rt] {
		return
	}
	r.ctrlBuilt[rt] = true
	g := cfg.Build(r.info, rt)
	for n, ctrls := range pdg.ControlDeps(g) {
		if n.Stmt == nil {
			continue
		}
		for _, c := range ctrls {
			if c.Stmt == nil || c == g.Entry || c.Stmt == n.Stmt {
				continue
			}
			dup := false
			for _, have := range r.ctrl[n.Stmt] {
				if have == c.Stmt {
					dup = true
				}
			}
			if !dup {
				r.ctrl[n.Stmt] = append(r.ctrl[n.Stmt], c.Stmt)
			}
		}
	}
}

var _ interp.EventSink = (*Recorder)(nil)

func (r *Recorder) top() *frameRec {
	if len(r.stack) == 0 {
		return nil
	}
	return r.stack[len(r.stack)-1]
}

// Stmt opens a fresh event for the executing frame, adding a dynamic
// control dependence on the latest execution of the statement's
// controlling predicate.
func (r *Recorder) Stmt(s ast.Stmt, rt *sem.Routine) {
	f := r.top()
	if f == nil {
		return
	}
	r.buildControl(rt)
	ev := event{node: f.id}
	for _, cs := range r.ctrl[s] {
		if ce, ok := f.lastByStmt[cs]; ok {
			ev.deps = append(ev.deps, ce)
		}
	}
	r.events = append(r.events, ev)
	f.cur = int32(len(r.events) - 1)
	if f.lastByStmt == nil {
		f.lastByStmt = make(map[ast.Stmt]int32)
	}
	f.lastByStmt[s] = f.cur
}

// Read attaches a dependence on the location's last writer to the
// current event.
func (r *Recorder) Read(loc interp.Loc, _ *sem.VarSym) {
	f := r.top()
	if f == nil || f.cur == noEvent {
		return
	}
	w, ok := r.lastWrite[loc]
	if !ok || w == f.cur {
		return
	}
	ev := &r.events[f.cur]
	for _, d := range ev.deps {
		if d == w {
			return
		}
	}
	ev.deps = append(ev.deps, w)
}

// Write marks the current event as the location's last writer.
func (r *Recorder) Write(loc interp.Loc, _ *sem.VarSym) {
	f := r.top()
	if f == nil || f.cur == noEvent {
		return
	}
	r.lastWrite[loc] = f.cur
}

// EnterCall pushes a frame and seeds value-parameter provenance: a value
// parameter's fresh cell inherits the caller's current event (which
// carries the argument-expression reads) as its writer.
func (r *Recorder) EnterCall(ci *interp.CallInfo) {
	caller := r.top()
	if caller != nil && caller.cur != noEvent {
		for i, b := range ci.Ins {
			if b.Mode == ast.Value && i < len(ci.ParamLocs) && ci.ParamLocs[i] != 0 {
				r.lastWrite[ci.ParamLocs[i]] = caller.cur
			}
		}
	}
	r.calls++
	r.stack = append(r.stack, &frameRec{id: ci.ID, cur: noEvent})
	// The callee's events are control-dependent on the call statement:
	// without the caller reaching this call, nothing below runs. That is
	// captured transitively through value-parameter seeding and the
	// kept-ancestors closure, so no explicit edge is needed here.
}

// ExitCall records the writer of each output value and pops the frame.
func (r *Recorder) ExitCall(ci *interp.CallInfo) {
	locOf := make(map[*sem.VarSym]interp.Loc)
	for i, b := range ci.Ins {
		if i < len(ci.ParamLocs) {
			locOf[b.Sym] = ci.ParamLocs[i]
		}
	}
	m := make(map[string]int32)
	for _, b := range ci.Outs {
		if loc, ok := locOf[b.Sym]; ok {
			if w, ok := r.lastWrite[loc]; ok {
				m[b.Name] = w
			}
		}
	}
	if ci.ResultLoc != 0 {
		if w, ok := r.lastWrite[ci.ResultLoc]; ok {
			m[ci.Routine.Name] = w
		}
	}
	if len(m) > 0 {
		r.outWriter[ci.ID] = m
	}
	if len(r.stack) > 0 {
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// Events reports the number of recorded statement events.
func (r *Recorder) Events() int { return len(r.events) }

// Edges reports the number of dependence edges in the recorded dynamic
// dependence graph (data-flow plus dynamic control dependences).
func (r *Recorder) Edges() int {
	total := 0
	for i := range r.events {
		total += len(r.events[i].deps)
	}
	return total
}

// Deps is the dynamic dependence graph of one traced run, built on
// demand. The first SliceOnOutput (or Recorder) call executes the traced
// program again, on the same input and budgets, with a Recorder as the
// only sink, and keeps the graph for every later slice; a run that is
// never sliced never pays for its graph. The interpreter is
// deterministic and numbers calls from one counter, so the replay's call
// IDs are the execution tree's node IDs. As a check, the replay must see
// exactly Nodes calls: otherwise every slice fails rather than slicing a
// different run. Safe for concurrent use; set the fields before the
// first slice and do not change them after.
type Deps struct {
	// Info, Input, MaxSteps and MaxDepth are those of the traced run;
	// Nodes is the size of its execution tree.
	Info     *sem.Info
	Input    string
	MaxSteps int
	MaxDepth int
	Nodes    int

	// Metrics and Tracer (either may be nil) observe the build: the
	// slicing.dynamic.builds counter, the slicing.dynamic.events and
	// slicing.dynamic.edges gauges, and a "deps" span.
	Metrics *obs.Registry
	Tracer  *obs.Tracer

	once sync.Once
	rec  *Recorder
	err  error
}

// Recorder returns the run's dependence graph, building it on first use.
func (d *Deps) Recorder() (*Recorder, error) {
	d.once.Do(d.build)
	return d.rec, d.err
}

// SliceOnOutput is Recorder.SliceOnOutput on the run's graph.
func (d *Deps) SliceOnOutput(t *exectree.Tree, n *exectree.Node, output string) (*TreeSlice, error) {
	r, err := d.Recorder()
	if err != nil {
		return nil, err
	}
	return r.SliceOnOutput(t, n, output)
}

// build replays the traced run with a Recorder attached. The replay
// stops where the traced run stopped, so a run error (a crash, an
// exhausted budget) recurs and is not a build failure; the graph then
// covers the same partial tree. No Metrics reach the interpreter, so
// its counters keep counting only traced runs.
func (d *Deps) build() {
	sp := d.Tracer.Start("deps")
	defer sp.End()
	d.Metrics.Counter("slicing.dynamic.builds").Inc()
	rec := NewRecorder(d.Info)
	_ = interp.New(d.Info, interp.Config{
		Input:    strings.NewReader(d.Input),
		Sink:     rec,
		MaxSteps: d.MaxSteps,
		MaxDepth: d.MaxDepth,
	}).Run()
	if rec.calls != d.Nodes {
		d.err = fmt.Errorf("dynamic: replay made %d calls, the execution tree has %d nodes", rec.calls, d.Nodes)
		return
	}
	d.rec = rec
	if d.Metrics != nil {
		d.Metrics.Gauge("slicing.dynamic.events").Set(int64(rec.Events()))
		d.Metrics.Gauge("slicing.dynamic.edges").Set(int64(rec.Edges()))
	}
}

// ---------------------------------------------------------------------------
// Slicing

// TreeSlice is the result of a dynamic slice: the set of execution-tree
// nodes that contributed to the criterion value, closed under ancestors
// so it always forms a subtree rooted at the original root.
type TreeSlice struct {
	Kept map[*exectree.Node]bool
}

// Keep reports whether n survives the slice.
func (s *TreeSlice) Keep(n *exectree.Node) bool { return s.Kept[n] }

// Size returns the number of retained nodes.
func (s *TreeSlice) Size() int { return len(s.Kept) }

// SliceOnOutput computes the dynamic slice of the execution tree on the
// given output variable of invocation n (an Out binding name, or the
// unit name for a function result).
func (r *Recorder) SliceOnOutput(t *exectree.Tree, n *exectree.Node, output string) (*TreeSlice, error) {
	writers := r.outWriter[n.ID]
	seed, ok := writers[output]
	if !ok {
		return nil, fmt.Errorf("dynamic: %s has no recorded output %q", n.Unit.Name, output)
	}

	// Backward closure over event dependences.
	seen := make(map[int32]bool)
	stack := []int32{seed}
	contributing := make(map[int64]bool)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[e] {
			continue
		}
		seen[e] = true
		ev := r.events[e]
		contributing[ev.node] = true
		stack = append(stack, ev.deps...)
	}

	// Keep contributing invocations plus all their ancestors (and the
	// criterion node's own chain), so the result is a rooted subtree.
	kept := make(map[*exectree.Node]bool)
	keepChain := func(x *exectree.Node) {
		for ; x != nil; x = x.Parent {
			if kept[x] {
				return
			}
			kept[x] = true
		}
	}
	t.Walk(func(x *exectree.Node) bool {
		if contributing[x.ID] {
			keepChain(x)
		}
		return true
	})
	keepChain(n)
	return &TreeSlice{Kept: kept}, nil
}

// Intersect returns a slice keeping only nodes present in both slices
// (used when the debugger slices repeatedly on a shrinking tree).
func Intersect(a, b *TreeSlice) *TreeSlice {
	kept := make(map[*exectree.Node]bool)
	for n := range a.Kept {
		if b.Kept[n] {
			kept[n] = true
		}
	}
	return &TreeSlice{Kept: kept}
}
