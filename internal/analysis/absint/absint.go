package absint

import (
	"slices"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/defuse"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
	"gadt/internal/pascal/types"
)

// Result holds the analysis output for a whole program.
type Result struct {
	Info   *sem.Info
	Graphs map[*sem.Routine]*cfg.Graph

	// in holds, per graph and node ID, the abstract store holding
	// immediately before the node executes.
	in map[*cfg.Graph][]Env

	entry   map[*sem.Routine]Env
	exitEnv map[*sem.Routine]Env

	// untracked holds, per routine, the variables (one bit per
	// sem.VarSym.ID) excluded from its abstract store because a
	// var-parameter may alias them (see computeUntracked). An untracked
	// variable reads as ⊤ at every point of that routine.
	untracked map[*sem.Routine]defuse.BitSet

	// forVarMod caches, per for-statement, whether its body may write the
	// loop variable (degrading the loop model, see refineFor).
	forVarMod map[*ast.ForStmt]bool

	// covering lazily maps every evaluated AST node to the CFG node that
	// evaluates it (see CoveringNode).
	covering map[ast.Node]*cfg.Node

	side *sideeffect.Result
	cg   *callgraph.Graph
}

// Edge is one CFG edge, identified by its endpoints.
type Edge struct {
	From, To *cfg.Node
}

// At returns the abstract store before node n executes (the bottom store
// when n is unreachable).
func (r *Result) At(n *cfg.Node) Env {
	if in := r.in[n.Graph]; n.ID < len(in) {
		return in[n.ID]
	}
	return botEnv()
}

// Reachable reports whether node n can execute.
func (r *Result) Reachable(n *cfg.Node) bool { return r.At(n).reachable }

// EvalAt evaluates expression e in the store before node n, conservatively
// accounting for side effects of any calls inside n's statement (a call
// earlier in the same statement may change variables e reads).
func (r *Result) EvalAt(n *cfg.Node, e ast.Expr) Val {
	env := r.At(n)
	if !env.reachable {
		return Bot()
	}
	a := &analyzer{res: r}
	env = a.havocCalls(env, nodeRoots(n), false)
	return a.eval(env, e)
}

// VarAt returns the abstract value variable v holds at node n, like
// EvalAt conservatively accounting for calls inside n's statement. It
// serves clients asking about a variable that does not occur in the
// node's own text (e.g. a var-swap replacement candidate).
func (r *Result) VarAt(n *cfg.Node, v *sem.VarSym) Val {
	env := r.At(n)
	if !env.reachable {
		return Bot()
	}
	a := &analyzer{res: r}
	env = a.havocCalls(env, nodeRoots(n), false)
	return env.Lookup(v)
}

// CoveringNode returns the CFG node that evaluates the given AST node —
// the atomic statement or condition whose subtree contains it — or nil
// for nodes outside any evaluated subtree (declarations, case-arm
// labels, compound shells). When a subtree is evaluated by more than
// one node (a for-loop limit is captured at init and re-checked by the
// header), the first evaluation wins, matching the moment the
// interpreter reads the expression's operands.
func (r *Result) CoveringNode(m ast.Node) *cfg.Node {
	if r.covering == nil {
		r.covering = make(map[ast.Node]*cfg.Node)
		for _, g := range r.Graphs {
			for _, n := range g.Nodes {
				for _, root := range nodeRoots(n) {
					n := n
					ast.Inspect(root, func(x ast.Node) bool {
						if x == nil {
							return false
						}
						if _, seen := r.covering[x]; !seen {
							r.covering[x] = n
						}
						return true
					})
				}
			}
		}
	}
	return r.covering[m]
}

// nodeRoots returns the AST subtrees node n evaluates.
func nodeRoots(n *cfg.Node) []ast.Node {
	switch n.Kind {
	case cfg.Stmt:
		if n.Stmt != nil {
			return []ast.Node{n.Stmt}
		}
	case cfg.Cond:
		if n.Cond != nil {
			return []ast.Node{n.Cond}
		}
	case cfg.ForInit:
		fs := n.Stmt.(*ast.ForStmt)
		return []ast.Node{fs.From, fs.Limit}
	case cfg.ForCond:
		fs := n.Stmt.(*ast.ForStmt)
		return []ast.Node{fs.Limit}
	}
	return nil
}

// InfeasibleEdges returns the branch edges the analysis proves can never
// be taken: the condition has a definite value and the edge carries the
// opposite outcome. Edges out of unreachable nodes are not listed (whole
// nodes are reported through Reachable).
func (r *Result) InfeasibleEdges(g *cfg.Graph) []Edge {
	a := &analyzer{res: r}
	var out []Edge
	for _, n := range g.Nodes {
		env := r.At(n)
		if !env.reachable {
			continue
		}
		if n.Kind != cfg.Cond && n.Kind != cfg.ForCond {
			continue
		}
		post := a.transfer(g, n, env)
		for _, s := range n.Succs {
			br := g.Label(n, s)
			if br != cfg.BranchTrue && br != cfg.BranchFalse {
				continue
			}
			if !a.refineEdge(g, n, post, br).reachable {
				out = append(out, Edge{From: n, To: s})
			}
		}
	}
	return out
}

// Analyze runs the abstract interpretation over freshly built CFGs.
func Analyze(info *sem.Info) *Result {
	cg := callgraph.Build(info)
	return AnalyzeGraphs(info, cfg.BuildAll(info), cg, sideeffect.Analyze(info, cg))
}

// AnalyzeGraphs runs the analysis over caller-provided CFGs and
// supporting analyses, so clients that already built them (the SDG
// builder, the linter) do not pay for them twice.
func AnalyzeGraphs(info *sem.Info, graphs map[*sem.Routine]*cfg.Graph, cg *callgraph.Graph, side *sideeffect.Result) *Result {
	res := &Result{
		Info:      info,
		Graphs:    graphs,
		in:        make(map[*cfg.Graph][]Env, len(graphs)),
		entry:     make(map[*sem.Routine]Env),
		exitEnv:   make(map[*sem.Routine]Env),
		untracked: computeUntracked(info, cg, side),
		forVarMod: make(map[*ast.ForStmt]bool),
		side:      side,
		cg:        cg,
	}
	a := &analyzer{res: res, entryJoins: make(map[*sem.Routine]int), exitJoins: make(map[*sem.Routine]int)}

	// Main's entry store: the interpreter zero-initializes every frame
	// slot, so all globals start at 0 / false (implementation semantics,
	// not ISO Pascal).
	main := info.Main
	var zeros []binding
	for _, v := range main.AllVars() {
		if val, ok := zeroValue(v.Type); ok {
			zeros = append(zeros, bind(v.ID, val))
		}
	}
	res.entry[main] = newEnv(zeros)

	// Interprocedural fixpoint: re-analyze a routine when its entry store
	// grows, and its callers when its exit summary grows. Entry and exit
	// joins widen after a few updates, bounding the chain; the sweep cap
	// is a defensive backstop (widening makes it unreachable in practice).
	dirty := []*sem.Routine{main}
	inDirty := map[*sem.Routine]bool{main: true}
	for rounds := 0; len(dirty) > 0 && rounds < 64*len(info.Routines); rounds++ {
		r := dirty[0]
		dirty = dirty[1:]
		inDirty[r] = false
		changed := a.analyzeRoutine(r)
		for _, cr := range changed {
			if !inDirty[cr] {
				inDirty[cr] = true
				dirty = append(dirty, cr)
			}
		}
	}
	return res
}

// zeroValue returns the abstract zero-initialized value for a declared
// type (ok=false for untracked types).
func zeroValue(t types.Type) (Val, bool) {
	b, ok := t.(*types.Basic)
	if !ok {
		return Top(), false
	}
	switch b.Kind {
	case types.Int:
		return IntConst(0), true
	case types.Bool:
		return BoolConst(false), true
	}
	return Top(), false
}

// tracked reports whether v participates in the abstract store of a
// routine: integer/boolean scalars only.
func trackedType(v *sem.VarSym) bool {
	_, ok := zeroValue(v.Type)
	return ok
}

// computeUntracked handles var-parameter aliasing. A write through a
// by-reference formal mutates its actual mid-call, so a routine whose
// formal may be bound to a variable the routine can also name directly
// (a global, its own variable under recursion) would otherwise carry
// stale facts about that variable. The store keeps strong updates and
// instead drops the entangled names: within such a routine the aliased
// variable is untracked (always ⊤), and the formal too when the routine
// may also write the variable under its own name.
//
// carriers(f) is the set of root variables a by-ref formal f may be
// bound to across all call sites, propagated transitively through
// formal-to-formal forwarding (fixpoint over the call graph). A by-ref
// actual that is not a plain variable (an array element, say) makes the
// formal's binding unanalyzable and the formal itself untracked.
func computeUntracked(info *sem.Info, cg *callgraph.Graph, side *sideeffect.Result) map[*sem.Routine]defuse.BitSet {
	// carriers[r][i] holds the carriers of r's i-th parameter, a by-ref
	// formal; unknown marks the by-ref formals whose binding is
	// unanalyzable.
	carriers := make(map[*sem.Routine][]defuse.Set)
	carriersOf := func(p *sem.VarSym) *defuse.Set {
		cs := carriers[p.Owner]
		if cs == nil {
			cs = make([]defuse.Set, len(p.Owner.Params))
			carriers[p.Owner] = cs
		}
		return &cs[slices.Index(p.Owner.Params, p)]
	}
	add := func(p, v *sem.VarSym) bool { return carriersOf(p).Add(v) }
	var unknown defuse.BitSet
	for changed := true; changed; {
		changed = false
		for _, sites := range cg.Sites {
			for _, site := range sites {
				for i, p := range site.Callee.Params {
					if !p.IsByRef() || i >= len(site.Args) {
						continue
					}
					var v *sem.VarSym
					if _, isIdent := site.Args[i].(*ast.Ident); isIdent {
						v = info.VarOf(site.Args[i])
					}
					if v == nil {
						if !unknown.Has(p.ID) {
							unknown.Set(p.ID)
							changed = true
						}
						continue
					}
					if add(p, v) {
						changed = true
					}
					if v.IsByRef() {
						for _, t := range carriersOf(v).Slice() {
							if add(p, t) {
								changed = true
							}
						}
						if unknown.Has(v.ID) && !unknown.Has(p.ID) {
							unknown.Set(p.ID)
							changed = true
						}
					}
				}
			}
		}
	}

	un := make(map[*sem.Routine]defuse.BitSet)
	mark := func(r *sem.Routine, v *sem.VarSym) {
		u := un[r]
		u.Set(v.ID)
		un[r] = u
	}
	for _, r := range info.Routines {
		var refs []*sem.VarSym
		for _, p := range r.Params {
			if p.IsByRef() {
				refs = append(refs, p)
			}
		}
		eff := side.Of[r]
		for _, p := range refs {
			if unknown.Has(p.ID) {
				mark(r, p)
			}
			for _, t := range carriersOf(p).Slice() {
				if trackedType(t) && (t.Owner == info.Main || t.Owner == r) {
					mark(r, t)
				}
				// The routine (or a callee) may write t under its own
				// name while the formal still claims the old value.
				if t.Owner == r || (eff != nil && eff.ModGlobals.Has(t)) {
					mark(r, p)
				}
			}
		}
		// Two formals bound to the same root alias each other.
		for i, p := range refs {
			for _, q := range refs[i+1:] {
				for _, t := range carriersOf(p).Slice() {
					if carriersOf(q).Has(t) {
						mark(r, p)
						mark(r, q)
						break
					}
				}
			}
		}
	}
	return un
}

type analyzer struct {
	res        *Result
	entryJoins map[*sem.Routine]int
	exitJoins  map[*sem.Routine]int

	// pending accumulates routines whose entry store grew during the
	// registration pass of analyzeRoutine.
	pending []*sem.Routine
}

const (
	maxSweeps        = 60 // intraprocedural widened-iteration backstop
	narrowSweeps     = 2  // bounded decreasing iterations after the fixpoint
	joinsBeforeWiden = 3  // interprocedural joins before switching to widening
)

// analyzeRoutine runs the intraprocedural fixpoint for r under its
// current entry store and callee summaries, updates Result.in for r's
// nodes, and returns the routines whose stores changed as a consequence
// (callees with grown entries, callers when r's exit summary grew).
//
// Iteration runs round-robin sweeps over the nodes in reverse postorder,
// widening at loop heads, then a bounded narrowing pass.
func (a *analyzer) analyzeRoutine(r *sem.Routine) []*sem.Routine {
	res := a.res
	g := res.Graphs[r]
	if g == nil {
		return nil
	}
	order, heads := rpo(g)
	f := newFixpoint(a, g)
	in := f.in

	converged := false
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, n := range order {
			next := f.recompute(n)
			old := in[n.ID]
			if heads[n.ID] && sweep > 0 {
				next = old.widen(next)
			}
			// Sweep 0 gives every node its first store.
			if sweep == 0 || !old.equal(next) {
				f.set(n, next)
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		// Defensive: widening at every cycle head makes the cap
		// unreachable, but if it ever trips, degrade to the sound
		// everything-unknown store rather than publish a non-fixpoint.
		for i := range in {
			in[i] = Env{reachable: true}
		}
	}
	// Narrowing: a short decreasing iteration recovers precision the
	// widening jumps lost (loop exits know their bounds again). Plain
	// recomputation from a post-fixpoint stays above the least fixpoint,
	// so any cutoff is sound.
	if converged {
		for sweep := 0; sweep < narrowSweeps; sweep++ {
			for _, n := range order {
				if next := f.recompute(n); !next.equal(in[n.ID]) {
					f.set(n, next)
				}
			}
		}
	}
	res.in[g] = in

	// Registration pass: with the routine's stores final for this round,
	// fold call-site argument/global values into callee entry stores.
	a.pending = a.pending[:0]
	for _, n := range g.Nodes {
		if env := in[n.ID]; env.reachable {
			a.register(g, n, env)
		}
	}
	changed := append([]*sem.Routine(nil), a.pending...)

	// Publish the exit summary; join-monotone across re-analyses so the
	// interprocedural iteration terminates.
	exit := in[g.Exit.ID]
	newExit := res.exitEnv[r].join(exit)
	if a.exitJoins[r] > joinsBeforeWiden {
		newExit = res.exitEnv[r].widen(exit)
	}
	if !newExit.equal(res.exitEnv[r]) {
		res.exitEnv[r] = newExit
		a.exitJoins[r]++
		changed = append(changed, res.cg.Callers[r]...)
	}
	return changed
}

// fixpoint is the state of one routine's intraprocedural iteration,
// indexed by cfg.Node.ID. During the sweeps a node's transfer depends
// only on its input store (callee summaries and entry stores change
// only between analyzeRoutine calls), so the stores along a node's
// out-edges are computed once per input store and cached.
type fixpoint struct {
	a *analyzer
	g *cfg.Graph
	// in is the store before each node.
	in []Env
	// edges[edgeAt[id]+k] is the store along the edge to Succs[k] of
	// node id: its post-transfer store refined by the edge's branch
	// outcome. fresh[id] reports that those stores match in[id].
	edges  []Env
	edgeAt []int
	fresh  []bool
}

func newFixpoint(a *analyzer, g *cfg.Graph) *fixpoint {
	nn := len(g.Nodes)
	f := &fixpoint{a: a, g: g, in: make([]Env, nn), edgeAt: make([]int, nn+1), fresh: make([]bool, nn)}
	for _, n := range g.Nodes {
		f.edgeAt[n.ID+1] = f.edgeAt[n.ID] + len(n.Succs)
	}
	f.edges = make([]Env, f.edgeAt[nn])
	return f
}

// set writes the store before n; the stores along n's out-edges go
// stale.
func (f *fixpoint) set(n *cfg.Node, env Env) {
	f.in[n.ID] = env
	f.fresh[n.ID] = false
}

// outEdges returns the stores along n's out-edges, parallel to Succs,
// running n's transfer only when its input store changed since.
func (f *fixpoint) outEdges(n *cfg.Node) []Env {
	out := f.edges[f.edgeAt[n.ID]:f.edgeAt[n.ID+1]]
	if !f.fresh[n.ID] {
		post := f.a.transfer(f.g, n, f.in[n.ID])
		for k, s := range n.Succs {
			out[k] = f.a.refineEdge(f.g, n, post, f.g.Label(n, s))
		}
		f.fresh[n.ID] = true
	}
	return out
}

// recompute joins the stores flowing into n; Entry takes the routine's
// entry store.
func (f *fixpoint) recompute(n *cfg.Node) Env {
	if n == f.g.Entry {
		return f.a.res.entry[f.g.Routine]
	}
	cur := botEnv()
	for _, p := range n.Preds {
		if !f.in[p.ID].reachable {
			continue
		}
		for k, s := range p.Succs {
			if s == n {
				cur = cur.join(f.outEdges(p)[k])
				break
			}
		}
	}
	return cur
}

// rpo returns the nodes in reverse postorder from Entry, unreached nodes
// (dead code) following in ID order so they still receive (bottom)
// stores. heads marks, by Node.ID, the widening points: targets of
// retreating edges under that order.
func rpo(g *cfg.Graph) (order []*cfg.Node, heads []bool) {
	nn := len(g.Nodes)
	seen := make([]bool, nn)
	order = make([]*cfg.Node, 0, nn)
	var walk func(n *cfg.Node)
	walk = func(n *cfg.Node) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for _, s := range n.Succs {
			walk(s)
		}
		order = append(order, n)
	}
	walk(g.Entry)
	slices.Reverse(order)
	for _, n := range g.Nodes {
		if !seen[n.ID] {
			order = append(order, n)
		}
	}

	idx := make([]int, nn)
	for i, n := range order {
		idx[n.ID] = i
	}
	heads = seen // the walk is done with seen
	clear(heads)
	for _, n := range order {
		for _, s := range n.Succs {
			if idx[s.ID] <= idx[n.ID] {
				heads[s.ID] = true
			}
		}
	}
	return order, heads
}

// ---------------------------------------------------------------------------
// Transfer functions

// transfer computes the store after node n executes, from the store env
// before it.
func (a *analyzer) transfer(g *cfg.Graph, n *cfg.Node, env Env) Env {
	if !env.reachable {
		return env
	}
	r := g.Routine
	switch n.Kind {
	case cfg.Entry, cfg.Exit:
		return env
	case cfg.Cond:
		// Condition evaluation can call functions with side effects.
		return a.havocCalls(env, nodeRoots(n), false)
	case cfg.ForInit:
		fs := n.Stmt.(*ast.ForStmt)
		env = a.havocCalls(env, nodeRoots(n), false)
		if !env.reachable {
			return env
		}
		if v := a.res.Info.VarOf(fs.Var); v != nil && a.trackedIn(r, v) {
			env = env.with(v, a.eval(env, fs.From))
		}
		return env
	case cfg.ForCond:
		return env
	case cfg.ForIncr:
		fs := n.Stmt.(*ast.ForStmt)
		if v := a.res.Info.VarOf(fs.Var); v != nil && a.trackedIn(r, v) && !a.loopVarWritten(fs, v) {
			one := IntConst(1)
			if fs.Down {
				env = env.with(v, env.Lookup(v).Sub(one))
			} else {
				env = env.with(v, env.Lookup(v).Add(one))
			}
		}
		return env
	}
	switch s := n.Stmt.(type) {
	case *ast.AssignStmt:
		env = a.havocCalls(env, assignRoots(s), false)
		if !env.reachable {
			return env
		}
		val := a.eval(env, s.Rhs)
		if lhs, ok := s.Lhs.(*ast.Ident); ok {
			if v := a.res.Info.VarOf(lhs); v != nil && a.trackedIn(r, v) {
				env = env.with(v, val)
			}
		}
		// Index/field stores touch untracked aggregates: no effect on
		// the scalar store.
		return env
	case *ast.CallStmt:
		return a.callStmt(env, r, s)
	}
	return env
}

// assignRoots lists the subtrees of an assignment in the order their
// calls run.
func assignRoots(s *ast.AssignStmt) []ast.Node { return []ast.Node{s.Rhs, s.Lhs} }

// register folds the entry store of every call node n makes into the
// callee (the registration pass), each call under the store it sees:
// env, as changed by the calls that run before it. It follows transfer
// up to the node's last call.
func (a *analyzer) register(g *cfg.Graph, n *cfg.Node, env Env) {
	switch n.Kind {
	case cfg.Cond, cfg.ForInit:
		a.havocCalls(env, nodeRoots(n), true)
	case cfg.Stmt:
		switch s := n.Stmt.(type) {
		case *ast.AssignStmt:
			a.havocCalls(env, assignRoots(s), true)
		case *ast.CallStmt:
			env = a.havocCalls(env, exprNodes(s.Args), true)
			if callee := a.res.Info.CallOf(s); callee != nil && env.reachable {
				a.registerCall(env, callee, s.Args)
			}
		}
	}
}

// trackedIn reports whether v is part of routine r's abstract store:
// r's own variables plus the program globals, scalars only, minus the
// names a by-ref parameter of r may alias.
func (a *analyzer) trackedIn(r *sem.Routine, v *sem.VarSym) bool {
	if !trackedType(v) {
		return false
	}
	if v.Owner != r && v.Owner != a.res.Info.Main {
		return false
	}
	return !a.res.untracked[r].Has(v.ID)
}

// callStmt models a direct procedure/function-statement call: argument
// evaluation, then the callee's exit summary applied to modified globals
// and by-reference actuals.
func (a *analyzer) callStmt(env Env, r *sem.Routine, s *ast.CallStmt) Env {
	info := a.res.Info
	callee := info.CallOf(s)
	if callee == nil {
		// Builtin procedure: read/readln havoc their targets; the write
		// family evaluates arguments (nested calls included).
		env = a.havocCalls(env, exprNodes(s.Args), false)
		if !env.reachable {
			return env
		}
		b := info.BuiltinOf(s)
		if b != nil && (b.Code == sem.BuiltinRead || b.Code == sem.BuiltinReadln) {
			w := edit{env: env}
			for _, arg := range s.Args {
				if v := info.VarOf(arg); v != nil && a.trackedIn(r, v) {
					if _, isIdent := arg.(*ast.Ident); isIdent {
						w.set(v, topOfType(v.Type))
					}
				}
			}
			return w.env
		}
		return env
	}

	// Nested calls inside the arguments run first.
	env = a.havocCalls(env, exprNodes(s.Args), false)
	if !env.reachable {
		return env
	}
	exit := a.res.exitEnv[callee]
	if !exit.reachable {
		// As currently known the callee never returns; a later summary
		// growth re-queues this routine.
		return botEnv()
	}
	// Modified non-locals take their summary exit values (Top when the
	// callee does not track them, e.g. an enclosing routine's local).
	w := edit{env: env}
	for _, g := range a.res.side.Of[callee].ModGlobals.Slice() {
		if a.trackedIn(r, g) {
			w.set(g, exit.Lookup(g))
		}
	}
	// By-reference actuals take the formal's exit value.
	for i, p := range callee.Params {
		if i >= len(s.Args) || !p.IsByRef() {
			continue
		}
		if v := info.VarOf(s.Args[i]); v != nil && a.trackedIn(r, v) {
			if _, isIdent := s.Args[i].(*ast.Ident); isIdent {
				w.set(v, exit.Lookup(p))
			}
		}
	}
	return w.env
}

// registerCall folds one call site's entry store into the callee.
func (a *analyzer) registerCall(env Env, callee *sem.Routine, args []ast.Expr) {
	info := a.res.Info
	bs := make([]binding, 0, len(callee.Params)+1+len(callee.Locals)+len(info.Main.Locals))
	for i, p := range callee.Params {
		if !a.trackedIn(callee, p) {
			continue
		}
		if i < len(args) {
			bs = append(bs, bind(p.ID, a.eval(env, args[i])))
		}
	}
	if callee.Result != nil && a.trackedIn(callee, callee.Result) {
		if z, ok := zeroValue(callee.Result.Type); ok {
			bs = append(bs, bind(callee.Result.ID, z))
		}
	}
	for _, l := range callee.Locals {
		if !a.trackedIn(callee, l) {
			continue
		}
		if z, ok := zeroValue(l.Type); ok {
			bs = append(bs, bind(l.ID, z))
		}
	}
	for _, gv := range info.Main.Locals {
		if a.trackedIn(callee, gv) {
			bs = append(bs, bind(gv.ID, env.Lookup(gv)))
		}
	}
	centry := newEnv(bs)
	old := a.res.entry[callee]
	next := old.join(centry)
	if a.entryJoins[callee] > joinsBeforeWiden {
		next = old.widen(centry)
	}
	if !next.equal(old) {
		a.res.entry[callee] = next
		a.entryJoins[callee]++
		a.pending = append(a.pending, callee)
	}
}

func exprNodes(es []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// havocCalls conservatively accounts for user calls embedded anywhere in
// the given subtrees: every variable a callee may modify is joined with
// its summary exit value, so reads before, between and after the calls
// are all over-approximated. Entry stores are registered when requested.
// Returns the bottom store when a callee provably never returns.
func (a *analyzer) havocCalls(env Env, roots []ast.Node, register bool) Env {
	if !env.reachable {
		return env
	}
	info := a.res.Info
	var refs []callRef
	for _, root := range roots {
		a.collectCalls(root, &refs)
	}
	w := edit{env: env}
	for _, ref := range refs {
		callee := ref.callee
		if register {
			a.registerCall(w.env, callee, ref.args)
		}
		exit := a.res.exitEnv[callee]
		if !exit.reachable {
			return botEnv()
		}
		// A variable absent from the store is already ⊤ and needs no
		// join; only present entries weaken.
		for _, g := range a.res.side.Of[callee].ModGlobals.Slice() {
			if val, ok := w.env.get(g); ok {
				w.set(g, val.Join(exit.Lookup(g)))
			}
		}
		for i, p := range callee.Params {
			if i >= len(ref.args) || !p.IsByRef() {
				continue
			}
			if v := info.VarOf(ref.args[i]); v != nil {
				if val, ok := w.env.get(v); ok {
					w.set(v, val.Join(exit.Lookup(p)))
				}
			}
		}
	}
	return w.env
}

// callRef is one user-routine call occurrence: a CallExpr, a CallStmt,
// or a bare identifier invoking a parameterless function.
type callRef struct {
	callee *sem.Routine
	args   []ast.Expr
}

// collectCalls gathers user calls under n in evaluation order (builtins
// are pure or handled separately and are skipped).
func (a *analyzer) collectCalls(n ast.Node, out *[]callRef) {
	info := a.res.Info
	switch x := n.(type) {
	case nil:
		return
	case *ast.Ident:
		if callee := info.CallOf(x); callee != nil {
			*out = append(*out, callRef{callee: callee})
		}
	case *ast.CallExpr:
		for _, arg := range x.Args {
			a.collectCalls(arg, out)
		}
		if callee := info.CallOf(x); callee != nil {
			*out = append(*out, callRef{callee: callee, args: x.Args})
		}
	case *ast.CallStmt:
		for _, arg := range x.Args {
			a.collectCalls(arg, out)
		}
		if callee := info.CallOf(x); callee != nil {
			*out = append(*out, callRef{callee: callee, args: x.Args})
		}
	case *ast.AssignStmt:
		collect2(a, out, x.Lhs, x.Rhs)
	case *ast.BinaryExpr:
		collect2(a, out, x.X, x.Y)
	case *ast.UnaryExpr:
		a.collectCalls(x.X, out)
	case *ast.IndexExpr:
		a.collectCalls(x.X, out)
		for _, i := range x.Indices {
			a.collectCalls(i, out)
		}
	case *ast.FieldExpr:
		a.collectCalls(x.X, out)
	case *ast.SetLit:
		for _, e := range x.Elems {
			a.collectCalls(e, out)
		}
	}
}

func collect2(a *analyzer, out *[]callRef, x, y ast.Node) {
	a.collectCalls(x, out)
	a.collectCalls(y, out)
}

func topOfType(t types.Type) Val {
	b, ok := t.(*types.Basic)
	if !ok {
		return Top()
	}
	switch b.Kind {
	case types.Int:
		return AnyInt()
	case types.Bool:
		return AnyBool()
	}
	return Top()
}

// ---------------------------------------------------------------------------
// Expression evaluation

// eval computes the abstract value of e in env. Calls embedded in e are
// read through their summaries; their side effects must have been applied
// to env beforehand (havocCalls).
func (a *analyzer) eval(env Env, e ast.Expr) Val {
	if !env.reachable {
		return Bot()
	}
	info := a.res.Info
	switch x := e.(type) {
	case *ast.IntLit:
		return IntConst(x.Value)
	case *ast.Ident:
		// A bare identifier can invoke a parameterless function.
		if callee := info.CallOf(x); callee != nil {
			if callee.Result == nil {
				return Top()
			}
			return a.res.exitEnv[callee].Lookup(callee.Result)
		}
		switch sym := info.UseOf(x).(type) {
		case *sem.ConstSym:
			switch v := sym.Value.(type) {
			case int64:
				return IntConst(v)
			case bool:
				return BoolConst(v)
			}
			return Top()
		case *sem.VarSym:
			return env.Lookup(sym)
		}
		return Top()
	case *ast.UnaryExpr:
		v := a.eval(env, x.X)
		switch x.Op {
		case token.Plus:
			return v
		case token.Minus:
			return v.Neg()
		case token.Not:
			return v.Not()
		}
		return Top()
	case *ast.BinaryExpr:
		return a.evalBinary(env, x)
	case *ast.CallExpr:
		return a.evalCall(env, x)
	}
	// RealLit, StringLit, IndexExpr, FieldExpr, SetLit: untracked.
	return Top()
}

func (a *analyzer) evalBinary(env Env, e *ast.BinaryExpr) Val {
	info := a.res.Info
	x := a.eval(env, e.X)
	y := a.eval(env, e.Y)
	switch e.Op {
	case token.Plus, token.Minus, token.Star, token.Div, token.Mod:
		// Integer arithmetic only; `+` over reals (or a mistyped tree)
		// falls back to ⊤.
		if t, ok := info.TypeOf(e).(*types.Basic); !ok || t.Kind != types.Int {
			return Top()
		}
		switch e.Op {
		case token.Plus:
			return x.Add(y)
		case token.Minus:
			return x.Sub(y)
		case token.Star:
			return x.Mul(y)
		case token.Div:
			return x.Div(y)
		case token.Mod:
			return x.Mod(y)
		}
	case token.Slash:
		return Top() // real division
	case token.Eq:
		return x.EqV(y)
	case token.NotEq:
		return x.NeV(y)
	case token.Less:
		return intOnlyCmp(info, e, x.Lt(y))
	case token.LessEq:
		return intOnlyCmp(info, e, x.Le(y))
	case token.Greater:
		return intOnlyCmp(info, e, x.Gt(y))
	case token.GreatEq:
		return intOnlyCmp(info, e, x.Ge(y))
	case token.And:
		return x.And(y)
	case token.Or:
		return x.Or(y)
	}
	return Top()
}

// intOnlyCmp guards ordered comparisons: the interval reasoning is only
// meaningful when both operands are integers (reals and strings compare
// through ⊤ operands, but a real-typed literal tree would otherwise leak
// int conclusions).
func intOnlyCmp(info *sem.Info, e *ast.BinaryExpr, v Val) Val {
	tx, okx := info.TypeOf(e.X).(*types.Basic)
	ty, oky := info.TypeOf(e.Y).(*types.Basic)
	if okx && oky && tx.Kind == types.Int && ty.Kind == types.Int {
		return v
	}
	return AnyBool()
}

func (a *analyzer) evalCall(env Env, e *ast.CallExpr) Val {
	info := a.res.Info
	if callee := info.CallOf(e); callee != nil {
		if callee.Result == nil {
			return Top()
		}
		return a.res.exitEnv[callee].Lookup(callee.Result)
	}
	b := info.BuiltinOf(e)
	if b == nil || len(e.Args) != 1 {
		return Top()
	}
	arg := a.eval(env, e.Args[0])
	argInt := false
	if t, ok := info.TypeOf(e.Args[0]).(*types.Basic); ok && t.Kind == types.Int {
		argInt = true
	}
	switch b.Code {
	case sem.BuiltinAbs:
		if argInt {
			return arg.Abs()
		}
	case sem.BuiltinSqr:
		if argInt {
			return arg.Mul(arg)
		}
	case sem.BuiltinOdd:
		return arg.Odd()
	case sem.BuiltinTrunc, sem.BuiltinRound:
		return AnyInt()
	}
	return Top()
}

// ---------------------------------------------------------------------------
// Branch refinement

// refineEdge narrows the post-store of node p along an outgoing edge
// with branch label br.
func (a *analyzer) refineEdge(g *cfg.Graph, p *cfg.Node, env Env, br cfg.Branch) Env {
	if br != cfg.BranchTrue && br != cfg.BranchFalse {
		return env
	}
	want := br == cfg.BranchTrue
	switch p.Kind {
	case cfg.Cond:
		if _, isCase := p.Stmt.(*ast.CaseStmt); isCase {
			return env // selector edges carry no boolean outcome
		}
		// A call embedded in the condition may change a variable after
		// its operand value was already read (evaluation is left to
		// right), so the comparison constrains the value read, not the
		// value held at the branch point. Such variables must not be
		// clamped.
		return a.refine(env, g.Routine, p.Cond, want, a.condModSet(p.Cond))
	case cfg.ForCond:
		return a.refineFor(env, g.Routine, p.Stmt.(*ast.ForStmt), want)
	}
	return env
}

// condModSet returns the variables (one bit per sem.VarSym.ID) that
// calls embedded in cond may modify (empty when the condition is
// call-free).
func (a *analyzer) condModSet(cond ast.Expr) defuse.BitSet {
	var mods defuse.BitSet
	var refs []callRef
	a.collectCalls(cond, &refs)
	for _, ref := range refs {
		if eff := a.res.side.Of[ref.callee]; eff != nil {
			for _, g := range eff.ModGlobals.Slice() {
				mods.Set(g.ID)
			}
		}
		for i, p := range ref.callee.Params {
			if p.IsByRef() && i < len(ref.args) {
				if v := a.res.Info.VarOf(ref.args[i]); v != nil {
					mods.Set(v.ID)
				}
			}
		}
	}
	return mods
}

// refineFor narrows the loop variable along the ForCond edges. The
// interpreter captures `from` and `limit` once at loop entry, steps an
// internal counter, and copies it to the loop variable only when the
// bounds check passes — so the variable never runs past the limit: at
// the exit edge it holds either the captured `from` (zero iterations,
// possible only when from lies beyond the limit) or the captured limit
// itself (at least one iteration, possible only when from started on
// the near side). Since the store at ForCond joins the entry path, the
// intervals of both expressions here over-approximate the captured
// values, so clamping against their bounds is sound.
func (a *analyzer) refineFor(env Env, r *sem.Routine, fs *ast.ForStmt, want bool) Env {
	if !env.reachable {
		return env
	}
	v := a.res.Info.VarOf(fs.Var)
	if v == nil || !a.trackedIn(r, v) {
		return env
	}
	from := a.eval(env, fs.From)
	limit := a.eval(env, fs.Limit)
	flo, fhi, fok := from.Bounds()
	llo, lhi, lok := limit.Bounds()
	if !fok || !lok {
		return botEnv()
	}
	cur := env.Lookup(v)
	var met Val
	if a.loopVarWritten(fs, v) {
		// The body may overwrite the variable, so it no longer mirrors
		// the counter. On the body edge the iteration-top write v := i
		// still applies (counter within the captured bounds); on the
		// exit edge the variable keeps whatever the last body pass (or
		// the init, on zero iterations) left — no refinement possible.
		if !want {
			return env
		}
		if fs.Down {
			met = IntRange(llo, fhi)
		} else {
			met = IntRange(flo, lhi)
		}
	} else if want {
		// Body entry: the variable mirrors the counter, still in range.
		var clamp Val
		if fs.Down {
			clamp = IntRange(llo, posInf) // v >= limit
		} else {
			clamp = IntRange(negInf, lhi) // v <= limit
		}
		met = cur.Meet(clamp)
	} else {
		var skipped, finished Val
		if fs.Down {
			skipped = from.Meet(IntRange(negInf, satSub(lhi, 1)))
			finished = limit.Meet(IntRange(negInf, fhi))
		} else {
			skipped = from.Meet(IntRange(satAdd(llo, 1), posInf))
			finished = limit.Meet(IntRange(flo, posInf))
		}
		met = cur.Meet(skipped.Join(finished))
	}
	if met.IsBot() {
		return botEnv()
	}
	return env.with(v, met)
}

// loopVarWritten reports whether the body of fs may write its loop
// variable: a direct assignment, a read into it, an inner for loop
// driving it, passing it by reference, or calling a routine that may
// modify it as a non-local.
func (a *analyzer) loopVarWritten(fs *ast.ForStmt, v *sem.VarSym) bool {
	if mod, ok := a.res.forVarMod[fs]; ok {
		return mod
	}
	info := a.res.Info
	mod := false
	isV := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.VarOf(id) == v
	}
	calleeMods := func(callee *sem.Routine, args []ast.Expr) bool {
		if callee == nil {
			return false
		}
		if eff := a.res.side.Of[callee]; eff != nil && eff.ModGlobals.Has(v) {
			return true
		}
		for i, p := range callee.Params {
			if p.IsByRef() && i < len(args) && isV(args[i]) {
				return true
			}
		}
		return false
	}
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		if mod {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			mod = mod || isV(x.Lhs)
		case *ast.ForStmt:
			mod = mod || isV(x.Var)
		case *ast.CallStmt:
			if b := info.BuiltinOf(x); b != nil && (b.Code == sem.BuiltinRead || b.Code == sem.BuiltinReadln) {
				for _, arg := range x.Args {
					mod = mod || isV(arg)
				}
			}
			mod = mod || calleeMods(info.CallOf(x), x.Args)
		case *ast.CallExpr:
			mod = mod || calleeMods(info.CallOf(x), x.Args)
		case *ast.Ident:
			if callee := info.CallOf(x); callee != nil {
				mod = mod || calleeMods(callee, nil)
			}
		}
		return !mod
	})
	a.res.forVarMod[fs] = mod
	return mod
}

// refine narrows env under the assumption that boolean expression e
// evaluates to want. Returns the bottom store when the assumption is
// contradictory.
func (a *analyzer) refine(env Env, r *sem.Routine, e ast.Expr, want bool, skip defuse.BitSet) Env {
	if !env.reachable || e == nil {
		return env
	}
	if b, ok := a.eval(env, e).ConstBool(); ok && b != want {
		return botEnv()
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v := a.res.Info.VarOf(x); v != nil && a.trackedIn(r, v) && !skip.Has(v.ID) {
			met := env.Lookup(v).Meet(BoolConst(want))
			if met.IsBot() {
				return botEnv()
			}
			env = env.with(v, met)
		}
		return env
	case *ast.UnaryExpr:
		if x.Op == token.Not {
			return a.refine(env, r, x.X, !want, skip)
		}
		return env
	case *ast.BinaryExpr:
		switch x.Op {
		case token.And:
			if want {
				return a.refine(a.refine(env, r, x.X, true, skip), r, x.Y, true, skip)
			}
			return a.refine(env, r, x.X, false, skip).join(a.refine(env, r, x.Y, false, skip))
		case token.Or:
			if !want {
				return a.refine(a.refine(env, r, x.X, false, skip), r, x.Y, false, skip)
			}
			return a.refine(env, r, x.X, true, skip).join(a.refine(env, r, x.Y, true, skip))
		case token.Eq, token.NotEq, token.Less, token.LessEq, token.Greater, token.GreatEq:
			return a.refineRel(env, r, x, want, skip)
		}
	}
	return env
}

// refineRel narrows the variables of a relational comparison.
func (a *analyzer) refineRel(env Env, r *sem.Routine, e *ast.BinaryExpr, want bool, skip defuse.BitSet) Env {
	info := a.res.Info
	op := e.Op
	if !want {
		op = negateRel(op)
	}
	// Integer ordering only (equality over booleans is handled by the
	// definite-value check in refine).
	tx, okx := info.TypeOf(e.X).(*types.Basic)
	ty, oky := info.TypeOf(e.Y).(*types.Basic)
	if !okx || !oky || tx.Kind != types.Int || ty.Kind != types.Int {
		return env
	}
	env = a.clampVar(env, r, e.X, op, a.eval(env, e.Y), skip)
	if !env.reachable {
		return env
	}
	return a.clampVar(env, r, e.Y, flipRel(op), a.eval(env, e.X), skip)
}

// clampVar narrows `x op bound` when x is a tracked variable.
func (a *analyzer) clampVar(env Env, r *sem.Routine, x ast.Expr, op token.Kind, bound Val, skip defuse.BitSet) Env {
	id, ok := x.(*ast.Ident)
	if !ok {
		return env
	}
	v := a.res.Info.VarOf(id)
	if v == nil || !a.trackedIn(r, v) || skip.Has(v.ID) {
		return env
	}
	lo, hi, bok := bound.Bounds()
	if !bok {
		return botEnv()
	}
	var clamp Val
	switch op {
	case token.Less:
		clamp = IntRange(negInf, satSub(hi, 1))
	case token.LessEq:
		clamp = IntRange(negInf, hi)
	case token.Greater:
		clamp = IntRange(satAdd(lo, 1), posInf)
	case token.GreatEq:
		clamp = IntRange(lo, posInf)
	case token.Eq:
		clamp = IntRange(lo, hi)
	case token.NotEq:
		// Only edge exclusion of a singleton bound is expressible.
		cur := env.Lookup(v)
		clo, chi, cok := cur.Bounds()
		if c, isC := bound.ConstInt(); isC && cok {
			if clo == c && chi == c {
				return botEnv()
			}
			if clo == c {
				clamp = IntRange(satAdd(c, 1), posInf)
			} else if chi == c {
				clamp = IntRange(negInf, satSub(c, 1))
			} else {
				return env
			}
		} else {
			return env
		}
	default:
		return env
	}
	cur := env.Lookup(v)
	met := cur.Meet(clamp)
	if met.IsBot() {
		return botEnv()
	}
	return env.with(v, met)
}

func negateRel(op token.Kind) token.Kind {
	switch op {
	case token.Eq:
		return token.NotEq
	case token.NotEq:
		return token.Eq
	case token.Less:
		return token.GreatEq
	case token.LessEq:
		return token.Greater
	case token.Greater:
		return token.LessEq
	case token.GreatEq:
		return token.Less
	}
	return op
}

// flipRel mirrors the relation for the swapped operand order.
func flipRel(op token.Kind) token.Kind {
	switch op {
	case token.Less:
		return token.Greater
	case token.LessEq:
		return token.GreatEq
	case token.Greater:
		return token.Less
	case token.GreatEq:
		return token.LessEq
	}
	return op // Eq, NotEq symmetric
}
