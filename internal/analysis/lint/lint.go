package lint

import (
	"gadt/internal/analysis/absint"
	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/dataflow"
	"gadt/internal/analysis/defuse"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/obs"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

// Context carries the shared analysis results every check reads. It is
// built once per Run: the checks themselves are pure functions over it.
type Context struct {
	Info *sem.Info
	// Src is the raw source text (used for suppression comments); may be
	// empty, in which case no suppressions apply.
	Src string

	CG     *callgraph.Graph
	Side   *sideeffect.Result
	Graphs map[*sem.Routine]*cfg.Graph
	Flows  map[*sem.Routine]*dataflow.Result
	Lives  map[*sem.Routine]*dataflow.Live
	// Values is the abstract-interpretation result backing the provable
	// checks P012–P015.
	Values *absint.Result

	// Observed holds, per routine and CFG node ID, the variables whose
	// incoming value the node may actually read — Flows' UsesAt with
	// flow-insensitive call uses refined to upward-exposed ones (see
	// observe.go), one bit per index in the routine's Flows[r].Vars. The
	// use-before-definition checks consult this instead of UsesAt so that
	// pure output arguments are not reported as reads.
	Observed map[*sem.Routine]defuse.BitSets

	// usedAnywhere / definedAnywhere record, across every routine's
	// graph, the variables (one bit per sem.VarSym.ID) with at least one
	// use / one real (non-synthetic) definition. Nested routines touching
	// an outer local count: a variable only read by an inner routine is
	// not unused.
	usedAnywhere    defuse.BitSet
	definedAnywhere defuse.BitSet
}

// NewContext runs the shared analyses over an analyzed program.
func NewContext(info *sem.Info, src string) *Context {
	cx := &Context{
		Info:   info,
		Src:    src,
		Graphs: make(map[*sem.Routine]*cfg.Graph, len(info.Routines)),
		Flows:  make(map[*sem.Routine]*dataflow.Result, len(info.Routines)),
		Lives:  make(map[*sem.Routine]*dataflow.Live, len(info.Routines)),
	}
	cx.CG = callgraph.Build(info)
	cx.Side = sideeffect.Analyze(info, cx.CG)
	for _, r := range info.Routines {
		g := cfg.Build(info, r)
		cx.Graphs[r] = g
		// Reaching definitions with interprocedural call effects: a call
		// that may define a variable through a var parameter or a global
		// counts as a definition, exactly like in the slicing layer.
		fl := dataflow.ReachingDefs(info, g, cx.Side)
		cx.Flows[r] = fl
		cx.Lives[r] = fl.Liveness()
		for _, d := range fl.Defs {
			if !d.Synthetic {
				cx.definedAnywhere.Set(d.Var.ID)
			}
		}
	}
	// The value analysis shares the CFGs built above.
	cx.Values = absint.AnalyzeGraphs(info, cx.Graphs, cx.CG, cx.Side)
	// Observing uses need every routine's flow results, so this runs after
	// the per-routine loop. usedAnywhere counts observing uses only: a
	// variable that is merely overwritten through var-parameter bindings
	// is write-only, not used.
	computeObserved(cx)
	for _, r := range info.Routines {
		for _, n := range cx.Graphs[r].Nodes {
			for _, v := range cx.Flows[r].UsesAt[n.ID] {
				if cx.observes(r, n, v) {
					cx.usedAnywhere.Set(v.ID)
				}
			}
		}
	}
	return cx
}

// observes reports whether node n of routine r may read the incoming
// value of v (see Observed).
func (cx *Context) observes(r *sem.Routine, n *cfg.Node, v *sem.VarSym) bool {
	k := cx.Flows[r].VarIndex(v)
	return k >= 0 && cx.Observed[r].At(n.ID).Has(k)
}

// Check is one registered analysis pass.
type Check struct {
	// Code is the stable identifier, e.g. "P001".
	Code string
	// Name is a short slug, e.g. "use-before-def".
	Name string
	// Doc is a one-line description for -codes listings and the README
	// table.
	Doc string
	// Run produces the findings. Implementations must be deterministic.
	Run func(cx *Context) []Diagnostic
}

// Checks returns the full registry in code order.
func Checks() []Check {
	return []Check{
		{"P001", "use-before-def", "local variable is used but no assignment reaches the use", checkUseBeforeDef},
		{"P002", "maybe-uninitialized", "local variable may be used before assignment on some path", checkMaybeUninit},
		{"P003", "dead-store", "assigned value is never used", checkDeadStores},
		{"P004", "unused-variable", "variable is declared but never used", checkUnusedVars},
		{"P005", "unused-parameter", "parameter is never used by the routine", checkUnusedParams},
		{"P006", "unreachable", "statement can never execute", checkUnreachable},
		{"P007", "unused-routine", "routine is never called", checkUnusedRoutines},
		{"P008", "var-alias", "same variable bound to two var parameters at a call", checkVarAliasing},
		{"P009", "result-unassigned", "function has paths that never assign its result", checkResultUnassigned},
		{"P010", "goto-into-loop", "goto jumps into the body of a loop", checkGotoIntoLoop},
		{"P011", "nonlocal-exit", "routine may exit non-locally via goto", checkNonlocalExit},
		{"P012", "constant-condition", "branch condition always evaluates the same way", checkConstCond},
		{"P013", "index-out-of-range", "array index is provably outside the declared bounds", checkIndexRange},
		{"P014", "div-by-zero", "right operand of div/mod is provably zero", checkDivByZero},
		{"P015", "redundant-store", "assignment provably stores the value the variable already holds", checkRedundantStore},
	}
}

// LookupCheck finds a registry entry by code ("P003") or name
// ("dead-store"); nil when unknown.
func LookupCheck(key string) *Check {
	for _, c := range Checks() {
		if c.Code == key || c.Name == key {
			c := c
			return &c
		}
	}
	return nil
}

// Options configures a run.
type Options struct {
	// Codes restricts the run to the given check codes (empty = all).
	Codes []string
	// NoSuppress disables `lint:ignore` comment processing.
	NoSuppress bool
}

// RunInfo lints an analyzed program, returning findings in deterministic
// order with suppressions applied.
func RunInfo(info *sem.Info, src string, opts Options) []Diagnostic {
	cx := NewContext(info, src)
	keep := func(code string) bool {
		if len(opts.Codes) == 0 {
			return true
		}
		for _, c := range opts.Codes {
			if c == code {
				return true
			}
		}
		return false
	}
	var diags []Diagnostic
	for _, c := range Checks() {
		if !keep(c.Code) {
			continue
		}
		diags = append(diags, c.Run(cx)...)
	}
	if !opts.NoSuppress {
		diags = applySuppressions(src, diags)
	}
	Sort(diags)
	return dedup(diags)
}

// dedup collapses findings identical in position, code and message — one
// statement can expand to several CFG nodes (a for loop's ForCond and
// ForIncr both read the counter) that each report the same anomaly.
func dedup(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := diags[i-1]
			if p.Pos == d.Pos && p.Code == d.Code && p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// Record counts findings in a metrics registry: lint.findings overall
// plus lint.findings.<code> per check code. Nil-safe on the registry.
func Record(m *obs.Registry, diags []Diagnostic) {
	if m == nil {
		return
	}
	m.Counter("lint.findings").Add(int64(len(diags)))
	for _, d := range diags {
		m.Counter("lint.findings." + d.Code).Inc()
	}
}

// Run parses, analyzes and lints a source file in one step.
func Run(file, src string, opts Options) ([]Diagnostic, error) {
	prog, err := parser.ParseProgram(file, src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return RunInfo(info, src, opts), nil
}
