// Package transform implements the paper's transformation phase
// (Sections 5.1 and 6): it turns a Pascal program with global
// side-effects and global gotos into an equivalent program whose units
// (procedures, functions, and extracted loop units) communicate only
// through explicit parameters, as required by algorithmic debugging.
//
// Three passes run in order:
//
//  1. Loop extraction: every loop becomes a synthetic recursive
//     procedure (a "unit" in the paper's sense), so each iteration is a
//     unit invocation in the execution tree. A goto leaving a loop
//     thereby becomes a global goto, letting pass 2 treat the paper's
//     "goto inside a loop addressed outside the loop" uniformly.
//  2. Goto breaking: routines with exit side-effects get an `out`
//     exit-condition parameter; global gotos become an assignment of an
//     escape code plus a local goto to a fresh label at the routine end,
//     and every call site tests the code and re-raises or jumps locally
//     (the paper's second transformation example).
//  3. Globals to parameters: Banning-style side-effect analysis decides,
//     for every routine, which non-local variables it references or
//     modifies; these become `in` (value), `var` or `out` parameters,
//     transitively through call chains (the paper's first example).
//
// Instead of source-level trace augmentation (the paper's
// save_incoming/outgoing_values calls), tracing uses the interpreter's
// event sink, which is observationally equivalent; see DESIGN.md.
//
// The construct map (Section 6.1) is Result.Units, Added and
// EscapeCodes: it names the original routine and loop behind every
// transformed unit, the globals and exit condition behind every added
// parameter, and the label behind every escape code, so the debugger
// presents original constructs to the user.
package transform

import (
	"fmt"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/obs"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// UnitKind distinguishes original routines from extracted loop units.
type UnitKind int

const (
	RoutineUnit UnitKind = iota
	LoopUnit
)

// UnitOrigin describes where a transformed routine came from.
type UnitOrigin struct {
	Kind UnitKind
	// RoutineName is the original routine's name (for LoopUnit, the
	// routine whose body contained the loop).
	RoutineName string
	// Loop is the loop statement a LoopUnit was extracted from, as it
	// stood in the transformer's copy of the program: it has the
	// original loop's type and position, which is all the debugger
	// reads to name the unit.
	Loop ast.Stmt
}

// AddedParam records one parameter introduced by the transformation.
type AddedParam struct {
	Name string
	// Mode is the actual parameter mode in the transformed program.
	// Display is the logical mode for presentation: a referenced-only
	// global is logically an `in` parameter even when alias analysis
	// forces by-reference passing (a variable that is var-bound anywhere
	// may be mutated through that alias while the callee runs, so a
	// value copy would go stale — Banning's alias problem).
	Mode    ast.ParamMode
	Display ast.ParamMode
	// GlobalOf names the original non-local variable, or "" for the
	// exit-condition parameter.
	GlobalOf string
	// ExitCond marks the exit-condition parameter.
	ExitCond bool
}

// Result is the outcome of the transformation phase.
type Result struct {
	// Program is the transformed program; Info is its (re-run) semantic
	// analysis.
	Program *ast.Program
	Info    *sem.Info

	// OrigProgram/OrigInfo describe the untouched input.
	OrigProgram *ast.Program
	OrigInfo    *sem.Info

	// Units maps transformed routine names to their origin.
	Units map[string]UnitOrigin

	// Added lists parameters introduced per transformed routine name,
	// in declaration order.
	Added map[string][]AddedParam

	// EscapeCodes maps exit-condition codes to a human-readable label
	// description ("label 9 in p"), shared program-wide.
	EscapeCodes map[int]string

	analyses int // sem.Analyze calls ApplyStages made
}

// OriginRoutine maps a transformed unit name back to the ORIGINAL
// routine it came from: loop units resolve to the routine whose body
// contained the loop, ordinary routines to themselves, and unknown
// names (no transformation record) to themselves unchanged. The
// mutation campaign uses it to compare a localized unit against the
// routine the fault was injected into.
func (res *Result) OriginRoutine(unit string) string {
	if u, ok := res.Units[unit]; ok && u.RoutineName != "" {
		return u.RoutineName
	}
	return unit
}

// Stages selects which transformation passes run. The zero value runs
// nothing (identity modulo cloning); AllStages is the full pipeline.
// Passes always run in pipeline order (loops, then gotos, then globals)
// regardless of which subset is enabled — the differential harness uses
// subsets to attribute an equivalence failure to one pass.
type Stages struct {
	Loops   bool // pass 1: extract loops into recursive units
	Gotos   bool // pass 2: break global gotos
	Globals bool // pass 3: globals to parameters
}

// AllStages enables the full pipeline.
func AllStages() Stages { return Stages{Loops: true, Gotos: true, Globals: true} }

// String renders the enabled stage set, e.g. "loops+globals" or "none".
func (s Stages) String() string {
	out := ""
	add := func(on bool, name string) {
		if !on {
			return
		}
		if out != "" {
			out += "+"
		}
		out += name
	}
	add(s.Loops, "loops")
	add(s.Gotos, "gotos")
	add(s.Globals, "globals")
	if out == "" {
		return "none"
	}
	return out
}

// Apply runs the full transformation pipeline on an analyzed program.
// The input program is not modified.
func Apply(info *sem.Info) (*Result, error) {
	return ApplyStages(info, AllStages())
}

// ApplyStages runs the selected transformation passes on an analyzed
// program. The input program is not modified.
func ApplyStages(info *sem.Info, stages Stages) (*Result, error) {
	clone := ast.CloneProgram(info.Program)
	res := &Result{
		OrigProgram: info.Program,
		OrigInfo:    info,
		Units:       make(map[string]UnitOrigin),
		Added:       make(map[string][]AddedParam),
		EscapeCodes: make(map[int]string),
	}
	// Seed Units with the original routines.
	for _, r := range info.Routines {
		res.Units[r.Name] = UnitOrigin{Kind: RoutineUnit, RoutineName: r.Name}
	}

	st := &state{res: res, names: collectNames(clone)}

	// Pass 1: loop extraction (pure AST rewriting).
	if stages.Loops {
		st.extractLoops(clone)
	}

	// Analyze the clone: the input info describes the original AST, and
	// passes 2 and 3 must resolve symbols of the clone they rewrite.
	// After that, only a pass that changed the clone re-analyzes it.
	if err := st.analyze(clone, "loop extraction broke the program"); err != nil {
		return nil, err
	}

	// Pass 2: break global gotos.
	if stages.Gotos {
		if err := st.pass(clone, st.breakGotos, "goto breaking broke the program"); err != nil {
			return nil, err
		}
	}

	// Pass 3: globals to parameters.
	if stages.Globals {
		if err := st.pass(clone, st.globalsToParams, "transformed program does not re-analyze"); err != nil {
			return nil, err
		}
	}

	res.Program = clone
	res.Info = st.info
	return res, nil
}

// state carries shared transformation machinery.
type state struct {
	res   *Result
	names map[string]bool // all identifiers in use, for fresh-name generation
	seq   int

	// info is the current analysis of the clone. cg and se are its call
	// graph and side effects, built by the first pass that needs them
	// (nil until then), so a pass that changed nothing hands them on.
	info *sem.Info
	cg   *callgraph.Graph
	se   *sideeffect.Result
}

// pass runs a rewriting pass over the clone, which reports whether it
// changed it, and re-analyzes the clone only if it did.
func (st *state) pass(p *ast.Program, rewrite func(*ast.Program) (bool, error), what string) error {
	changed, err := rewrite(p)
	if err != nil || !changed {
		return err
	}
	return st.analyze(p, what)
}

// analyze runs semantic analysis on the clone; what names the step
// that broke the program when it does not analyze.
func (st *state) analyze(p *ast.Program, what string) error {
	info, err := sem.Analyze(p)
	st.res.analyses++
	if err != nil {
		return fmt.Errorf("transform: %s: %w", what, err)
	}
	st.info, st.cg, st.se = info, nil, nil
	return nil
}

// effects returns the call graph and side effects of the current
// analysis.
func (st *state) effects() (*callgraph.Graph, *sideeffect.Result) {
	if st.se == nil {
		st.cg = callgraph.Build(st.info)
		st.se = sideeffect.Analyze(st.info, st.cg)
	}
	return st.cg, st.se
}

// fresh returns an unused identifier based on base.
func (st *state) fresh(base string) string {
	name := base
	for st.names[name] {
		st.seq++
		name = fmt.Sprintf("%s_%d", base, st.seq)
	}
	st.names[name] = true
	return name
}

// collectNames gathers every identifier spelled in the program.
func collectNames(p *ast.Program) map[string]bool {
	names := map[string]bool{p.Name: true}
	ast.Inspect(p, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			names[n.Name] = true
		case *ast.Routine:
			names[n.Name] = true
		case *ast.VarDecl:
			for _, s := range n.Names {
				names[s] = true
			}
		case *ast.Param:
			for _, s := range n.Names {
				names[s] = true
			}
		case *ast.ConstDecl:
			names[n.Name] = true
		case *ast.TypeDecl:
			names[n.Name] = true
		case *ast.CallStmt:
			names[n.Name] = true
		case *ast.CallExpr:
			names[n.Name] = true
		case *ast.FieldExpr:
			names[n.Field] = true
		}
		return true
	})
	return names
}

// Stats summarizes what the transformation phase did, for the
// observability layer and reports.
type Stats struct {
	// Routines is the transformed program's unit count (original
	// routines plus extracted loop units).
	Routines int
	// RoutinesChanged counts units that gained at least one parameter.
	RoutinesChanged int
	// LoopUnits counts loop bodies extracted into synthetic units.
	LoopUnits int
	// GlobalsLifted counts parameters introduced for non-local
	// variables, summed over all units.
	GlobalsLifted int
	// GotosBroken counts distinct global-goto escape codes introduced.
	GotosBroken int
	// Analyses counts the semantic analyses of the transformed program:
	// one after loop extraction, and one more after each pass that
	// changed the program.
	Analyses int
}

// Stats computes the transformation summary from the result.
func (res *Result) Stats() Stats {
	st := Stats{Routines: len(res.Units), GotosBroken: len(res.EscapeCodes), Analyses: res.analyses}
	for _, u := range res.Units {
		if u.Kind == LoopUnit {
			st.LoopUnits++
		}
	}
	for _, added := range res.Added {
		if len(added) == 0 {
			continue
		}
		st.RoutinesChanged++
		for _, a := range added {
			if a.GlobalOf != "" {
				st.GlobalsLifted++
			}
		}
	}
	return st
}

// RecordMetrics adds the transformation counters to a registry
// (transform.routines, transform.routines.changed, transform.loop-units,
// transform.globals-lifted, transform.gotos-broken, transform.analyses).
// Nil-safe.
func (res *Result) RecordMetrics(m *obs.Registry) {
	if m == nil {
		return
	}
	st := res.Stats()
	m.Counter("transform.routines").Add(int64(st.Routines))
	m.Counter("transform.routines.changed").Add(int64(st.RoutinesChanged))
	m.Counter("transform.loop-units").Add(int64(st.LoopUnits))
	m.Counter("transform.globals-lifted").Add(int64(st.GlobalsLifted))
	m.Counter("transform.gotos-broken").Add(int64(st.GotosBroken))
	m.Counter("transform.analyses").Add(int64(st.Analyses))
}
