// Package mutate implements fault injection for the mutation campaign:
// it applies classic mutation operators to parsed Pascal programs,
// producing deterministic first-order mutants (exactly one planted
// fault each) together with the ground-truth unit the fault lives in.
// The campaign runner (package campaign) executes every mutant through
// the full GADT pipeline and checks that algorithmic debugging
// localizes the bug back to that unit.
//
// Operators (the classic selective set, cf. Offutt's sufficient
// operators):
//
//	rel-flip          relational operator replacement (<, <=, =, ...)
//	arith-flip        arithmetic operator replacement (+, -, *, div, ...)
//	const-off-by-one  integer literal n -> n±1
//	var-swap          reference to a variable replaced by another
//	                  same-type variable of the same declaration group
//	negate-cond       if/while/repeat condition wrapped in `not`
//	drop-stmt         assignment or call statement deleted
//
// Each mutation site is an in-place edit of the parsed original that
// can be applied and undone, so enumeration never copies the program.
// Enumerate judges every site from the original's one semantic
// analysis: a site whose fault no longer type-checks is discarded
// (stillborn), so the returned set contains only executable programs.
// Only a site the rules cannot decide (a var-swap of an assignment
// target, or an operator flip that changes the expression's type) is
// applied and the whole edited program re-analyzed. A mutant's source is
// printed on demand (Enumeration.Source), so a campaign prints only the
// mutants it runs. Enumeration order and mutant IDs are fully
// deterministic for a given (source, Config) pair.
package mutate

import (
	"fmt"
	"strings"

	"gadt/internal/obs"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
	"gadt/internal/pascal/types"
)

// Op names a mutation operator.
type Op string

const (
	RelFlip       Op = "rel-flip"
	ArithFlip     Op = "arith-flip"
	ConstOffByOne Op = "const-off-by-one"
	VarSwap       Op = "var-swap"
	NegateCond    Op = "negate-cond"
	DropStmt      Op = "drop-stmt"
)

// AllOps lists every operator in canonical order.
func AllOps() []Op {
	return []Op{RelFlip, ArithFlip, ConstOffByOne, VarSwap, NegateCond, DropStmt}
}

// ParseOp recognizes an operator name.
func ParseOp(s string) (Op, bool) {
	for _, op := range AllOps() {
		if string(op) == s {
			return op, true
		}
	}
	return "", false
}

// Mutant is one validated first-order mutant.
type Mutant struct {
	// ID is the mutant's stable index in the full enumeration of its
	// subject (campaign sampling keeps it).
	ID int
	Op Op
	// Unit is the routine the fault was injected into (the program name
	// for faults in the main program body) — the localization ground
	// truth.
	Unit string
	// Pos is the source position of the mutated construct in the
	// original program.
	Pos token.Pos
	// Description is human-readable, e.g. `rel-flip < -> <= in isprime`.
	Description string
	// Source is the complete mutated program. EnumerateProgram fills it
	// for every mutant; after Enumerate it is empty until the caller
	// sets it from Enumeration.Source, as the campaign does for the
	// mutants it samples.
	Source string
	// Equivalent marks mutants that static triage proved
	// behaviour-preserving (see TriageEquivalent); the campaign reports
	// them without executing them.
	Equivalent bool
	// EquivReason names the triage rule that fired, e.g. `site
	// unreachable on all inputs`.
	EquivReason string

	// orig points at the mutation site in the original program, the
	// handle triage uses to consult the value analysis.
	orig *site
}

// Config controls enumeration.
type Config struct {
	// Ops enables a subset of operators (nil/empty = all).
	Ops []Op
	// Metrics, when non-nil, receives enumeration counters: the labeled
	// mutate.sites{op=...} series, mutate.stillborn (faults that do not
	// type-check), mutate.mutants (viable mutants returned), and
	// mutate.reanalyses (sites judged by re-analyzing the edited
	// program).
	Metrics *obs.Registry
}

// relAlts / arithAlts map an operator token to its replacement
// candidates. Two alternatives per relational operator cover both the
// boundary (off-by-one in the comparison) and the polarity fault
// classes.
var relAlts = map[token.Kind][]token.Kind{
	token.Eq:      {token.NotEq, token.LessEq},
	token.NotEq:   {token.Eq, token.Less},
	token.Less:    {token.LessEq, token.GreatEq},
	token.LessEq:  {token.Less, token.Greater},
	token.Greater: {token.GreatEq, token.LessEq},
	token.GreatEq: {token.Greater, token.Less},
}

var arithAlts = map[token.Kind][]token.Kind{
	token.Plus:  {token.Minus, token.Star},
	token.Minus: {token.Plus},
	token.Star:  {token.Plus},
	token.Div:   {token.Mod, token.Star},
	token.Mod:   {token.Div},
	token.Slash: {token.Star},
}

// site is one latent mutation: apply edits the recorded original
// node(s) in place and returns the edit that undoes it.
type site struct {
	op    Op
	unit  string
	pos   token.Pos
	desc  string
	apply func() (undo func())

	// Triage metadata. node is the original-program construct the
	// mutation edits (nil opts the site out of static triage); altOp and
	// altName record the replacement for flip and swap operators.
	node    ast.Node
	altOp   token.Kind
	altName string
	// target marks a var-swap of an assignment's whole left-hand side,
	// which only a re-analysis can judge (see viable).
	target bool
}

// Enumeration couples the parsed original program with its validated
// mutants, so whole-program analyses of the original can classify them
// (see TriageEquivalent).
type Enumeration struct {
	Prog    *ast.Program
	Info    *sem.Info
	Mutants []*Mutant
}

// EnumerateProgram returns every enabled, type-correct mutant of source
// with its Source printed, keeping the original program and its
// semantic info alongside.
func EnumerateProgram(file, source string, cfg Config) (*Enumeration, error) {
	en, err := Enumerate(file, source, cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range en.Mutants {
		m.Source = en.Source(m)
	}
	return en, nil
}

// Enumerate parses source and returns every enabled, type-correct
// mutant without its Source, keeping the original program and its
// semantic info alongside.
func Enumerate(file, source string, cfg Config) (*Enumeration, error) {
	prog, err := parser.ParseProgram(file, source)
	if err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}

	enabled := make(map[Op]bool)
	ops := cfg.Ops
	if len(ops) == 0 {
		ops = AllOps()
	}
	for _, op := range ops {
		enabled[op] = true
	}

	var sites []*site
	collectBlock(prog.Block, prog.Name, nil, enabled, &sites)
	siteVec := cfg.Metrics.CounterVec("mutate.sites", "op")
	for _, st := range sites {
		siteVec.With(string(st.op)).Inc()
	}

	var mutants []*Mutant
	for i, st := range sites {
		if !viable(prog, info, st, cfg.Metrics) {
			cfg.Metrics.Counter("mutate.stillborn").Inc()
			continue
		}
		mutants = append(mutants, &Mutant{
			ID:          i,
			Op:          st.op,
			Unit:        st.unit,
			Pos:         st.pos,
			Description: st.desc,
			orig:        st,
		})
	}
	cfg.Metrics.Counter("mutate.mutants").Add(int64(len(mutants)))
	return &Enumeration{Prog: prog, Info: info, Mutants: mutants}, nil
}

// Source prints en's program with m's fault planted: it applies m's
// edit to en.Prog, prints the program and undoes the edit. Because it
// edits the shared program, no other reader of en.Prog may run beside
// it.
func (en *Enumeration) Source(m *Mutant) string {
	defer m.orig.apply()() // edit now, undo on return
	return printer.Print(en.Prog)
}

// viable reports whether st's fault still type-checks, judged from
// info, the analysis of the unedited prog. Every edit stays inside one
// routine body, where the analyzer reads no literal value, so:
//   - negate-cond wraps a condition the analyzer required to be
//     boolean, and drop-stmt removes a statement no check depends on;
//   - const-off-by-one leaves an integer literal an integer;
//   - var-swap takes a name of the same declaration group, so the same
//     type and mode, except as an assignment's whole left-hand side
//     (see varGroups);
//   - an operator flip keeps its operands, so the analyzer's own rule
//     (sem.BinaryType) on their recorded types decides: the original
//     type means viable, and types.Bad means the operator does not
//     apply. The original type is tested first: an operand typed Bad
//     gives Bad under every operator, the original included, so such
//     a flip type-checks exactly when the program does.
//
// Any other site is applied and the whole edited program re-analyzed.
func viable(prog *ast.Program, info *sem.Info, st *site, m *obs.Registry) bool {
	switch st.op {
	case RelFlip, ArithFlip:
		e := st.node.(*ast.BinaryExpr)
		x, y, orig := info.TypeOf(e.X), info.TypeOf(e.Y), info.TypeOf(e)
		if x != nil && y != nil && orig != nil {
			switch sem.BinaryType(st.altOp, x, y) {
			case orig:
				return true
			case types.Bad:
				return false
			}
		}
	case VarSwap:
		if !st.target {
			return true
		}
	default:
		return true
	}
	m.Counter("mutate.reanalyses").Inc()
	defer st.apply()() // edit now, undo on return
	_, err := sem.Analyze(prog)
	return err == nil
}

// collectBlock gathers mutation sites for the block's own body
// (attributed to unit) and recurses into nested routines. owner is the
// routine the block belongs to (nil for the program block); its
// parameter groups join the block's variable groups for var-swap.
func collectBlock(b *ast.Block, unit string, owner *ast.Routine, enabled map[Op]bool, sites *[]*site) {
	for _, r := range b.Routines {
		collectBlock(r.Block, r.Name, r, enabled, sites)
	}
	groups := varGroups(b)
	if owner != nil {
		paramGroups(owner, groups)
	}
	collectBody(b.Body, unit, groups, enabled, sites)
}

// varGroups returns, for each variable name declared in this block
// (params of the owning routine are declared in the enclosing Routine,
// so they are collected by the caller via the block's routine), the
// other names of its declaration group. Names sharing one VarDecl or
// one Param entry have identical declared types and modes, so a swap
// type-checks wherever the name is read or passed. The exception is an
// assignment's whole left-hand side: there a name spelled like the
// routine or an enclosing function sets that function's result, and a
// local may share that name, so a swap can change the type the
// right-hand side must match. Enumeration re-analyzes those swaps.
func varGroups(b *ast.Block) map[string][]string {
	groups := make(map[string][]string)
	add := func(names []string) {
		if len(names) < 2 {
			return
		}
		for _, n := range names {
			var others []string
			for _, m := range names {
				if m != n {
					others = append(others, m)
				}
			}
			groups[n] = others
		}
	}
	for _, d := range b.Vars {
		add(d.Names)
	}
	return groups
}

// paramGroups extends varGroups with the routine's parameter groups.
func paramGroups(r *ast.Routine, groups map[string][]string) {
	for _, p := range r.Params {
		if len(p.Names) < 2 {
			continue
		}
		for _, n := range p.Names {
			var others []string
			for _, m := range p.Names {
				if m != n {
					others = append(others, m)
				}
			}
			groups[n] = others
		}
	}
}

func collectBody(body ast.Stmt, unit string, groups map[string][]string, enabled map[Op]bool, sites *[]*site) {
	// lhs is the last assignment's left-hand side; Inspect visits it
	// right after its statement.
	var lhs ast.Expr
	// Statement-level sites: dropped statements and negated conditions.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhs = n.Lhs
		case *ast.CompoundStmt:
			collectDrops(n.Stmts, unit, enabled, sites)
		case *ast.RepeatStmt:
			collectDrops(n.Stmts, unit, enabled, sites)
			collectNegate(&n.Cond, "until", unit, enabled, sites)
		case *ast.IfStmt:
			collectNegate(&n.Cond, "if", unit, enabled, sites)
		case *ast.WhileStmt:
			collectNegate(&n.Cond, "while", unit, enabled, sites)
		case *ast.BinaryExpr:
			collectOpFlip(n, unit, enabled, sites)
		case *ast.IntLit:
			collectOffByOne(n, unit, enabled, sites)
		case *ast.Ident:
			collectSwap(n, lhs == n, unit, groups, enabled, sites)
		}
		return true
	})
}

// collectDrops edits stmts, which shares its backing array with the
// parent statement's list, so a drop lands in the program.
func collectDrops(stmts []ast.Stmt, unit string, enabled map[Op]bool, sites *[]*site) {
	if !enabled[DropStmt] {
		return
	}
	for i, s := range stmts {
		switch s.(type) {
		case *ast.AssignStmt, *ast.CallStmt:
		default:
			continue
		}
		i, s := i, s
		*sites = append(*sites, &site{
			op:   DropStmt,
			unit: unit,
			pos:  s.Pos(),
			desc: fmt.Sprintf("drop-stmt `%s` in %s", firstLine(printer.PrintStmt(s)), unit),
			node: s,
			apply: func() func() {
				stmts[i] = &ast.EmptyStmt{SemiPos: s.Pos()}
				return func() { stmts[i] = s }
			},
		})
	}
}

func collectNegate(condField *ast.Expr, kw, unit string, enabled map[Op]bool, sites *[]*site) {
	cond := *condField
	if !enabled[NegateCond] || cond == nil {
		return
	}
	*sites = append(*sites, &site{
		op:   NegateCond,
		unit: unit,
		pos:  cond.Pos(),
		desc: fmt.Sprintf("negate-cond %s `%s` in %s", kw, firstLine(printer.PrintExpr(cond)), unit),
		node: cond,
		apply: func() func() {
			*condField = &ast.UnaryExpr{OpPos: cond.Pos(), Op: token.Not, X: cond}
			return func() { *condField = cond }
		},
	})
}

func collectOpFlip(e *ast.BinaryExpr, unit string, enabled map[Op]bool, sites *[]*site) {
	alts, op := relAlts[e.Op], RelFlip
	if len(alts) == 0 {
		alts, op = arithAlts[e.Op], ArithFlip
	}
	if len(alts) == 0 || !enabled[op] {
		return
	}
	for _, alt := range alts {
		alt := alt
		*sites = append(*sites, &site{
			op:    op,
			unit:  unit,
			pos:   e.Pos(),
			desc:  fmt.Sprintf("%s %s -> %s in %s", op, e.Op, alt, unit),
			node:  e,
			altOp: alt,
			apply: func() func() {
				orig := e.Op
				e.Op = alt
				return func() { e.Op = orig }
			},
		})
	}
}

func collectOffByOne(e *ast.IntLit, unit string, enabled map[Op]bool, sites *[]*site) {
	if !enabled[ConstOffByOne] {
		return
	}
	for _, delta := range []int64{1, -1} {
		delta := delta
		*sites = append(*sites, &site{
			op:   ConstOffByOne,
			unit: unit,
			pos:  e.Pos(),
			desc: fmt.Sprintf("const-off-by-one %d -> %d in %s", e.Value, e.Value+delta, unit),
			node: e,
			apply: func() func() {
				e.Value += delta
				return func() { e.Value -= delta }
			},
		})
	}
}

func collectSwap(id *ast.Ident, target bool, unit string, groups map[string][]string, enabled map[Op]bool, sites *[]*site) {
	if !enabled[VarSwap] {
		return
	}
	others := groups[id.Name]
	if len(others) == 0 {
		return
	}
	// One alternative per occurrence keeps the site count linear: the
	// lexicographically smallest other member of the declaration group.
	alt := others[0]
	for _, o := range others[1:] {
		if o < alt {
			alt = o
		}
	}
	*sites = append(*sites, &site{
		op:      VarSwap,
		unit:    unit,
		pos:     id.Pos(),
		desc:    fmt.Sprintf("var-swap %s -> %s in %s", id.Name, alt, unit),
		node:    id,
		altName: alt,
		target:  target,
		apply: func() func() {
			orig := id.Name
			id.Name = alt
			return func() { id.Name = orig }
		},
	})
}

// firstLine returns the first line of printed source, marking a cut
// with " ...". The printer ends a statement with a newline, which is
// not a second line.
func firstLine(s string) string {
	s = strings.TrimSuffix(s, "\n")
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}
