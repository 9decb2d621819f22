package debugger

import (
	"fmt"
	"sort"
	"strings"

	"gadt/internal/assertion"
	"gadt/internal/exectree"
	"gadt/internal/obs"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/interp"
	"gadt/internal/slicing/dynamic"
	"gadt/internal/transform"
)

// Strategy selects the execution-tree traversal order. The paper notes
// the method is traversal-agnostic ("generally it doesn't matter which
// traversal method is used"); the traversals differ only in how many
// questions they spend. WeightedDivideAndQuery is the Insa–Silva
// refinement ("Optimal Divide and Query"): nodes are weighted by
// execution cost and the query minimizing the worst-case remaining
// suspect weight is selected.
type Strategy int

const (
	TopDown Strategy = iota
	DivideAndQuery
	BottomUp
	WeightedDivideAndQuery
)

func (s Strategy) String() string {
	switch s {
	case DivideAndQuery:
		return "divide-and-query"
	case BottomUp:
		return "bottom-up"
	case WeightedDivideAndQuery:
		return "weighted-dq"
	}
	return "top-down"
}

// ParseStrategy maps the CLI/wire spellings (and their aliases) onto
// strategies; it reports whether the input was recognized. The empty
// string is the default traversal, top-down.
func ParseStrategy(s string) (Strategy, bool) {
	switch s {
	case "", "top-down":
		return TopDown, true
	case "divide", "divide-and-query":
		return DivideAndQuery, true
	case "weighted", "weighted-divide", "weighted-dq", "weighted-divide-and-query":
		return WeightedDivideAndQuery, true
	case "bottom-up":
		return BottomUp, true
	}
	return TopDown, false
}

// Strategies lists every traversal in report order.
func Strategies() []Strategy {
	return []Strategy{TopDown, DivideAndQuery, WeightedDivideAndQuery, BottomUp}
}

// TestLookup is the debugging-phase interface to the category-partition
// test database (Section 5.3.2). Implemented by package tgen.
type TestLookup interface {
	// Judge classifies the call and consults the test reports: Correct
	// when a matching frame has a passing report, Incorrect when the
	// matching frame's report failed, DontKnow otherwise.
	Judge(n *exectree.Node) Verdict
}

// Options configures a debugging session.
type Options struct {
	Strategy Strategy

	// Assertions, when non-nil, is consulted before the test database
	// and the oracle; assertions given by the oracle during the session
	// are added to it.
	Assertions *assertion.DB

	// Tests, when non-nil, is consulted before the oracle.
	Tests TestLookup

	// Slicing enables execution-tree pruning on "error on output X"
	// answers. Requires Deps.
	Slicing bool
	Deps    *dynamic.Deps

	// Meta, when non-nil, improves query rendering for transformed
	// programs (logical parameter modes, loop-unit presentation,
	// exit-condition decoding).
	Meta *transform.Result

	// MaxQuestions bounds user interactions (0 = 10000).
	MaxQuestions int

	// Hints maps unit names to static suspiciousness scores (package
	// lint's Hints aggregation: routines carrying dataflow anomalies
	// score higher). Traversals ask about higher-scored units first —
	// top-down and bottom-up reorder sibling visits, divide-and-query
	// breaks weight ties toward the suspicious node. Hints only reorder
	// questions; the verdicts still decide where the bug is localized.
	Hints map[string]float64

	// Metrics, when non-nil, receives the session's observability
	// counters: debugger.oracle.queries (plus the labeled
	// debugger.oracle.queries.verdict{verdict=...} and
	// debugger.oracle.queries.strategy{strategy=...} breakdowns),
	// debugger.answers.{memo,assertions,tests}, debugger.slices,
	// debugger.slice.errors, the debugger.slice.kept.nodes gauge, and the
	// sessions.active gauge.
	Metrics *obs.Registry

	// NoRootAssumption disables the premise that the program block
	// itself misbehaved. By default the root is assumed incorrect (the
	// user invoked the debugger because of an observable symptom), so
	// when every child of the program block is judged correct the bug is
	// localized in the main program body — the paper's answer to the
	// misnamed-argument question in Section 5.3.3. With the assumption
	// disabled such a search ends inconclusive instead.
	NoRootAssumption bool
}

// EventKind classifies transcript entries.
type EventKind int

const (
	EvQuestion   EventKind = iota // answered by the oracle (a user interaction)
	EvMemo                        // answered from remembered answers
	EvAssertion                   // answered by the assertion database
	EvTest                        // answered by the test-case lookup
	EvSlice                       // tree sliced on a flagged output
	EvSliceError                  // slice on a flagged output failed; the view is kept
	EvLocalized                   // bug localized
)

func (k EventKind) String() string {
	switch k {
	case EvMemo:
		return "memo"
	case EvAssertion:
		return "assertion"
	case EvTest:
		return "test-db"
	case EvSlice:
		return "slice"
	case EvSliceError:
		return "slice-error"
	case EvLocalized:
		return "localized"
	}
	return "question"
}

// Event is one transcript entry.
type Event struct {
	Kind    EventKind
	Node    *exectree.Node
	Text    string
	Verdict Verdict
	Detail  string
}

// Outcome is the result of a session.
type Outcome struct {
	// Bug is the unit invocation the error was localized in; nil when
	// the search was inconclusive (e.g. everything judged correct).
	Bug *exectree.Node
	// Reason explains the localization.
	Reason string

	// Interaction statistics.
	Questions    int // oracle interactions
	ByMemo       int
	ByAssertions int
	ByTests      int
	Slices       int

	Transcript []Event
}

// Localized reports whether a bug was found.
func (o *Outcome) Localized() bool { return o.Bug != nil }

// Session is one debugging run over an execution tree.
type Session struct {
	Tree   *exectree.Tree
	Oracle Oracle
	Opts   Options

	view *dynamic.TreeSlice // intersection of the slices so far; nil = full tree
	memo map[string]Answer
	out  *Outcome

	// Instrument handles resolved once at session start so judge — the
	// per-question hot path — never takes the registry lookup lock.
	mQueries    *obs.Counter
	mByVerdict  *obs.CounterVec
	mByStrategy *obs.Counter
	mMemo       *obs.Counter
	mAssertions *obs.Counter
	mTests      *obs.Counter
}

// New prepares a session.
func New(tree *exectree.Tree, oracle Oracle, opts Options) *Session {
	if opts.MaxQuestions <= 0 {
		opts.MaxQuestions = 10000
	}
	m := opts.Metrics
	return &Session{
		Tree:   tree,
		Oracle: oracle,
		Opts:   opts,
		memo:   make(map[string]Answer),
		out:    &Outcome{},

		mQueries:    m.Counter("debugger.oracle.queries"),
		mByVerdict:  m.CounterVec("debugger.oracle.queries.verdict", "verdict"),
		mByStrategy: m.CounterVec("debugger.oracle.queries.strategy", "strategy").With(opts.Strategy.String()),
		mMemo:       m.Counter("debugger.answers.memo"),
		mAssertions: m.Counter("debugger.answers.assertions"),
		mTests:      m.Counter("debugger.answers.tests"),
	}
}

// kept reports whether n survives the current view.
func (s *Session) kept(n *exectree.Node) bool {
	return s.view == nil || s.view.Keep(n)
}

// children returns n's children retained by the current view, most
// suspicious first when hints are present (stable otherwise: execution
// order).
func (s *Session) children(n *exectree.Node) []*exectree.Node {
	var out []*exectree.Node
	for _, c := range n.Children {
		if s.kept(c) {
			out = append(out, c)
		}
	}
	if len(s.Opts.Hints) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			return s.hintOf(out[i]) > s.hintOf(out[j])
		})
	}
	return out
}

// hintOf returns the static suspiciousness of n's unit. Loop units
// inherit the score of the routine their loop was extracted from.
func (s *Session) hintOf(n *exectree.Node) float64 {
	if h, ok := s.Opts.Hints[n.Unit.Name]; ok {
		return h
	}
	if s.Opts.Meta != nil {
		if u, ok := s.Opts.Meta.Units[n.Unit.Name]; ok && u.Kind == transform.LoopUnit {
			return s.Opts.Hints[u.RoutineName]
		}
	}
	return 0
}

// subtreeSize counts retained nodes in n's subtree (including n).
func (s *Session) subtreeSize(n *exectree.Node) int {
	if !s.kept(n) {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += s.subtreeSize(c)
	}
	return total
}

func (s *Session) record(ev Event) {
	s.out.Transcript = append(s.out.Transcript, ev)
}

// judge determines the verdict for a node, consulting (in order)
// remembered answers, the assertion database, the test-case lookup, and
// finally the oracle. Section 5.3.1: "Before interacting with the user,
// the pure algorithmic debugger checks with two existing sources of
// information."
func (s *Session) judge(n *exectree.Node) (Answer, error) {
	q := s.query(n)
	if a, ok := s.memo[q.Text]; ok {
		s.out.ByMemo++
		s.mMemo.Inc()
		s.record(Event{Kind: EvMemo, Node: n, Text: q.Text, Verdict: a.Verdict})
		return a, nil
	}
	if db := s.Opts.Assertions; db != nil {
		switch db.Judge(n) {
		case assertion.Holds:
			a := Answer{Verdict: Correct}
			s.memo[q.Text] = a
			s.out.ByAssertions++
			s.mAssertions.Inc()
			s.record(Event{Kind: EvAssertion, Node: n, Text: q.Text, Verdict: Correct})
			return a, nil
		case assertion.Violated:
			a := Answer{Verdict: Incorrect}
			s.memo[q.Text] = a
			s.out.ByAssertions++
			s.mAssertions.Inc()
			s.record(Event{Kind: EvAssertion, Node: n, Text: q.Text, Verdict: Incorrect})
			return a, nil
		}
	}
	if tl := s.Opts.Tests; tl != nil {
		switch tl.Judge(n) {
		case Correct:
			a := Answer{Verdict: Correct}
			s.memo[q.Text] = a
			s.out.ByTests++
			s.mTests.Inc()
			s.record(Event{Kind: EvTest, Node: n, Text: q.Text, Verdict: Correct})
			return a, nil
		case Incorrect:
			a := Answer{Verdict: Incorrect}
			s.memo[q.Text] = a
			s.out.ByTests++
			s.mTests.Inc()
			s.record(Event{Kind: EvTest, Node: n, Text: q.Text, Verdict: Incorrect})
			return a, nil
		}
	}
	if s.out.Questions >= s.Opts.MaxQuestions {
		return Answer{Verdict: DontKnow}, fmt.Errorf("debugger: question budget (%d) exhausted", s.Opts.MaxQuestions)
	}
	a, err := s.Oracle.Ask(q)
	if err != nil {
		return a, err
	}
	s.out.Questions++
	// An assertion given as the answer is stored and evaluated now. The
	// engine owns the insertion — every oracle (interactive, scripted,
	// HTTP, journal replay) funnels through here, and the DB de-dups, so
	// an oracle that also writes to the same DB is harmless.
	if a.Assertion != nil {
		if s.Opts.Assertions == nil {
			s.Opts.Assertions = assertion.NewDB()
		}
		s.Opts.Assertions.Add(a.Assertion)
		switch a.Assertion.Eval(assertion.EnvFor(n)) {
		case assertion.Holds:
			a.Verdict = Correct
		case assertion.Violated:
			a.Verdict = Incorrect
		}
	}
	s.memo[q.Text] = a
	s.mQueries.Inc()
	s.mByVerdict.With(a.Verdict.Key()).Inc()
	s.mByStrategy.Inc()
	detail := ""
	if a.WrongOutput != "" {
		detail = "error on output " + a.WrongOutput
	}
	s.record(Event{Kind: EvQuestion, Node: n, Text: q.Text, Verdict: a.Verdict, Detail: detail})
	return a, nil
}

// applySlice prunes the view to the dynamic slice on (n, output); it
// reports whether the view actually changed (so divide-and-query knows
// to rebuild its weight memo).
func (s *Session) applySlice(n *exectree.Node, output string) bool {
	if !s.Opts.Slicing || s.Opts.Deps == nil || output == "" {
		return false
	}
	sl, err := s.Opts.Deps.SliceOnOutput(s.Tree, n, output)
	if err != nil {
		// Conservatively keep the full view.
		s.Opts.Metrics.Counter("debugger.slice.errors").Inc()
		s.record(Event{
			Kind: EvSliceError, Node: n,
			Text:   fmt.Sprintf("slice on output %s of %s", output, s.renderUnitName(n)),
			Detail: err.Error(),
		})
		return false
	}
	if s.view == nil {
		s.view = sl
	} else {
		s.view = dynamic.Intersect(s.view, sl)
	}
	s.out.Slices++
	s.Opts.Metrics.Counter("debugger.slices").Inc()
	s.Opts.Metrics.Gauge("debugger.slice.kept.nodes").Set(int64(s.view.Size()))
	before := s.Tree.Size()
	s.record(Event{
		Kind: EvSlice, Node: n,
		Text:   fmt.Sprintf("slice on output %s of %s", output, s.renderUnitName(n)),
		Detail: fmt.Sprintf("execution tree pruned to %d of %d nodes", s.view.Size(), before),
	})
	return true
}

// Run performs the search and returns the outcome. The program-block
// root is assumed incorrect (the user invoked the debugger because of an
// observable symptom).
func (s *Session) Run() (*Outcome, error) {
	s.Opts.Metrics.Counter("debugger.sessions").Inc()
	active := s.Opts.Metrics.Gauge("sessions.active")
	active.Add(1)
	defer active.Add(-1)
	var bug *exectree.Node
	var err error
	switch s.Opts.Strategy {
	case DivideAndQuery:
		bug, err = s.runDivideAndQuery(false)
	case WeightedDivideAndQuery:
		bug, err = s.runDivideAndQuery(true)
	case BottomUp:
		bug, err = s.runBottomUp()
	default:
		bug, err = s.runTopDown()
	}
	if err != nil {
		return s.out, err
	}
	s.out.Bug = bug
	if bug != nil {
		s.out.Reason = fmt.Sprintf("an error has been localized inside the body of %s", s.renderUnitName(bug))
		s.record(Event{Kind: EvLocalized, Node: bug, Text: s.out.Reason})
		s.Opts.Metrics.Counter("debugger.localized").Inc()
	}
	return s.out, nil
}

// runTopDown is the paper's traversal: descend into the first incorrect
// child; when no retained child is incorrect, the current unit is buggy.
func (s *Session) runTopDown() (*exectree.Node, error) {
	current := s.Tree.Root
	if current == nil {
		return nil, fmt.Errorf("debugger: empty execution tree")
	}
	for {
		descended := false
		for _, c := range s.children(current) {
			a, err := s.judge(c)
			if err != nil {
				return nil, err
			}
			if a.Verdict != Incorrect {
				continue
			}
			if a.WrongOutput != "" {
				s.applySlice(c, a.WrongOutput)
			}
			current = c
			descended = true
			break
		}
		if !descended {
			if current.IsRoot() && len(s.children(current)) == 0 {
				return nil, fmt.Errorf("debugger: nothing to search (empty view)")
			}
			if current.IsRoot() && s.Opts.NoRootAssumption {
				// Every child of the program block was judged correct
				// and the symptom premise is disabled: inconclusive.
				return nil, nil
			}
			return current, nil
		}
	}
}

// dqState is the incremental suspect-region bookkeeping shared by the
// two divide-and-query variants. Subtree weights are memoized once per
// view and patched along the ancestor path when a Correct verdict
// removes a subtree — O(depth) per verdict and one O(region) scan per
// selection, replacing the old full weight recomputation per candidate
// per question (quadratic in the region size).
type dqState struct {
	s        *Session
	weighted bool
	suspect  *exectree.Node
	w        map[*exectree.Node]int64 // retained, uncut subtree weight
	cut      map[*exectree.Node]bool  // roots of correct-judged subtrees
	unq      map[*exectree.Node]bool  // don't-know nodes: still suspect, never re-asked
}

func newDQState(s *Session, weighted bool) *dqState {
	d := &dqState{
		s:        s,
		weighted: weighted,
		suspect:  s.Tree.Root,
		cut:      make(map[*exectree.Node]bool),
		unq:      make(map[*exectree.Node]bool),
	}
	d.rebuild()
	return d
}

// indiv is the node's own weight: 1 for plain divide-and-query; for the
// weighted variant the invocation's recorded execution cost (1 + direct
// statement count).
func (d *dqState) indiv(n *exectree.Node) int64 {
	if !d.weighted {
		return 1
	}
	return 1 + n.Steps
}

// rebuild recomputes every memoized subtree weight (at session start,
// and whenever a slice changes the view under the memo).
func (d *dqState) rebuild() {
	d.w = make(map[*exectree.Node]int64, len(d.s.Tree.Nodes))
	var rec func(n *exectree.Node) int64
	rec = func(n *exectree.Node) int64 {
		if !d.s.kept(n) || d.cut[n] {
			return 0
		}
		w := d.indiv(n)
		for _, c := range n.Children {
			w += rec(c)
		}
		d.w[n] = w
		return w
	}
	rec(d.s.Tree.Root)
}

// remove cuts a correct-judged subtree out of the suspect region,
// patching the memoized weights on the ancestor path.
func (d *dqState) remove(n *exectree.Node) {
	delta := d.w[n]
	d.cut[n] = true
	for p := n; p != nil; p = p.Parent {
		d.w[p] -= delta
	}
}

// residue is the suspect-region weight strictly below the suspect node.
// Once no queryable candidate remains, a nonzero residue is exactly the
// weight of surviving don't-know subtrees.
func (d *dqState) residue() int64 {
	var below int64
	for _, c := range d.suspect.Children {
		below += d.w[c]
	}
	return below
}

// selectQuery scans the suspect region for the next node to ask: the
// proper descendant whose retained subtree weight best bisects the
// remaining suspect weight W. Plain divide-and-query keeps Shapiro's
// rule (weight closest to half the candidate weight); the weighted
// variant uses the Insa–Silva rule, minimizing the worst-case remaining
// weight max(w(n), W−w(n)). Don't-know nodes are never candidates again
// but their subtrees stay in the scan — the bug may still be inside.
// Ties break toward the unit a static anomaly hint marks as suspicious,
// then (weighted only) toward the heavier subtree, then pre-order.
func (d *dqState) selectQuery() *exectree.Node {
	W := d.w[d.suspect]
	var target int64
	if !d.weighted {
		below := W - 1
		target = (below + 1) / 2
	}
	var best *exectree.Node
	bestScore := int64(1) << 62
	var scan func(n *exectree.Node)
	scan = func(n *exectree.Node) {
		if !d.s.kept(n) || d.cut[n] {
			return
		}
		if n != d.suspect && !d.unq[n] {
			var score int64
			if d.weighted {
				if down, up := d.w[n], W-d.w[n]; down > up {
					score = down
				} else {
					score = up
				}
			} else {
				score = d.w[n] - target
				if score < 0 {
					score = -score
				}
			}
			better := score < bestScore
			if !better && score == bestScore && best != nil {
				hn, hb := d.s.hintOf(n), d.s.hintOf(best)
				better = hn > hb || (hn == hb && d.weighted && d.w[n] > d.w[best])
			}
			if better {
				bestScore = score
				best = n
			}
		}
		for _, c := range n.Children {
			scan(c)
		}
	}
	scan(d.suspect)
	return best
}

// runDivideAndQuery implements Shapiro's divide-and-query (weighted =
// false) and the Insa–Silva weighted refinement (weighted = true):
// repeatedly ask the descendant that best bisects the suspect region's
// weight. Don't-know answers are handled soundly: the node's subtree
// stays in the suspect set (only the node itself becomes unqueryable),
// so a session whose region cannot be narrowed past unanswered nodes
// ends inconclusive instead of blaming the suspect.
func (s *Session) runDivideAndQuery(weighted bool) (*exectree.Node, error) {
	if s.Tree.Root == nil {
		return nil, fmt.Errorf("debugger: empty execution tree")
	}
	d := newDQState(s, weighted)
	for {
		best := d.selectQuery()
		if best == nil {
			if d.residue() > 0 {
				// Don't-know subtrees survive in the region: the bug may
				// be in any of their bodies, so pinning the suspect would
				// be unsound. Inconclusive.
				return nil, nil
			}
			if d.suspect.IsRoot() && s.Opts.NoRootAssumption {
				return nil, nil
			}
			return d.suspect, nil
		}
		a, err := s.judge(best)
		if err != nil {
			return nil, err
		}
		switch a.Verdict {
		case Incorrect:
			if a.WrongOutput != "" && s.applySlice(best, a.WrongOutput) {
				d.rebuild()
			}
			d.suspect = best
		case Correct:
			d.remove(best)
		default: // DontKnow: still suspect, just not askable again.
			d.unq[best] = true
		}
	}
}

// runBottomUp asks in post-order: the first incorrect node all of whose
// retained children were judged correct is the bug.
func (s *Session) runBottomUp() (*exectree.Node, error) {
	var bug *exectree.Node
	var walk func(n *exectree.Node) (allCorrect bool, err error)
	walk = func(n *exectree.Node) (bool, error) {
		childrenCorrect := true
		for _, c := range s.children(n) {
			if bug != nil {
				return false, nil
			}
			ok, err := walk(c)
			if err != nil {
				return false, err
			}
			if !ok {
				childrenCorrect = false
			}
		}
		if bug != nil {
			return false, nil
		}
		if n.IsRoot() {
			return false, nil
		}
		a, err := s.judge(n)
		if err != nil {
			return false, err
		}
		if a.Verdict == Incorrect {
			if a.WrongOutput != "" {
				s.applySlice(n, a.WrongOutput)
			}
			if childrenCorrect {
				bug = n
			}
			return false, nil
		}
		return true, nil
	}
	if s.Tree.Root == nil {
		return nil, fmt.Errorf("debugger: empty execution tree")
	}
	if _, err := walk(s.Tree.Root); err != nil {
		return nil, err
	}
	if bug == nil && !s.Opts.NoRootAssumption {
		// No unit below the program block misbehaved; under the symptom
		// premise the error is in the main program body itself.
		bug = s.Tree.Root
	}
	return bug, nil
}

// ---------------------------------------------------------------------------
// Query rendering

// query renders the question for a node, using transformation metadata
// when available (Section 6.1: the user sees original constructs).
func (s *Session) query(n *exectree.Node) *Query {
	modes := s.displayModes(n)
	var parts []string
	for _, b := range n.Ins {
		mode := b.Mode
		if m, ok := modes[b.Name]; ok {
			mode = m
		}
		if mode == ast.Value {
			parts = append(parts, fmt.Sprintf("In %s: %s", b.Name, formatVal(b.Value)))
		}
	}
	for _, b := range n.Outs {
		if s.isExitCond(n, b.Name) {
			parts = append(parts, "Exit: "+s.exitDescription(b))
			continue
		}
		// Globals passed by reference only for alias safety are
		// logically inputs; suppress their exit value.
		if m, ok := modes[b.Name]; ok && m == ast.Value {
			continue
		}
		parts = append(parts, fmt.Sprintf("Out %s: %s", b.Name, formatVal(b.Value)))
	}
	text := s.renderUnitName(n)
	if len(parts) > 0 {
		text += "(" + strings.Join(parts, ", ") + ")"
	}
	if n.Unit.Kind == ast.FuncKind {
		text += " = " + formatVal(n.Result)
	}
	text += "?"
	return &Query{Node: n, Text: text, Outputs: n.OutputNames()}
}

func formatVal(v interp.Value) string {
	return interp.FormatValue(v)
}

// renderUnitName presents loop units as their original loop construct.
func (s *Session) renderUnitName(n *exectree.Node) string {
	if s.Opts.Meta == nil {
		return n.Unit.Name
	}
	u, ok := s.Opts.Meta.Units[n.Unit.Name]
	if !ok || u.Kind != transform.LoopUnit {
		return n.Unit.Name
	}
	kind := "loop"
	switch u.Loop.(type) {
	case *ast.ForStmt:
		kind = "for-loop"
	case *ast.WhileStmt:
		kind = "while-loop"
	case *ast.RepeatStmt:
		kind = "repeat-loop"
	}
	// Count which iteration this is: 1 + number of loop-unit ancestors
	// of the same unit.
	iter := 1
	for p := n.Parent; p != nil && p.Unit == n.Unit; p = p.Parent {
		iter++
	}
	pos := ""
	if u.Loop != nil && u.Loop.Pos().IsValid() {
		pos = fmt.Sprintf(" at %s", u.Loop.Pos())
	}
	return fmt.Sprintf("%s in %s%s, iteration %d", kind, u.RoutineName, pos, iter)
}

// displayModes returns logical parameter modes from the transformation
// metadata (globals passed by reference for alias reasons still display
// as `in`).
func (s *Session) displayModes(n *exectree.Node) map[string]ast.ParamMode {
	if s.Opts.Meta == nil {
		return nil
	}
	added := s.Opts.Meta.Added[n.Unit.Name]
	if len(added) == 0 {
		return nil
	}
	m := make(map[string]ast.ParamMode, len(added))
	for _, a := range added {
		m[a.Name] = a.Display
	}
	return m
}

// isExitCond reports whether the named output is the unit's synthetic
// exit-condition parameter.
func (s *Session) isExitCond(n *exectree.Node, name string) bool {
	if s.Opts.Meta == nil {
		return false
	}
	for _, a := range s.Opts.Meta.Added[n.Unit.Name] {
		if a.Name == name && a.ExitCond {
			return true
		}
	}
	return false
}

// exitDescription decodes an exit-condition value ("none" or the target
// label), per Section 6.1: "the non-local goto is treated as one of the
// results from the procedure call".
func (s *Session) exitDescription(b interp.Binding) string {
	code, ok := b.Value.AsInt()
	if !ok || code == 0 {
		return "none"
	}
	if s.Opts.Meta != nil {
		if desc, ok := s.Opts.Meta.EscapeCodes[int(code)]; ok {
			return "goto " + desc
		}
	}
	return fmt.Sprintf("code %d", code)
}
