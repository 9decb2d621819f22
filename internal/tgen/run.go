package tgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/sem"
)

// Report is the stored outcome of executing one test case (the paper's
// test report, accessed "by using a coded form of the test frames").
type Report struct {
	Frame   string            `json:"frame"` // coded frame, e.g. arrsum:more/mixed/large
	Pass    bool              `json:"pass"`
	Scripts []string          `json:"scripts,omitempty"`
	Inputs  map[string]string `json:"inputs,omitempty"`
	Outputs map[string]string `json:"outputs,omitempty"`
	Ran     string            `json:"ran,omitempty"` // timestamp, informational
	Note    string            `json:"note,omitempty"`
}

// ReportDB is the test-report database for one unit.
type ReportDB struct {
	Unit    string             `json:"unit"`
	Reports map[string]*Report `json:"reports"` // keyed by frame code
}

// NewReportDB returns an empty database.
func NewReportDB(unit string) *ReportDB {
	return &ReportDB{Unit: unit, Reports: make(map[string]*Report)}
}

// Add stores a report (last writer wins per frame).
func (db *ReportDB) Add(r *Report) { db.Reports[r.Frame] = r }

// Lookup finds the report for a frame code.
func (db *ReportDB) Lookup(code string) *Report { return db.Reports[code] }

// PassCount returns how many stored reports passed.
func (db *ReportDB) PassCount() (pass, total int) {
	for _, r := range db.Reports {
		total++
		if r.Pass {
			pass++
		}
	}
	return pass, total
}

// Save writes the database as JSON.
func (db *ReportDB) Save(path string) error {
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return fmt.Errorf("tgen: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadReportDB reads a JSON database.
func LoadReportDB(path string) (*ReportDB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tgen: %w", err)
	}
	var db ReportDB
	if err := json.Unmarshal(data, &db); err != nil {
		return nil, fmt.Errorf("tgen: %s: %w", path, err)
	}
	if db.Reports == nil {
		db.Reports = make(map[string]*Report)
	}
	return &db, nil
}

// ---------------------------------------------------------------------------
// Test-case generation and execution

// CaseGenerator produces concrete argument values exercising a frame
// (the paper's executable test cases, generated from the declarations
// and statements attached to the specification). Returning ok=false
// marks the frame as not executable (superfluous frame).
type CaseGenerator func(f *Frame) (args []interp.Value, ok bool)

// Checker decides whether the observed call outcome is correct. The
// usual implementation compares against a reference implementation or
// closed-form expectation.
type Checker func(f *Frame, ci *interp.CallInfo) bool

// Runner executes generated test cases for one unit of a program.
type Runner struct {
	Info *sem.Info
	Spec *Spec
	Gen  CaseGenerator
	Chk  Checker
	// MaxSteps bounds each case (default 1e6).
	MaxSteps int
	// Clock stamps reports; nil uses time.Now.
	Clock func() time.Time
}

// RunAll executes one test case per generated frame and returns the
// report database.
func (r *Runner) RunAll() (*ReportDB, error) {
	target := r.Info.LookupRoutine(r.Spec.Unit)
	if target == nil {
		return nil, fmt.Errorf("tgen: unit %s not found in program", r.Spec.Unit)
	}
	db := NewReportDB(r.Spec.Unit)
	steps := r.MaxSteps
	if steps <= 0 {
		steps = 1_000_000
	}
	for _, f := range r.Spec.Generate() {
		args, ok := r.Gen(f)
		if !ok {
			continue
		}
		rep := &Report{Frame: f.Code(), Scripts: f.Scripts, Inputs: map[string]string{}, Outputs: map[string]string{}}
		if r.Clock != nil {
			rep.Ran = r.Clock().UTC().Format(time.RFC3339)
		}
		it := interp.New(r.Info, interp.Config{MaxSteps: steps})
		ci, err := it.CallUnit(target, args)
		if err != nil {
			rep.Pass = false
			rep.Note = "runtime error: " + err.Error()
		} else {
			for _, b := range ci.Ins {
				rep.Inputs[b.Name] = interp.FormatValue(b.Value)
			}
			for _, b := range ci.Outs {
				rep.Outputs[b.Name] = interp.FormatValue(b.Value)
			}
			if !ci.Result.IsUndef() {
				rep.Outputs["result"] = interp.FormatValue(ci.Result)
			}
			rep.Pass = r.Chk(f, ci)
		}
		db.Add(rep)
	}
	return db, nil
}

// ---------------------------------------------------------------------------
// Debugger integration (Section 5.3.2)

// Lookup adapts a specification plus report database to the debugger's
// test-case lookup: a query about a unit call is answered Correct when
// the call classifies into a frame with a passing report, Incorrect when
// the frame's report failed, and DontKnow when classification fails or
// no report exists (the debugger then asks the user).
type Lookup struct {
	Spec     *Spec
	DB       *ReportDB
	Features Features
	// Stats
	Hits, Misses int
}

var _ debugger.TestLookup = (*Lookup)(nil)

// Judge implements debugger.TestLookup.
func (l *Lookup) Judge(n *exectree.Node) debugger.Verdict {
	if l.Spec == nil || l.DB == nil || n.Unit.Name != l.Spec.Unit {
		return debugger.DontKnow
	}
	f, err := l.Spec.Classify(n.Ins, l.Features)
	if err != nil {
		l.Misses++
		return debugger.DontKnow
	}
	rep := l.DB.Lookup(f.Code())
	if rep == nil {
		l.Misses++
		return debugger.DontKnow
	}
	l.Hits++
	if rep.Pass {
		return debugger.Correct
	}
	return debugger.Incorrect
}

// Chooser selects a choice per category when automatic classification
// fails — the paper's menu-based frame selection ("the user can select
// the suitable choices from a menu", Section 5.3.2). Returning nil skips
// the menu (no frame selected).
type Chooser interface {
	Choose(unit string, category *Category, eligible []*Choice, ins []interp.Binding) *Choice
}

// ChooserFunc adapts a function to the Chooser interface.
type ChooserFunc func(unit string, category *Category, eligible []*Choice, ins []interp.Binding) *Choice

// Choose implements Chooser.
func (f ChooserFunc) Choose(unit string, c *Category, el []*Choice, ins []interp.Binding) *Choice {
	return f(unit, c, el, ins)
}

// MenuLookup extends Lookup with menu-based frame selection: when the
// match expressions cannot classify a call, the Chooser is consulted
// category by category (only selector-eligible choices are offered).
// Menu selections are user interactions, counted separately from
// fully-automatic hits.
type MenuLookup struct {
	Lookup
	Chooser Chooser
	// MenuInteractions counts categories resolved through the menu.
	MenuInteractions int
}

var _ debugger.TestLookup = (*MenuLookup)(nil)

// Judge implements debugger.TestLookup.
func (m *MenuLookup) Judge(n *exectree.Node) debugger.Verdict {
	if v := m.Lookup.Judge(n); v != debugger.DontKnow {
		return v
	}
	if m.Chooser == nil || m.Spec == nil || m.DB == nil || n.Unit.Name != m.Spec.Unit {
		return debugger.DontKnow
	}
	// Build the frame via the menu.
	props := map[string]bool{}
	var picked []*Choice
	for _, cat := range m.Spec.Categories {
		var eligible []*Choice
		for _, ch := range cat.Choices {
			if selectorHolds(m.Spec, ch.Selector, props) {
				eligible = append(eligible, ch)
			}
		}
		if len(eligible) == 0 {
			return debugger.DontKnow
		}
		chosen := m.Chooser.Choose(m.Spec.Unit, cat, eligible, n.Ins)
		if chosen == nil {
			return debugger.DontKnow
		}
		m.MenuInteractions++
		picked = append(picked, chosen)
		for _, p := range chosen.Properties {
			props[p] = true
		}
	}
	f := &Frame{Unit: m.Spec.Unit, Choices: picked, Props: props}
	rep := m.DB.Lookup(f.Code())
	if rep == nil {
		m.Misses++
		return debugger.DontKnow
	}
	m.Hits++
	if rep.Pass {
		return debugger.Correct
	}
	return debugger.Incorrect
}

// FramesByScript groups generated frames per script name, mirroring the
// paper's observation that script_1 contains (more, mixed, large) and
// (more, mixed, average).
func FramesByScript(frames []*Frame) map[string][]*Frame {
	out := make(map[string][]*Frame)
	for _, f := range frames {
		for _, s := range f.Scripts {
			out[s] = append(out[s], f)
		}
	}
	for _, fs := range out {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Code() < fs[j].Code() })
	}
	return out
}
