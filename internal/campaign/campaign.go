// Package campaign runs parallel mutation campaigns: every mutant of
// every subject program is pushed through the full GADT pipeline —
// transform, trace, algorithmic debugging — against an automated
// reference oracle (the unmutated program re-executed per query), with
// zero human interaction. The campaign scores each mutant
// (killed / survived / timeout), and for killed mutants whether each
// traversal strategy localizes the fault back to the unit the mutation
// was injected into and how many oracle queries it spends. The
// aggregate report is the repo's standing fault-injection evaluation of
// the paper's central claim.
package campaign

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"gadt/internal/assertion"
	"gadt/internal/corpus"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/mutate"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pool"
	"gadt/internal/tgen"
)

// Subject is one base program to mutate. Its own (unmutated) execution
// defines the expected output and acts as the reference oracle.
type Subject struct {
	Name   string
	Source string
	Input  string
}

// DefaultSubjects returns the standing subject set: the paper's worked
// example, then corpus.Subjects (every corpus program and a spread of
// progen shapes).
func DefaultSubjects() []Subject {
	subs := []Subject{{Name: "sqrtest", Source: paper.SqrtestFixed}}
	for _, p := range corpus.Subjects() {
		subs = append(subs, Subject{Name: p.Name, Source: p.Source, Input: p.Input})
	}
	return subs
}

// Mutant status values.
const (
	StatusKilled     = "killed"     // output diverged or the mutant crashed
	StatusSurvived   = "survived"   // identical output (not provably equivalent)
	StatusTimeout    = "timeout"    // fuel or wall-clock exhausted (possibly equivalent)
	StatusStillborn  = "stillborn"  // transformation/analysis of the mutant failed
	StatusPanic      = "panic"      // pipeline panicked (isolated to the mutant)
	StatusEquivalent = "equivalent" // static triage proved the mutant behaviour-preserving
)

// Config shapes a campaign run.
type Config struct {
	// Subjects to mutate (nil = DefaultSubjects).
	Subjects []Subject
	// Ops restricts the mutation operators (nil = all).
	Ops []mutate.Op
	// Seed drives mutant sampling; same seed, same campaign.
	Seed int64
	// Budget caps the total number of mutants across all subjects
	// (0 = every enumerated mutant).
	Budget int
	// Workers sizes the pool (<= 0 = GOMAXPROCS).
	Workers int
	// Strategies to evaluate per killed mutant (nil = all four).
	Strategies []debugger.Strategy
	// NoHarvest disables the assertion/test-database harvest: by default
	// every subject's reference run is harvested into an exact-call test
	// database plus generalized assertions, and debugging sessions
	// consult both before asking the oracle (the answers surface in the
	// per-strategy by_assertions / by_tests tallies).
	NoHarvest bool
	// Fuel is the per-execution statement budget (0 = 60000); mutants
	// that exhaust it are classified timeout, not hung.
	Fuel int
	// MaxDepth is the per-execution call-depth budget (0 = 1000).
	MaxDepth int
	// Timeout is the per-mutant wall-clock backstop (0 = 20s).
	Timeout time.Duration
	// MaxTreeNodes skips debugging of mutants whose execution tree grew
	// past this size (0 = 4000): even with the incremental selector a
	// pathological mutant's tree must not sink the campaign.
	MaxTreeNodes int
	// MaxQuestions bounds oracle queries per debugging session (0 = 2000).
	MaxQuestions int
	// Metrics, when non-nil, receives campaign.* counters, the live
	// campaign.inflight/campaign.done gauges, and the labeled
	// campaign.outcomes{status=...} series.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per mutant evaluation on a
	// per-worker lane (one Perfetto track per pool worker).
	Tracer *obs.Tracer
	// Progress, when non-nil, receives the pool's periodic progress
	// lines (throughput, ETA, killed/survived so far) during the run.
	Progress io.Writer
	// Logf, when non-nil, receives one progress line per subject.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Subjects == nil {
		out.Subjects = DefaultSubjects()
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Strategies == nil {
		out.Strategies = debugger.Strategies()
	}
	if out.Fuel <= 0 {
		out.Fuel = 60_000
	}
	if out.MaxDepth <= 0 {
		out.MaxDepth = 1000
	}
	if out.Timeout <= 0 {
		out.Timeout = 20 * time.Second
	}
	if out.MaxTreeNodes <= 0 {
		out.MaxTreeNodes = 4000
	}
	if out.MaxQuestions <= 0 {
		out.MaxQuestions = 2000
	}
	return out
}

// StrategyScore is one debugging session over one killed mutant.
type StrategyScore struct {
	Strategy  string `json:"strategy"`
	Questions int    `json:"questions"`
	// Localized is the original-program unit the session blamed
	// (loop units are mapped back to their routine), "" when
	// inconclusive.
	Localized string `json:"localized,omitempty"`
	// Correct reports Localized == the unit the fault was injected in.
	Correct bool `json:"correct"`
	// ByAssertions and ByTests count queries the session answered from
	// the harvested assertion DB / exact-call test database instead of
	// the oracle.
	ByAssertions int    `json:"by_assertions,omitempty"`
	ByTests      int    `json:"by_tests,omitempty"`
	Error        string `json:"error,omitempty"`
}

// MutantOutcome is the campaign verdict on one mutant.
type MutantOutcome struct {
	Subject     string          `json:"subject"`
	MutantID    int             `json:"mutant_id"`
	Op          string          `json:"op"`
	Unit        string          `json:"unit"`
	Description string          `json:"description"`
	Status      string          `json:"status"`
	Detail      string          `json:"detail,omitempty"`
	Strategies  []StrategyScore `json:"strategies,omitempty"`
	ElapsedMS   int64           `json:"elapsed_ms"`
}

type job struct {
	subject Subject
	want    string // reference output
	mutant  *mutate.Mutant
	en      *mutate.Enumeration // the subject's, which prints the mutant

	// Built once from the subject's reference run and shared by every
	// session over this subject's mutants: the oracle keeps no state
	// between questions, the CallDB locks, and the assertion DB is never
	// written after harvest (the reference oracle supplies no new
	// assertions).
	oracle  debugger.Oracle
	tests   *tgen.CallDB
	asserts *assertion.DB
}

// Run executes the campaign and returns the aggregated report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	jobs, preclassified, subjectErrs, enumerated, err := buildJobs(cfg)
	if err != nil {
		return nil, err
	}
	// The equivalent mutants never enter the pool; count them beside
	// the verdicts it counts.
	cfg.Metrics.CounterVec("campaign.outcomes", "status").With(StatusEquivalent).Add(int64(len(preclassified)))

	outcomes := make([]MutantOutcome, len(jobs))
	pool.Run(pool.Config{
		Name:     "campaign",
		Workers:  cfg.Workers,
		Tasks:    len(jobs),
		Show:     []string{StatusKilled, StatusSurvived},
		Metrics:  cfg.Metrics,
		Tracer:   cfg.Tracer,
		Progress: cfg.Progress,
	}, len(jobs), func(w *pool.Worker, i int) {
		j, o := jobs[i], &outcomes[i]
		attrs := []string{"subject", j.subject.Name, "mutant", strconv.Itoa(j.mutant.ID), "op", string(j.mutant.Op)}
		d := w.Task("mutant", attrs, func() string {
			*o = evalWithBackstop(cfg, j)
			return o.Status
		})
		o.ElapsedMS = d.Milliseconds()
	})
	outcomes = append(outcomes, preclassified...)
	sort.Slice(outcomes, func(i, j int) bool {
		if outcomes[i].Subject != outcomes[j].Subject {
			return outcomes[i].Subject < outcomes[j].Subject
		}
		return outcomes[i].MutantID < outcomes[j].MutantID
	})

	rep := aggregate(cfg, outcomes, enumerated, subjectErrs, time.Since(start))
	record(cfg.Metrics, rep)
	return rep, nil
}

// buildJobs enumerates mutants for every subject, triages the provably
// equivalent ones out of the execution pool, computes each subject's
// reference output and builds its one oracle, samples the remaining
// list down to Budget with the campaign seed, and prints the sampled
// mutants' sources. Equivalent mutants bypass the budget: their verdict
// is free, so they are always reported.
func buildJobs(cfg Config) (jobs []job, preclassified []MutantOutcome, subjectErrs []string, enumerated int, err error) {
	for _, s := range cfg.Subjects {
		ref, werr := referenceRun(s, cfg)
		if werr != nil {
			subjectErrs = append(subjectErrs, fmt.Sprintf("%s: %v", s.Name, werr))
			continue
		}
		want := ref.Output
		oracle, werr := ref.System.Oracle(cfg.Fuel)
		if werr != nil {
			subjectErrs = append(subjectErrs, fmt.Sprintf("%s: %v", s.Name, werr))
			continue
		}
		var tests *tgen.CallDB
		var asserts *assertion.DB
		if !cfg.NoHarvest {
			tests = tgen.NewCallDB().HarvestTree(ref.Tree)
			asserts = assertion.Generalize(ref.Tree.Nodes, assertion.GeneralizeOptions{})
			if asserts.Len() == 0 {
				asserts = nil
			}
		}
		en, merr := mutate.Enumerate(s.Name+".pas", s.Source, mutate.Config{Ops: cfg.Ops, Metrics: cfg.Metrics})
		if merr != nil {
			subjectErrs = append(subjectErrs, fmt.Sprintf("%s: %v", s.Name, merr))
			continue
		}
		equivalents := triage(en)
		enumerated += len(en.Mutants)
		if cfg.Logf != nil {
			cfg.Logf("subject %-28s %4d mutation sites, %d provably equivalent",
				s.Name, len(en.Mutants), equivalents)
		}
		for _, m := range en.Mutants {
			if m.Equivalent {
				o := MutantOutcome{
					Subject:     s.Name,
					MutantID:    m.ID,
					Op:          string(m.Op),
					Unit:        m.Unit,
					Description: m.Description,
					Status:      StatusEquivalent,
					Detail:      "static triage: " + m.EquivReason,
				}
				preclassified = append(preclassified, o)
				continue
			}
			jobs = append(jobs, job{subject: s, want: want, mutant: m, en: en, oracle: oracle, tests: tests, asserts: asserts})
		}
	}
	if len(jobs) == 0 && len(preclassified) == 0 {
		return nil, nil, subjectErrs, 0, errors.New("campaign: no mutants enumerated")
	}
	if cfg.Budget > 0 && len(jobs) > cfg.Budget {
		jobs = sample(jobs, cfg.Budget, cfg.Seed)
	}
	// Source edits the subject's shared program, so the sampled mutants
	// are printed here, one after another, before any worker starts.
	for _, j := range jobs {
		j.mutant.Source = j.en.Source(j.mutant)
	}
	return jobs, preclassified, subjectErrs, enumerated, nil
}

// triage classifies equivalent mutants with the value analysis of the
// original subject. It is advisory — a panic inside the analysis of an
// exotic subject must not sink the whole campaign, so it is isolated
// the same way mutant evaluation is.
func triage(en *mutate.Enumeration) (marked int) {
	defer func() {
		if r := recover(); r != nil {
			marked = 0
		}
	}()
	return mutate.TriageEquivalent(en)
}

// referenceRun runs the unmutated subject once under campaign budgets;
// its output is what mutants are compared against, its transformed
// program answers every debugging question, and its execution tree is
// the harvest source for the exact-call test database and the
// generalized assertions.
func referenceRun(s Subject, cfg Config) (*gadt.Run, error) {
	sys, err := gadt.Load(s.Name+".pas", s.Source)
	if err != nil {
		return nil, err
	}
	run, err := sys.TraceLimited(s.Input, cfg.Fuel, cfg.MaxDepth)
	if err != nil {
		return nil, err
	}
	if run.RunErr != nil {
		return nil, fmt.Errorf("reference run failed: %w", run.RunErr)
	}
	return run, nil
}

// evalWithBackstop runs one mutant under pool.Backstop. A timeout or a
// panic yields a fresh outcome: the abandoned evaluation may still
// write o.
func evalWithBackstop(cfg Config, j job) MutantOutcome {
	var o MutantOutcome
	p, late := pool.Backstop(cfg.Timeout, func() { o = eval(cfg, j) })
	if !late && p == nil {
		return o
	}
	fresh := skeleton(j)
	if late {
		fresh.Status, fresh.Detail = StatusTimeout, fmt.Sprintf("wall-clock backstop (%s) exceeded", cfg.Timeout)
	} else {
		fresh.Status, fresh.Detail = StatusPanic, fmt.Sprint(p)
	}
	return fresh
}

func skeleton(j job) MutantOutcome {
	return MutantOutcome{
		Subject:     j.subject.Name,
		MutantID:    j.mutant.ID,
		Op:          string(j.mutant.Op),
		Unit:        j.mutant.Unit,
		Description: j.mutant.Description,
	}
}

// eval pushes one mutant through the pipeline.
func eval(cfg Config, j job) MutantOutcome {
	o := skeleton(j)

	// The mutant's phases and debugging sessions report into the
	// campaign's registry (none when cfg.Metrics is nil).
	sys, err := gadt.LoadObserved(j.subject.Name+".pas", j.mutant.Source, cfg.Metrics, nil)
	if err != nil {
		o.Status, o.Detail = StatusStillborn, err.Error()
		return o
	}
	run, err := sys.TraceLimited(j.subject.Input, cfg.Fuel, cfg.MaxDepth)
	if err != nil {
		o.Status, o.Detail = StatusStillborn, err.Error()
		return o
	}

	switch {
	case errors.Is(run.RunErr, interp.ErrFuelExhausted), errors.Is(run.RunErr, interp.ErrDepthExhausted):
		// Transformed loops recurse, so a planted infinite loop trips
		// either the step or the call-depth budget: non-termination.
		o.Status = StatusTimeout
		o.Detail = fmt.Sprintf("non-termination: %v (after %d steps)", run.RunErr, run.Steps)
		return o
	case run.RunErr != nil:
		o.Status = StatusKilled
		o.Detail = "crash: " + run.RunErr.Error()
	case run.Output != j.want:
		o.Status = StatusKilled
		o.Detail = pool.OutputDiff("want", "got", j.want, run.Output)
	default:
		o.Status = StatusSurvived
		return o
	}

	// Killed: evaluate bug localization per strategy, answering every
	// query from the unmutated reference — no human in the loop.
	if run.Tree.Size() > cfg.MaxTreeNodes {
		o.Detail += fmt.Sprintf("; debug skipped (tree %d nodes > %d)", run.Tree.Size(), cfg.MaxTreeNodes)
		return o
	}
	for _, strat := range cfg.Strategies {
		o.Strategies = append(o.Strategies, debugOne(cfg, j, run, strat))
	}
	return o
}

func debugOne(cfg Config, j job, run *gadt.Run, strat debugger.Strategy) StrategyScore {
	score := StrategyScore{Strategy: strat.String()}
	dc := gadt.DebugConfig{
		Strategy:     strat,
		Slicing:      true,
		MaxQuestions: cfg.MaxQuestions,
		Assertions:   j.asserts,
	}
	if j.tests != nil {
		dc.Tests = j.tests
	}
	out, err := run.Debug(j.oracle, dc)
	if out != nil {
		score.Questions = out.Questions
		score.ByAssertions = out.ByAssertions
		score.ByTests = out.ByTests
	}
	if err != nil {
		score.Error = err.Error()
		return score
	}
	if out.Localized() {
		score.Localized = run.System.Transformed.OriginRoutine(out.Bug.Unit.Name)
		score.Correct = score.Localized == j.mutant.Unit
	}
	return score
}
