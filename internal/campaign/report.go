package campaign

import (
	"encoding/json"
	"io"
	"math/rand"
	"sort"
	"time"

	"gadt/internal/obs"
)

// sample deterministically picks n jobs from the full list with the
// campaign seed, then restores enumeration order.
func sample(jobs []job, n int, seed int64) []job {
	picked := append([]job(nil), jobs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	picked = picked[:n]
	sort.Slice(picked, func(i, j int) bool {
		if picked[i].subject.Name != picked[j].subject.Name {
			return picked[i].subject.Name < picked[j].subject.Name
		}
		return picked[i].mutant.ID < picked[j].mutant.ID
	})
	return picked
}

// OperatorStats aggregates outcomes per mutation operator.
type OperatorStats struct {
	Mutants    int     `json:"mutants"`
	Killed     int     `json:"killed"`
	Survived   int     `json:"survived"`
	Timeout    int     `json:"timeout"`
	Equivalent int     `json:"equivalent"`
	KillRate   float64 `json:"kill_rate"`
}

// StrategyStats aggregates debugging sessions per traversal strategy,
// over the killed-and-debugged mutants.
type StrategyStats struct {
	Sessions int `json:"sessions"`
	// Localized counts sessions that blamed exactly the mutated unit.
	Localized        int     `json:"localized"`
	LocalizationRate float64 `json:"localization_rate"`
	Questions        int     `json:"questions"`
	MeanQuestions    float64 `json:"mean_questions"`
	MedianQuestions  float64 `json:"median_questions"`
	MaxQuestions     int     `json:"max_questions"`
	// ByAssertions and ByTests total the queries answered from the
	// harvested assertion DB / exact-call test database.
	ByAssertions int `json:"by_assertions"`
	ByTests      int `json:"by_tests"`
	Errors       int `json:"errors"`
}

// Report is the campaign summary written to BENCH_mutation.json.
type Report struct {
	Seed       int64 `json:"seed"`
	Budget     int   `json:"budget"`
	Workers    int   `json:"workers"`
	Fuel       int   `json:"fuel"`
	Subjects   int   `json:"subjects"`
	Enumerated int   `json:"enumerated_mutants"`
	Mutants    int   `json:"evaluated_mutants"`
	ElapsedMS  int64 `json:"elapsed_ms"`

	Killed    int `json:"killed"`
	Survived  int `json:"survived"`
	Timeout   int `json:"timeout"`
	Stillborn int `json:"stillborn"`
	Panics    int `json:"panics"`
	// Equivalent counts mutants the static value analysis proved
	// behaviour-preserving; they are reported but never executed.
	Equivalent int `json:"equivalent"`
	// DebugSkipped counts killed mutants whose tree exceeded the
	// debugging size cap.
	DebugSkipped int `json:"debug_skipped"`

	ByOperator map[string]*OperatorStats `json:"by_operator"`
	ByStrategy map[string]*StrategyStats `json:"by_strategy"`

	SubjectErrors []string        `json:"subject_errors,omitempty"`
	Outcomes      []MutantOutcome `json:"outcomes"`
}

// KillRate is killed / (killed + survived): proven-equivalent mutants
// are out of the denominator by construction, and timeouts and
// stillborns are excluded as possibly-equivalent or invalid.
func (r *Report) KillRate() float64 {
	den := r.Killed + r.Survived
	if den == 0 {
		return 0
	}
	return float64(r.Killed) / float64(den)
}

func aggregate(cfg Config, outcomes []MutantOutcome, enumerated int, subjectErrs []string, elapsed time.Duration) *Report {
	rep := &Report{
		Seed:          cfg.Seed,
		Budget:        cfg.Budget,
		Workers:       cfg.Workers,
		Fuel:          cfg.Fuel,
		Subjects:      len(cfg.Subjects),
		Enumerated:    enumerated,
		Mutants:       len(outcomes),
		ElapsedMS:     elapsed.Milliseconds(),
		ByOperator:    make(map[string]*OperatorStats),
		ByStrategy:    make(map[string]*StrategyStats),
		SubjectErrors: subjectErrs,
		Outcomes:      outcomes,
	}
	questionCounts := make(map[string][]int)
	for _, o := range outcomes {
		op := rep.ByOperator[o.Op]
		if op == nil {
			op = &OperatorStats{}
			rep.ByOperator[o.Op] = op
		}
		op.Mutants++
		switch o.Status {
		case StatusKilled:
			rep.Killed++
			op.Killed++
			if len(o.Strategies) == 0 {
				rep.DebugSkipped++
			}
		case StatusSurvived:
			rep.Survived++
			op.Survived++
		case StatusTimeout:
			rep.Timeout++
			op.Timeout++
		case StatusStillborn:
			rep.Stillborn++
		case StatusPanic:
			rep.Panics++
		case StatusEquivalent:
			rep.Equivalent++
			op.Equivalent++
		}
		for _, s := range o.Strategies {
			st := rep.ByStrategy[s.Strategy]
			if st == nil {
				st = &StrategyStats{}
				rep.ByStrategy[s.Strategy] = st
			}
			st.Sessions++
			st.Questions += s.Questions
			questionCounts[s.Strategy] = append(questionCounts[s.Strategy], s.Questions)
			if s.Questions > st.MaxQuestions {
				st.MaxQuestions = s.Questions
			}
			st.ByAssertions += s.ByAssertions
			st.ByTests += s.ByTests
			if s.Correct {
				st.Localized++
			}
			if s.Error != "" {
				st.Errors++
			}
		}
	}
	for _, op := range rep.ByOperator {
		if den := op.Killed + op.Survived; den > 0 {
			op.KillRate = float64(op.Killed) / float64(den)
		}
	}
	for name, st := range rep.ByStrategy {
		if st.Sessions > 0 {
			st.LocalizationRate = float64(st.Localized) / float64(st.Sessions)
			st.MeanQuestions = float64(st.Questions) / float64(st.Sessions)
			st.MedianQuestions = median(questionCounts[name])
		}
	}
	return rep
}

// median returns the middle value of the counts (the mean of the two
// middle values for even lengths); 0 for an empty slice.
func median(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return float64(sorted[mid])
	}
	return float64(sorted[mid-1]+sorted[mid]) / 2
}

// record exports the campaign-specific end-of-run totals to the
// observability registry. Per-status tallies, in-flight/done gauges,
// per-mutant latency and pool size are recorded live by the worker pool
// (internal/pool) in Run — only what the pool cannot know lands here.
func record(m *obs.Registry, rep *Report) {
	if m == nil {
		return
	}
	m.Counter("campaign.mutants").Add(int64(rep.Mutants))
	m.Counter("campaign.enumerated").Add(int64(rep.Enumerated))
	sessions := m.CounterVec("campaign.sessions", "strategy")
	localized := m.CounterVec("campaign.localized", "strategy")
	questions := m.CounterVec("campaign.questions", "strategy")
	for name, st := range rep.ByStrategy {
		sessions.With(name).Add(int64(st.Sessions))
		localized.With(name).Add(int64(st.Localized))
		questions.With(name).Add(int64(st.Questions))
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
