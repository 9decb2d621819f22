package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"gadt/internal/assertion"
	"gadt/internal/campaign"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/mutate"
	"gadt/internal/pascal/interp"
	"gadt/internal/tgen"
)

// The campaign's budgets, set explicitly so the traced replay applies
// the same ones as campaign.Run.
const (
	mutationFuel         = 60_000
	mutationDepth        = 1000
	mutationTreeCap      = 4000
	mutationMaxQuestions = 2000
)

func campaignConfig(seed int64, budget, workers int) campaign.Config {
	return campaign.Config{
		Seed:         seed,
		Budget:       budget,
		Workers:      workers,
		Fuel:         mutationFuel,
		MaxDepth:     mutationDepth,
		MaxTreeNodes: mutationTreeCap,
		MaxQuestions: mutationMaxQuestions,
	}
}

// mutationSeeds maps a run seed onto the campaign seeds its ops cycle
// through. Run seeds get consecutive disjoint blocks, so run seed 1
// starts at the pinned campaign seed 1, and each run averages over
// several mutant samples instead of reporting one sample's luck.
func mutationSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = (seed-1)*int64(n) + int64(k) + 1
	}
	return out
}

// mutationRef is one campaign seed's set-up: the reference verdicts of
// a Workers: 1 campaign and how long it took untraced.
type mutationRef struct {
	seed   int64
	report *campaign.Report
	print  string
	wall   time.Duration
}

// runMutation measures campaign.Run with two workers. Every op's
// verdicts must equal those of the one-worker reference campaign of
// the same seed, built in set-up.
func runMutation(e *env) (*result, error) {
	res := &result{workload: "mutation"}
	var refs []*mutationRef
	var setups []time.Duration
	for _, s := range mutationSeeds(e.seed, e.size.mutationSeeds) {
		start := time.Now()
		rep, err := campaign.Run(campaignConfig(s, e.size.mutationBudget, 1))
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		setups = append(setups, wall)
		if s == 1 && e.size.mutationBudget == fullSize.mutationBudget {
			for _, m := range checkPinned(rep) {
				res.mismatch("reference campaign seed 1: %s", m)
			}
		}
		refs = append(refs, &mutationRef{seed: s, report: rep, print: fingerprint(rep), wall: wall})
	}

	if e.traced {
		return replayMutation(e, res, refs), nil
	}
	l := runLoop(e.measure, len(refs), res, func(i int) (int, error) {
		ref := refs[i%len(refs)]
		rep, err := campaign.Run(campaignConfig(ref.seed, e.size.mutationBudget, 2))
		if err != nil {
			return 0, err
		}
		if fp := fingerprint(rep); fp != ref.print {
			return rep.Mutants, fmt.Errorf("campaign seed %d: verdicts differ from the one-worker reference: %s", ref.seed, firstDiff(ref.print, fp))
		}
		return rep.Mutants, nil
	})
	res.endToEnd(setups, l)
	return res, nil
}

// fingerprint renders a campaign's verdicts: per mutant its status, per
// strategy the questions asked and the unit blamed.
func fingerprint(rep *campaign.Report) string {
	var b strings.Builder
	for _, o := range rep.Outcomes {
		fmt.Fprintf(&b, "%s#%d %s", o.Subject, o.MutantID, o.Status)
		for _, s := range o.Strategies {
			fmt.Fprintf(&b, " %s:%d:%s", s.Strategy, s.Questions, s.Localized)
			if s.Error != "" {
				fmt.Fprintf(&b, ":error=%s", s.Error)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// firstDiff names the first line where two fingerprints differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("want %q, got %q", w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}

// checkPinned compares the seed-1 campaign with its recorded totals
// (BENCH_mutation.json at budget 240).
func checkPinned(rep *campaign.Report) []string {
	var bad []string
	pin := func(what string, got, want int) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s = %d, want %d", what, got, want))
		}
	}
	pin("evaluated", rep.Mutants, 334)
	pin("killed", rep.Killed, 223)
	pin("survived", rep.Survived, 10)
	pin("timeout", rep.Timeout, 7)
	pin("equivalent", rep.Equivalent, 94)
	pin("stillborn", rep.Stillborn, 0)
	pin("panics", rep.Panics, 0)
	for strat, want := range map[string]int{"bottom-up": 208, "divide-and-query": 203, "top-down": 207, "weighted-dq": 203} {
		got := 0
		if st := rep.ByStrategy[strat]; st != nil {
			got = st.Localized
		}
		pin(strat+" localized", got, want)
	}
	return bad
}

// replayMutation replays each reference campaign one layer call at a
// time and checks that the replay reaches the same verdicts.
func replayMutation(e *env, res *result, refs []*mutationRef) *result {
	rec := newRecorder()
	t := &tally{}
	var overhead []float64
	l := runLoop(e.measure, len(refs), res, func(i int) (int, error) {
		ref := refs[i%len(refs)]
		start := time.Now()
		rep := replayCampaign(rec, fmt.Sprintf("campaign-%d", i), ref.report, t)
		overhead = append(overhead, time.Since(start).Seconds()/ref.wall.Seconds())
		if fp := fingerprint(rep); fp != ref.print {
			return len(rep.Outcomes), fmt.Errorf("replay of campaign seed %d differs from campaign.Run: %s", ref.seed, firstDiff(ref.print, fp))
		}
		return len(rep.Outcomes), nil
	})
	res.perLayer(rec, l, t, percentile(overhead, 50), minCoverage)
	return res
}

// replayCampaign follows campaign.Run on one goroutine: per subject the
// reference run, the harvest, enumeration and triage, then eval and
// debugOne for every mutant the reference report sampled (sampling is
// internal to campaign.Run, so the IDs come from ref).
func replayCampaign(rec *recorder, op string, ref *campaign.Report, t *tally) *campaign.Report {
	root := rec.span("campaign", op)
	defer root.End()
	sampled := make(map[string]bool)
	for _, o := range ref.Outcomes {
		if o.Status != campaign.StatusEquivalent {
			sampled[mutantKey(o.Subject, o.MutantID)] = true
		}
	}

	sp := rec.span("progen", op)
	subjects := campaign.DefaultSubjects()
	sp.End()
	rep := &campaign.Report{}
	for _, s := range subjects {
		file := s.Name + ".pas"
		sys, err := rec.load(op, file, s.Source)
		if err != nil {
			continue
		}
		refRun, err := rec.trace(op, sys, s.Input, mutationFuel, mutationDepth)
		if err != nil || refRun.RunErr != nil {
			continue
		}
		sp = rec.span("harvest", op)
		tests := tgen.NewCallDB().HarvestTree(refRun.Tree)
		asserts := assertion.Generalize(refRun.Tree.Nodes, assertion.GeneralizeOptions{})
		sp.End()
		if asserts.Len() == 0 {
			asserts = nil
		}
		sp = rec.span("mutate.enumerate", op)
		en, err := mutate.EnumerateProgram(file, s.Source, mutate.Config{})
		sp.End()
		if err != nil {
			continue
		}
		sp = rec.span("mutate.triage", op)
		mutate.TriageEquivalent(en)
		sp.End()
		t.enumerated += len(en.Mutants)

		for _, m := range en.Mutants {
			o := campaign.MutantOutcome{Subject: s.Name, MutantID: m.ID, Op: string(m.Op), Unit: m.Unit, Description: m.Description}
			switch {
			case m.Equivalent:
				o.Status = campaign.StatusEquivalent
			case sampled[mutantKey(s.Name, m.ID)]:
				t.executed++
				o = rec.evalMutant(o, s, refRun.Output, m.Source, tests, asserts, t)
			default:
				continue
			}
			rep.Outcomes = append(rep.Outcomes, o)
		}
	}
	sort.Slice(rep.Outcomes, func(i, j int) bool {
		a, b := rep.Outcomes[i], rep.Outcomes[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.MutantID < b.MutantID
	})
	return rep
}

func mutantKey(subject string, id int) string { return fmt.Sprintf("%s#%d", subject, id) }

// evalMutant follows campaign's eval: load, transform and trace the
// mutant, classify it against the reference output, and debug a killed
// mutant under every strategy.
func (rec *recorder) evalMutant(o campaign.MutantOutcome, s campaign.Subject, want, source string, tests *tgen.CallDB, asserts *assertion.DB, t *tally) campaign.MutantOutcome {
	op := mutantKey(s.Name, o.MutantID)
	sp := rec.span("mutant", op)
	defer sp.End()
	sys, err := rec.load(op, s.Name+".pas", source)
	if err != nil {
		o.Status = campaign.StatusStillborn
		return o
	}
	run, err := rec.trace(op, sys, s.Input, mutationFuel, mutationDepth)
	if err != nil {
		o.Status = campaign.StatusStillborn
		return o
	}
	switch {
	case errors.Is(run.RunErr, interp.ErrFuelExhausted), errors.Is(run.RunErr, interp.ErrDepthExhausted):
		o.Status = campaign.StatusTimeout
		return o
	case run.RunErr != nil, run.Output != want:
		o.Status = campaign.StatusKilled
	default:
		o.Status = campaign.StatusSurvived
		return o
	}
	if run.Tree.Size() > mutationTreeCap {
		return o
	}
	for _, strat := range debugger.Strategies() {
		score := campaign.StrategyScore{Strategy: strat.String()}
		sp := rec.span("oracle", op)
		oracle, err := gadt.IntendedOracleLimited(s.Source, mutationFuel)
		sp.End()
		if err != nil {
			score.Error = err.Error()
			o.Strategies = append(o.Strategies, score)
			continue
		}
		dc := gadt.DebugConfig{Strategy: strat, Slicing: true, MaxQuestions: mutationMaxQuestions, Assertions: asserts, Tests: tests}
		out, err := rec.debug(op, run, oracle, dc, t)
		if out != nil {
			score.Questions = out.Questions
		}
		if err != nil {
			score.Error = err.Error()
		} else if out.Localized() {
			score.Localized = run.System.Transformed.OriginRoutine(out.Bug.Unit.Name)
			if score.Localized == o.Unit {
				t.localized++
			}
		}
		o.Strategies = append(o.Strategies, score)
	}
	return o
}
