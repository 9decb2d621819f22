package campaign_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gadt/internal/campaign"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/mutate"
	"gadt/internal/obs"
)

// loopSubject is crafted so the operator set provably produces all
// three interesting fates: output-diff kills (negated/flipped loop
// conditions exit early), crashes, and planted infinite loops
// (const-off-by-one turning `i + 1` into `i + 0`) that must classify as
// timeout instead of hanging the pool.
const loopSubject = `
program looper;
var i, s: integer;

procedure accumulate(n: integer; var total: integer);
var i: integer;
begin
  total := 0;
  i := 0;
  while i < n do begin
    total := total + i;
    i := i + 1;
  end;
end;

begin
  accumulate(5, s);
  writeln(s);
end.
`

func small(t *testing.T, cfg campaign.Config) *campaign.Report {
	t.Helper()
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCampaignLooperFates runs every mutant of the looper subject and
// checks the classifier: kills, timeouts (infinite loops stopped by
// fuel), consistent totals, and correct localization data.
func TestCampaignLooperFates(t *testing.T) {
	rep := small(t, campaign.Config{
		Subjects: []campaign.Subject{{Name: "looper", Source: loopSubject}},
		Seed:     1,
		Fuel:     20_000,
		Timeout:  time.Minute,
	})
	if rep.Mutants == 0 || rep.Mutants != rep.Enumerated {
		t.Fatalf("evaluated %d of %d mutants", rep.Mutants, rep.Enumerated)
	}
	if got := rep.Killed + rep.Survived + rep.Timeout + rep.Stillborn + rep.Panics + rep.Equivalent; got != rep.Mutants {
		t.Errorf("status totals %d != mutants %d", got, rep.Mutants)
	}
	if rep.Killed == 0 {
		t.Error("no mutants killed")
	}
	if rep.Timeout == 0 {
		t.Error("no timeout mutants: expected the i+0 infinite loop to exhaust fuel")
	}
	if rep.Panics != 0 {
		t.Errorf("%d pipeline panics", rep.Panics)
	}
	// Every killed-and-debugged mutant carries one score per strategy.
	wantScores := len(debugger.Strategies())
	for _, o := range rep.Outcomes {
		if o.Status == campaign.StatusKilled && len(o.Strategies) > 0 && len(o.Strategies) != wantScores {
			t.Errorf("mutant %d: %d strategy scores, want %d", o.MutantID, len(o.Strategies), wantScores)
		}
		for _, s := range o.Strategies {
			if s.Correct && s.Localized != o.Unit {
				t.Errorf("mutant %d marked correct but localized %q != unit %q", o.MutantID, s.Localized, o.Unit)
			}
		}
	}
	// The reference oracle must localize at least one fault correctly
	// per strategy on this simple subject. Queries answered out of the
	// harvested call/assertion databases don't reach the oracle, so the
	// sum of all answer sources is what must be nonzero.
	for name, st := range rep.ByStrategy {
		if st.Localized == 0 {
			t.Errorf("strategy %s never localized the injected fault", name)
		}
		if st.Questions == 0 && st.ByTests == 0 && st.ByAssertions == 0 {
			t.Errorf("strategy %s answered zero queries over %d sessions", name, st.Sessions)
		}
	}
	// This subject is simple enough that the reference-run harvest must
	// have answered at least some queries without the oracle.
	var harvested int
	for _, st := range rep.ByStrategy {
		harvested += st.ByTests + st.ByAssertions
	}
	if harvested == 0 {
		t.Error("harvested call/assertion databases never answered a query")
	}
}

// deadGuardSubject keeps a debug branch behind a constant-false guard:
// every mutant planted inside that branch is provably equivalent, while
// mutants in live code must still be executed and killed as usual.
const deadGuardSubject = `
program guarded;
var x, debug: integer;
begin
  debug := 0;
  x := 3;
  if debug > 0 then begin
    x := x + 7;
    writeln(x);
  end;
  writeln(x);
end.
`

// TestCampaignEquivalentTriage checks that static triage pulls
// dead-branch mutants out of the execution pool, reports them with
// their own status, and keeps them out of the kill rate.
func TestCampaignEquivalentTriage(t *testing.T) {
	rep := small(t, campaign.Config{
		Subjects: []campaign.Subject{{Name: "guarded", Source: deadGuardSubject}},
		Seed:     7,
		Fuel:     20_000,
		Timeout:  time.Minute,
	})
	if rep.Equivalent == 0 {
		t.Fatal("no mutants triaged as equivalent in the dead debug branch")
	}
	if rep.Killed == 0 {
		t.Error("live-code mutants should still be killed")
	}
	if got := rep.Killed + rep.Survived + rep.Timeout + rep.Stillborn + rep.Panics + rep.Equivalent; got != rep.Mutants {
		t.Errorf("status totals %d != mutants %d", got, rep.Mutants)
	}
	for _, o := range rep.Outcomes {
		if o.Status != campaign.StatusEquivalent {
			continue
		}
		if len(o.Strategies) != 0 {
			t.Errorf("mutant %d: equivalent mutants must not be debugged", o.MutantID)
		}
		if !strings.HasPrefix(o.Detail, "static triage:") {
			t.Errorf("mutant %d: detail %q does not name the triage rule", o.MutantID, o.Detail)
		}
	}
	// Kill rate only ranges over executed, decided mutants.
	if den := rep.Killed + rep.Survived; den > 0 {
		want := float64(rep.Killed) / float64(den)
		if got := rep.KillRate(); got != want {
			t.Errorf("KillRate() = %v, want %v", got, want)
		}
	}
	var equivOps int
	for _, op := range rep.ByOperator {
		equivOps += op.Equivalent
	}
	if equivOps != rep.Equivalent {
		t.Errorf("per-operator equivalent counts sum to %d, want %d", equivOps, rep.Equivalent)
	}
}

// TestCampaignDeterministic pins that two runs with one seed agree on
// every verdict (timing aside), regardless of worker interleaving.
func TestCampaignDeterministic(t *testing.T) {
	cfg := campaign.Config{
		Subjects: []campaign.Subject{{Name: "looper", Source: loopSubject}},
		Seed:     42,
		Budget:   12,
		Fuel:     20_000,
		Timeout:  time.Minute,
	}
	cfg2 := cfg
	cfg2.Workers = 1
	a, b := small(t, cfg), small(t, cfg2)
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.MutantID != y.MutantID || x.Status != y.Status || len(x.Strategies) != len(y.Strategies) {
			t.Errorf("outcome %d differs: %+v vs %+v", i, x, y)
			continue
		}
		for k := range x.Strategies {
			if x.Strategies[k] != y.Strategies[k] {
				t.Errorf("mutant %d strategy %s differs: %+v vs %+v",
					x.MutantID, x.Strategies[k].Strategy, x.Strategies[k], y.Strategies[k])
			}
		}
	}
}

// TestCampaignBudgetAndOps: budget caps the evaluated set, ops filter
// restricts operators, and metrics land in the registry.
func TestCampaignBudgetAndOps(t *testing.T) {
	reg := obs.NewRegistry()
	rep := small(t, campaign.Config{
		Subjects:   []campaign.Subject{{Name: "looper", Source: loopSubject}},
		Ops:        []mutate.Op{mutate.RelFlip, mutate.ConstOffByOne},
		Seed:       5,
		Budget:     6,
		Fuel:       20_000,
		Timeout:    time.Minute,
		Strategies: []debugger.Strategy{debugger.TopDown},
		Metrics:    reg,
	})
	if rep.Mutants != 6 {
		t.Errorf("evaluated %d mutants, want budget 6", rep.Mutants)
	}
	if rep.Enumerated <= 6 {
		t.Errorf("enumerated %d, want more than budget", rep.Enumerated)
	}
	for op := range rep.ByOperator {
		if op != string(mutate.RelFlip) && op != string(mutate.ConstOffByOne) {
			t.Errorf("unexpected operator %s in filtered campaign", op)
		}
	}
	for _, o := range rep.Outcomes {
		for _, s := range o.Strategies {
			if s.Strategy != "top-down" {
				t.Errorf("unexpected strategy %s", s.Strategy)
			}
		}
	}
	if got := reg.Counter("campaign.mutants").Value(); got != 6 {
		t.Errorf("campaign.mutants metric = %d, want 6", got)
	}
}

// TestTriageEquivalentsSurviveExecution brute-force checks the triage
// verdicts over the full default subject set: every mutant marked
// equivalent must produce exactly the reference output when actually
// executed. A divergence here means the value analysis or a triage
// rule is unsound.
func TestTriageEquivalentsSurviveExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force triage validation is not short")
	}
	run := func(name, source, input string) (string, error) {
		sys, err := gadt.Load(name+".pas", source)
		if err != nil {
			return "", err
		}
		r, err := sys.TraceLimited(input, 60_000, 1000)
		if err != nil {
			return "", err
		}
		if r.RunErr != nil {
			return "", r.RunErr
		}
		return r.Output, nil
	}
	checked := 0
	for _, s := range campaign.DefaultSubjects() {
		want, err := run(s.Name, s.Source, s.Input)
		if err != nil {
			continue // campaign skips such subjects too
		}
		en, err := mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		mutate.TriageEquivalent(en)
		for _, m := range en.Mutants {
			if !m.Equivalent {
				continue
			}
			checked++
			got, err := run(s.Name, m.Source, s.Input)
			if err != nil {
				t.Errorf("%s mutant %d (%s; %s): equivalent mutant failed: %v",
					s.Name, m.ID, m.Description, m.EquivReason, err)
				continue
			}
			if got != want {
				t.Errorf("%s mutant %d (%s; %s): output diverged despite equivalence proof",
					s.Name, m.ID, m.Description, m.EquivReason)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no equivalent mutants found across the default subjects")
	}
}

// TestCampaignCorpusSmoke runs a tiny budget over the full default
// subject set — the same shape `pmut` and CI use — and checks the JSON
// report round-trips.
func TestCampaignCorpusSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke is not short")
	}
	rep := small(t, campaign.Config{Seed: 1, Budget: 20, Timeout: time.Minute})
	// Statically triaged equivalents bypass the budget (their verdict is
	// free); the budget caps the executed remainder.
	if got := rep.Mutants - rep.Equivalent; got != 20 {
		t.Fatalf("executed %d mutants, want budget 20", got)
	}
	if rep.Enumerated < 200 {
		t.Errorf("default subjects enumerate only %d sites, want >= 200 for make mutate", rep.Enumerated)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back campaign.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Mutants != rep.Mutants || len(back.Outcomes) != len(rep.Outcomes) {
		t.Errorf("round-trip mismatch: %d/%d vs %d/%d", back.Mutants, len(back.Outcomes), rep.Mutants, len(rep.Outcomes))
	}
	if !strings.Contains(buf.String(), "by_strategy") {
		t.Error("report JSON missing by_strategy")
	}
}
