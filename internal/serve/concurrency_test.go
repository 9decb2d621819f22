// Concurrency test: 32 goroutines run complete debugging sessions for
// 4 distinct programs (8 sessions each) against one server. Run under
// -race this exercises the shared execution trees, the singleflight
// cache and the session registry; the counter assertions pin the
// deterministic cache accounting (in-flight shares count as hits, so
// exactly one miss per layer per distinct program).
package serve_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/paper"
	"gadt/internal/serve"
)

func TestConcurrentSessions(t *testing.T) {
	var primes, digitstats corpus.Program
	for _, p := range corpus.All() {
		switch p.Name {
		case "primes":
			primes = p
		case "digitstats":
			digitstats = p
		}
	}
	if primes.Buggy == "" || digitstats.Buggy == "" {
		t.Fatal("corpus is missing the buggy primes/digitstats programs")
	}

	// Four distinct programs. The first three are buggy and replay a
	// locally recorded journal to a localized diagnosis; the fourth is
	// the corrected sqrtest, debugged interactively with all-correct
	// verdicts — the engine presumes the root incorrect, so a session
	// where every callee is correct blames the root unit.
	type subject struct {
		program, input string
		lines          []string // nil: answer "correct" until terminal
		wantState      string
		wantUnit       string
	}
	subjects := make([]subject, 0, 4)
	for _, s := range []struct {
		buggy, fixed, input string
	}{
		{paper.Sqrtest, paper.SqrtestFixed, ""},
		{primes.Buggy, primes.Source, primes.Input},
		{digitstats.Buggy, digitstats.Source, digitstats.Input},
	} {
		lines, unit := recordJournal(t, s.buggy, s.fixed, s.input)
		subjects = append(subjects, subject{
			program: s.buggy, input: s.input, lines: lines,
			wantState: "localized", wantUnit: unit,
		})
	}
	subjects = append(subjects, subject{
		program: paper.SqrtestFixed, wantState: "localized", wantUnit: "main",
	})

	const perProgram = 8
	c, reg, _ := newTestServer(t, serve.Options{})

	var wg sync.WaitGroup
	errs := make(chan error, len(subjects)*perProgram)
	for _, sub := range subjects {
		for g := 0; g < perProgram; g++ {
			wg.Add(1)
			go func(sub subject) {
				defer wg.Done()
				resp, err := runSession(c, sub.program, sub.input, sub.lines)
				if err != nil {
					errs <- err
					return
				}
				if resp.State != sub.wantState {
					errs <- errf2("state = %s, want %s", resp.State, sub.wantState)
					return
				}
				if sub.wantUnit != "" && (resp.Diagnosis == nil || resp.Diagnosis.Unit != sub.wantUnit) {
					errs <- errf2("diagnosis = %+v, want unit %q", resp.Diagnosis, sub.wantUnit)
				}
			}(sub)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	total := int64(len(subjects) * perProgram) // 32

	// Deterministic cache accounting: one miss per program per layer,
	// every other session shares (a wait on an in-flight build is a
	// hit), regardless of goroutine interleaving.
	hits := reg.CounterVec("serve.cache.hits", "layer")
	misses := reg.CounterVec("serve.cache.misses", "layer")
	for _, layer := range []string{"artifact", "trace"} {
		if got := misses.With(layer).Value(); got != int64(len(subjects)) {
			t.Errorf("%s misses = %d, want %d", layer, got, len(subjects))
		}
		if got := hits.With(layer).Value(); got != total-int64(len(subjects)) {
			t.Errorf("%s hits = %d, want %d", layer, got, total-int64(len(subjects)))
		}
	}

	// Sessions sharing a trace share its dependence graph: it is built
	// once, by the first of them to slice, and only for the programs
	// whose journals flag a wrong output.
	slicing := 0
	for _, sub := range subjects {
		for _, line := range sub.lines {
			if strings.Contains(line, `"wrong_output"`) {
				slicing++
				break
			}
		}
	}
	if slicing == 0 {
		t.Fatal("no journal flags a wrong output: the shared graph build went untested")
	}
	if got := reg.Counter("slicing.dynamic.builds").Value(); got != int64(slicing) {
		t.Errorf("slicing.dynamic.builds = %d, want %d (one per trace that is sliced)", got, slicing)
	}

	if got := reg.Counter("serve.sessions.created").Value(); got != total {
		t.Errorf("sessions.created = %d, want %d", got, total)
	}
	// Every session reached a terminal state, so the active gauge must
	// have drained to zero.
	if got := reg.Gauge("serve.sessions.active").Value(); got != 0 {
		t.Errorf("sessions.active = %d, want 0 after all sessions finished", got)
	}
}

// runSession drives one full session without *testing.T (goroutine
// safe): journal replay when lines are given, all-correct verdicts
// otherwise.
func runSession(c *tclient, program, input string, lines []string) (serve.SessionResponse, error) {
	body, _ := json.Marshal(serve.CreateRequest{Program: program, Input: input, File: "program.pas"})
	status, raw := c.doQuiet("POST", "/v1/sessions", body)
	var resp serve.SessionResponse
	if status != 201 {
		return resp, errf2("create = %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, err
	}
	if lines != nil {
		for _, line := range lines {
			var probe struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(line), &probe); err != nil {
				return resp, err
			}
			if probe.Kind != "query" {
				continue
			}
			if resp.State != "waiting" {
				return resp, errf2("expected waiting before %q, state %s", line, resp.State)
			}
			status, raw = c.doQuiet("POST", "/v1/sessions/"+resp.ID+"/answer", []byte(line))
			if status != 200 {
				return resp, errf2("answer = %d: %s", status, raw)
			}
			if err := json.Unmarshal(raw, &resp); err != nil {
				return resp, err
			}
		}
		return resp, nil
	}
	for resp.State == "waiting" {
		status, raw = c.doQuiet("POST", "/v1/sessions/"+resp.ID+"/answer",
			[]byte(`{"verdict":"correct"}`))
		if status != 200 {
			return resp, errf2("answer = %d: %s", status, raw)
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			return resp, err
		}
	}
	return resp, nil
}
