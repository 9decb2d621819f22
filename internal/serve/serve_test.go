// End-to-end API tests: full debugging sessions driven over HTTP with
// httptest, including byte-for-byte replay of a journal recorded by the
// gadt CLI (testdata/serve/sqrtest_session.jsonl).
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/serve"
)

// newTestServer starts the service on an httptest listener.
func newTestServer(t *testing.T, opts serve.Options) (*tclient, *obs.Registry, *serve.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := serve.NewServer(reg, opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &tclient{t: t, base: hs.URL, hc: hs.Client()}, reg, srv
}

type tclient struct {
	t    *testing.T
	base string
	hc   *http.Client
}

// with rebinds the client to a subtest so failures land on it.
func (c *tclient) with(t *testing.T) *tclient {
	cp := *c
	cp.t = t
	return &cp
}

// doQuiet is do without *testing.T, safe to call from goroutines:
// transport errors come back as status 0.
func (c *tclient) doQuiet(method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

// errf2 builds a plain error (fmt.Errorf alias for goroutine helpers).
func errf2(format string, args ...any) error { return fmt.Errorf(format, args...) }

// do issues a request and decodes the body.
func (c *tclient) do(method, path string, body []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

func (c *tclient) session(method, path string, body []byte, wantStatus int) serve.SessionResponse {
	c.t.Helper()
	status, raw := c.do(method, path, body)
	if status != wantStatus {
		c.t.Fatalf("%s %s = %d, want %d\nbody: %s", method, path, status, wantStatus, raw)
	}
	var sr serve.SessionResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		c.t.Fatalf("%s %s: bad JSON: %v\n%s", method, path, err, raw)
	}
	return sr
}

// create submits a program and waits for the first question.
func (c *tclient) create(program, input string) serve.SessionResponse {
	c.t.Helper()
	return c.createReq(serve.CreateRequest{Program: program, Input: input})
}

func (c *tclient) createReq(req serve.CreateRequest) serve.SessionResponse {
	c.t.Helper()
	body, _ := json.Marshal(req)
	return c.session("POST", "/v1/sessions", body, http.StatusCreated)
}

// answer posts one raw answer body (e.g. a verbatim journal line).
func (c *tclient) answer(id string, body []byte) serve.SessionResponse {
	c.t.Helper()
	return c.session("POST", "/v1/sessions/"+id+"/answer", body, http.StatusOK)
}

// recordJournal runs a local debugging session with the intended-
// semantics oracle under the same configuration the server applies
// (transform, lint hints, slicing, top-down) and returns the JSONL
// journal — the ground truth a served session must reproduce.
func recordJournal(t *testing.T, source, reference, input string) (lines []string, bugUnit string) {
	t.Helper()
	sys, err := gadt.Load("program.pas", source)
	if err != nil {
		t.Fatal(err)
	}
	hints := sys.LintHints()
	run, err := sys.Trace(input)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gadt.IntendedOracle(reference)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	jw := debugger.NewJournalWriter(&buf)
	if err := jw.WriteHeader("program.pas", "top-down", input); err != nil {
		t.Fatal(err)
	}
	out, err := run.Debug(&debugger.JournalingOracle{Inner: oracle, Journal: jw},
		gadt.DebugConfig{Slicing: true, Hints: hints})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() {
		t.Fatal("local recording session did not localize")
	}
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		lines = append(lines, l)
	}
	return lines, out.Bug.Unit.Name
}

// replayJournal drives a served session by replaying journal lines
// verbatim as answer bodies, asserting zero divergence: every pending
// question must match the recorded entry byte for byte (seq, node,
// unit, query — the server additionally cross-checks the echoes).
func replayJournal(t *testing.T, c *tclient, req serve.CreateRequest, lines []string) serve.SessionResponse {
	t.Helper()
	resp := c.createReq(req)
	for _, line := range lines {
		var entry debugger.JournalEntry
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if entry.Kind != "query" {
			continue // header
		}
		if resp.State != "waiting" || resp.Question == nil {
			t.Fatalf("entry %d: session not waiting (state %s)", entry.Seq, resp.State)
		}
		q := resp.Question
		if q.Seq != entry.Seq || q.Node != entry.Node || q.Unit != entry.Unit || q.Query != entry.Query {
			t.Fatalf("divergence at question %d:\n  server: seq=%d node=%d unit=%q query=%q\n  journal: seq=%d node=%d unit=%q query=%q",
				entry.Seq, q.Seq, q.Node, q.Unit, q.Query, entry.Seq, entry.Node, entry.Unit, entry.Query)
		}
		resp = c.answer(resp.ID, []byte(line))
	}
	return resp
}

// TestReplayCLIJournal replays the checked-in journal recorded with
// `gadt -journal` against the server: same questions in the same
// order, zero divergences, same diagnosis. This is the acceptance
// criterion that the CLI journals and the server speak one protocol.
func TestReplayCLIJournal(t *testing.T) {
	program, err := os.ReadFile("../../testdata/sqrtest.pas")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../testdata/serve/sqrtest_session.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must be a valid wire journal under the strict loader.
	j, err := debugger.LoadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("checked-in journal invalid: %v", err)
	}
	if len(j.Entries) == 0 {
		t.Fatal("checked-in journal has no entries")
	}
	if j.Header == nil {
		t.Fatal("checked-in journal has no session header")
	}

	c, _, _ := newTestServer(t, serve.Options{})
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	resp := replayJournal(t, c, serve.CreateRequest{Program: string(program), File: j.Header.File}, lines)

	if resp.State != "localized" || resp.Diagnosis == nil || !resp.Diagnosis.Localized {
		t.Fatalf("state = %s, diagnosis = %+v; want localized", resp.State, resp.Diagnosis)
	}
	if resp.Diagnosis.Unit != "decrement" {
		t.Errorf("localized %q, want decrement", resp.Diagnosis.Unit)
	}
	if resp.Questions != len(j.Entries) {
		t.Errorf("questions = %d, want %d (whole journal consumed, nothing extra)",
			resp.Questions, len(j.Entries))
	}
}

// TestNoTransformSession records a session on the untransformed sqrtest,
// answered by the untransformed reference, and replays it against a
// no_transform session: the server traces the original program, so the
// questions and the diagnosis match the local run.
func TestNoTransformSession(t *testing.T) {
	sys, err := gadt.Load("program.pas", paper.Sqrtest)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := gadt.IntendedOracleOriginal(paper.SqrtestFixed)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	jw := debugger.NewJournalWriter(&buf)
	out, err := sys.TraceOriginal("", 0, 0).Debug(&debugger.JournalingOracle{Inner: oracle, Journal: jw},
		gadt.DebugConfig{Slicing: true, Hints: sys.LintHints()})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != "decrement" {
		t.Fatalf("local untransformed session localized %v, want decrement", out.Bug)
	}

	c, _, _ := newTestServer(t, serve.Options{})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	resp := replayJournal(t, c, serve.CreateRequest{Program: paper.Sqrtest, NoTransform: true}, lines)
	if resp.State != "localized" || resp.Diagnosis == nil || resp.Diagnosis.Unit != "decrement" {
		t.Fatalf("state = %s, diagnosis = %+v; want decrement localized", resp.State, resp.Diagnosis)
	}
	if resp.Questions != jw.Entries() {
		t.Errorf("questions = %d, want %d", resp.Questions, jw.Entries())
	}
}

// TestCreateFixtureInSync pins the curl fixture used by `make
// serve-smoke` to the program it claims to contain.
func TestCreateFixtureInSync(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/serve/sqrtest_create.json")
	if err != nil {
		t.Fatal(err)
	}
	var req serve.CreateRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	program, err := os.ReadFile("../../testdata/sqrtest.pas")
	if err != nil {
		t.Fatal(err)
	}
	if req.Program != string(program) {
		t.Error("testdata/serve/sqrtest_create.json is out of sync with testdata/sqrtest.pas; regenerate with jq (see README)")
	}
}

// TestCorpusSessions runs a complete session for three subject
// programs: record a journal locally against the intended semantics,
// replay it over the API, and require the planted bug's unit in the
// diagnosis.
func TestCorpusSessions(t *testing.T) {
	subjects := []struct {
		name, buggy, fixed, input, bugUnit string
	}{
		{"sqrtest", paper.Sqrtest, paper.SqrtestFixed, "", "decrement"},
	}
	for _, p := range corpus.All() {
		if p.Buggy == "" {
			continue
		}
		subjects = append(subjects, struct {
			name, buggy, fixed, input, bugUnit string
		}{p.Name, p.Buggy, p.Source, p.Input, p.BugUnit})
	}
	if len(subjects) < 3 {
		t.Fatalf("want at least 3 subjects, have %d", len(subjects))
	}

	c, _, _ := newTestServer(t, serve.Options{})
	for _, sub := range subjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			cc := c.with(t)
			lines, localUnit := recordJournal(t, sub.buggy, sub.fixed, sub.input)
			resp := replayJournal(t, cc, serve.CreateRequest{Program: sub.buggy, Input: sub.input, File: "program.pas"}, lines)
			if resp.State != "localized" || resp.Diagnosis == nil {
				t.Fatalf("state = %s, want localized", resp.State)
			}
			got := resp.Diagnosis.Unit
			if got != localUnit {
				t.Errorf("served diagnosis %q != local diagnosis %q", got, localUnit)
			}
			if got != sub.bugUnit && !strings.HasPrefix(got, sub.bugUnit+"_loop") {
				t.Errorf("localized %q, want %q (or its loop unit)", got, sub.bugUnit)
			}
		})
	}
}

// TestInteractiveSession drives a session with hand-written verdict
// answers (no journal, no echoes) and exercises GET, list and DELETE.
func TestInteractiveSession(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{})

	// Units on the bug path of sqrtest answer "incorrect".
	onPath := map[string]bool{
		"sqrtest": true, "computs": true, "comput1": true,
		"partialsums": true, "sum2": true, "decrement": true,
	}
	resp := c.create(paper.Sqrtest, "")
	if resp.Output == "" {
		t.Error("create response missing traced program output")
	}
	for resp.State == "waiting" {
		verdict := "correct"
		if onPath[resp.Question.Unit] {
			verdict = "incorrect"
		}
		body, _ := json.Marshal(debugger.JournalEntry{Verdict: verdict})
		resp = c.answer(resp.ID, body)
	}
	if resp.State != "localized" || resp.Diagnosis == nil || resp.Diagnosis.Unit != "decrement" {
		t.Fatalf("state=%s diagnosis=%+v, want decrement localized", resp.State, resp.Diagnosis)
	}

	got := c.session("GET", "/v1/sessions/"+resp.ID, nil, http.StatusOK)
	if got.State != "localized" {
		t.Errorf("GET state = %s, want localized", got.State)
	}

	status, raw := c.do("GET", "/v1/sessions", nil)
	if status != http.StatusOK {
		t.Fatalf("list = %d", status)
	}
	var list serve.ListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 {
		t.Errorf("list has %d sessions, want 1", len(list.Sessions))
	}

	// Deleting a finished session is a 204 no-op: the terminal state is
	// kept (the tombstone stays inspectable until the janitor forgets it).
	if status, _ := c.do("DELETE", "/v1/sessions/"+resp.ID, nil); status != http.StatusNoContent {
		t.Errorf("DELETE finished = %d, want 204", status)
	}
	got = c.session("GET", "/v1/sessions/"+resp.ID, nil, http.StatusOK)
	if got.State != "localized" {
		t.Errorf("state after DELETE of finished session = %s, want localized kept", got.State)
	}

	// Deleting a waiting session closes it and unblocks the debugger.
	waiting := c.create(paper.Sqrtest, "")
	if waiting.State != "waiting" {
		t.Fatalf("second session state = %s, want waiting", waiting.State)
	}
	if status, _ := c.do("DELETE", "/v1/sessions/"+waiting.ID, nil); status != http.StatusNoContent {
		t.Errorf("DELETE waiting = %d, want 204", status)
	}
	got = c.session("GET", "/v1/sessions/"+waiting.ID, nil, http.StatusOK)
	if got.State != "closed" {
		t.Errorf("state after DELETE of waiting session = %s, want closed", got.State)
	}
}

// TestCacheSharing submits the same program twice and a different one
// once: the second submission must hit both cache layers.
func TestCacheSharing(t *testing.T) {
	c, reg, _ := newTestServer(t, serve.Options{})

	first := c.create(paper.Sqrtest, "")
	if first.Cache == nil || first.Cache.Artifact != "miss" || first.Cache.Trace != "miss" {
		t.Errorf("first session cache = %+v, want miss/miss", first.Cache)
	}
	second := c.create(paper.Sqrtest, "")
	if second.Cache == nil || second.Cache.Artifact != "hit" || second.Cache.Trace != "hit" {
		t.Errorf("second session cache = %+v, want hit/hit", second.Cache)
	}
	if first.ProgramSHA256 != second.ProgramSHA256 {
		t.Error("same program, different hashes")
	}
	third := c.create(paper.PQR, "")
	if third.Cache == nil || third.Cache.Artifact != "miss" {
		t.Errorf("different program cache = %+v, want artifact miss", third.Cache)
	}

	hits := reg.CounterVec("serve.cache.hits", "layer")
	misses := reg.CounterVec("serve.cache.misses", "layer")
	if got := misses.With("artifact").Value(); got != 2 {
		t.Errorf("artifact misses = %d, want 2", got)
	}
	if got := hits.With("artifact").Value(); got != 1 {
		t.Errorf("artifact hits = %d, want 1", got)
	}
	if got := misses.With("trace").Value(); got != 2 {
		t.Errorf("trace misses = %d, want 2", got)
	}
	if got := hits.With("trace").Value(); got != 1 {
		t.Errorf("trace hits = %d, want 1", got)
	}
}

// TestNoLintSharesTrace checks that the lint flag keys only the
// artifact layer: a no_lint create of a program already traced reuses
// the trace.
func TestNoLintSharesTrace(t *testing.T) {
	c, reg, _ := newTestServer(t, serve.Options{})
	c.create(paper.Sqrtest, "")
	second := c.createReq(serve.CreateRequest{Program: paper.Sqrtest, NoLint: true})
	if second.Cache == nil || second.Cache.Artifact != "miss" || second.Cache.Trace != "hit" {
		t.Errorf("no_lint session cache = %+v, want artifact miss, trace hit", second.Cache)
	}
	if got := reg.CounterVec("serve.cache.hits", "layer").With("trace").Value(); got != 1 {
		t.Errorf("trace hits = %d, want 1", got)
	}
	if got := reg.Counter("exectree.traces").Value(); got != 1 {
		t.Errorf("exectree.traces = %d, want 1", got)
	}
}

// TestOpsSurfaceOnSameListener checks that /metrics and /healthz are
// served by the API listener and carry the per-endpoint counters.
func TestOpsSurfaceOnSameListener(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{})
	c.create(paper.Sqrtest, "")

	status, body := c.do("GET", "/healthz", nil)
	if status != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q", status, body)
	}
	status, body = c.do("GET", "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d", status)
	}
	for _, want := range []string{
		`serve_requests{endpoint="sessions.create"} 1`,
		"serve_sessions_active 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestStrategies runs the same subject under every traversal via the
// API (answers from locally recorded journals per strategy).
func TestStrategies(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{})
	for _, strategy := range []string{"top-down", "divide", "weighted", "bottom-up"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			cc := c.with(t)
			// Record locally under this strategy.
			sys, err := gadt.Load("program.pas", paper.Sqrtest)
			if err != nil {
				t.Fatal(err)
			}
			run, err := sys.Trace("")
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := gadt.IntendedOracle(paper.SqrtestFixed)
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			jw := debugger.NewJournalWriter(&buf)
			st, ok := debugger.ParseStrategy(strategy)
			if !ok {
				t.Fatalf("unknown strategy %q", strategy)
			}
			out, err := run.Debug(&debugger.JournalingOracle{Inner: oracle, Journal: jw},
				gadt.DebugConfig{Strategy: st, Slicing: true, Hints: sys.LintHints()})
			if err != nil {
				t.Fatal(err)
			}

			// Replay over the API under the same strategy.
			body, _ := json.Marshal(serve.CreateRequest{Program: paper.Sqrtest, Strategy: strategy})
			resp := cc.session("POST", "/v1/sessions", body, http.StatusCreated)
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				if resp.State != "waiting" {
					t.Fatalf("not waiting: %s", resp.State)
				}
				resp = cc.answer(resp.ID, []byte(line))
			}
			if resp.State != "localized" || resp.Diagnosis.Unit != out.Bug.Unit.Name {
				t.Fatalf("served %+v, local %q", resp.Diagnosis, out.Bug.Unit.Name)
			}
		})
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
