// Adversarial tests: hostile programs and malformed requests must come
// back as clean, stable error codes — never a hung worker or a 500.
package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"gadt/internal/debugger"
	"gadt/internal/paper"
	"gadt/internal/serve"
)

// fuelBomb loops forever without deep recursion: it exhausts the
// statement budget first.
const fuelBomb = `program bomb;
var x: integer;
begin
  x := 0;
  while x >= 0 do
    x := 1;
  writeln(x)
end.
`

// depthBomb recurses without bound: it exhausts the frame budget.
const depthBomb = `program bomb;
var r: integer;

procedure dig(n: integer; var r: integer);
begin
  dig(n + 1, r);
end;

begin
  dig(0, r);
  writeln(r)
end.
`

// nonLocalGoto jumps out of a function to a label of the main program,
// which the transformation phase rejects.
const nonLocalGoto = `program t;
label 9;
var x: integer;

function f(n: integer): integer;
begin
  if n < 0 then goto 9;
  f := n;
end;

begin
  x := f(3);
  9: writeln(x);
end.
`

// countLoop terminates after about 100,000 statements.
const countLoop = `program count;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 100000 do
    s := s + 1;
  writeln(s)
end.
`

// errBody decodes the error envelope.
func errBody(t *testing.T, raw []byte) serve.ErrorBody {
	t.Helper()
	var e struct {
		Error serve.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body is not the envelope: %v\n%s", err, raw)
	}
	return e.Error
}

func createBody(program string) []byte {
	b, _ := json.Marshal(serve.CreateRequest{Program: program})
	return b
}

func TestFuelBombRejected(t *testing.T) {
	// A tiny fuel budget and a huge depth budget force the fuel
	// sentinel; the transformed program turns the while loop into
	// recursive loop units, so depth must not trip first.
	c, _, _ := newTestServer(t, serve.Options{Fuel: 50_000, Depth: 1_000_000})
	status, raw := c.do("POST", "/v1/sessions", createBody(fuelBomb))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("fuel bomb = %d, want 422\n%s", status, raw)
	}
	var resp serve.SessionResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != "failed" || resp.Error == nil || resp.Error.Code != serve.CodeFuelExhausted {
		t.Fatalf("state=%s error=%+v, want failed/fuel_exhausted", resp.State, resp.Error)
	}

	// Resubmission is served from the (negative) trace cache.
	status, raw = c.do("POST", "/v1/sessions", createBody(fuelBomb))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("fuel bomb resubmit = %d, want 422\n%s", status, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache == nil || resp.Cache.Trace != "hit" {
		t.Errorf("resubmitted bomb cache = %+v, want trace hit", resp.Cache)
	}

	// An untransformed trace runs under the same budget, not under the
	// interpreter's default of 5,000,000 statements, within which
	// countLoop would end.
	body, _ := json.Marshal(serve.CreateRequest{Program: countLoop, NoTransform: true})
	status, raw = c.do("POST", "/v1/sessions", body)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("no_transform loop = %d, want 422\n%s", status, raw)
	}
	var loop serve.SessionResponse
	if err := json.Unmarshal(raw, &loop); err != nil {
		t.Fatal(err)
	}
	if loop.Error == nil || loop.Error.Code != serve.CodeFuelExhausted {
		t.Fatalf("no_transform loop error = %+v, want fuel_exhausted", loop.Error)
	}
}

// TestExhaustedRunsKeepNoTree checks that a run the fuel budget stopped
// is cached without its partial execution tree: distinct untransformed
// bombs, each calling a procedure from an endless loop until the fuel
// runs out, leave the live heap almost as it was.
func TestExhaustedRunsKeepNoTree(t *testing.T) {
	const bombs = 8
	c, _, _ := newTestServer(t, serve.Options{Fuel: 50_000})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < bombs; i++ {
		src := fmt.Sprintf(`program bomb;
var x: integer;

procedure p(var x: integer);
begin
  x := x + %d
end;

begin
  x := 0;
  while x >= 0 do
    p(x);
  writeln(x)
end.
`, i+1)
		body, _ := json.Marshal(serve.CreateRequest{Program: src, NoTransform: true})
		status, raw := c.do("POST", "/v1/sessions", body)
		if status != http.StatusUnprocessableEntity || errBody(t, raw).Code != serve.CodeFuelExhausted {
			t.Fatalf("bomb %d = %d, want 422 fuel_exhausted\n%s", i, status, raw)
		}
	}
	// A kept partial tree holds about 5 MB per bomb at this fuel.
	const bound = 2 << 20
	if grown := int64(heap()) - int64(before); grown > bound {
		t.Errorf("%d fuel-exhausted runs grew the live heap by %d bytes, want at most %d", bombs, grown, bound)
	}
}

func TestDepthBombRejected(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{Fuel: 100_000_000, Depth: 100})
	status, raw := c.do("POST", "/v1/sessions", createBody(depthBomb))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("depth bomb = %d, want 422\n%s", status, raw)
	}
	var resp serve.SessionResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != "failed" || resp.Error == nil || resp.Error.Code != serve.CodeDepthExhausted {
		t.Fatalf("state=%s error=%+v, want failed/depth_exhausted", resp.State, resp.Error)
	}
}

func TestMalformedBodies(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"empty", ``, http.StatusBadRequest, serve.CodeBadRequest},
		{"not json", `this is not json`, http.StatusBadRequest, serve.CodeBadRequest},
		{"truncated", `{"program": "prog`, http.StatusBadRequest, serve.CodeBadRequest},
		{"unknown field", `{"program": "x", "exploit": true}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"trailing data", `{"program": "x"} {"program": "y"}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"wrong type", `{"program": 42}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"empty program", `{}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"bad strategy", `{"program": "x", "strategy": "quantum"}`, http.StatusBadRequest, serve.CodeBadRequest},
		{"unparsable program", `{"program": "not pascal"}`, http.StatusUnprocessableEntity, serve.CodeParseError},
		{"undeclared variable", `{"program": "program p; begin x := 1 end."}`, http.StatusUnprocessableEntity, serve.CodeSemError},
		{"non-local goto", string(createBody(nonLocalGoto)), http.StatusUnprocessableEntity, serve.CodeTransformError},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			status, raw := c.with(t).do("POST", "/v1/sessions", []byte(tc.body))
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d\n%s", status, tc.wantStatus, raw)
			}
			code := ""
			if tc.wantStatus == http.StatusUnprocessableEntity {
				// Pipeline failures answer with the session body.
				var resp serve.SessionResponse
				if err := json.Unmarshal(raw, &resp); err != nil || resp.Error == nil {
					t.Fatalf("not a session body: %v\n%s", err, raw)
				}
				code = resp.Error.Code
			} else {
				code = errBody(t, raw).Code
			}
			if code != tc.wantCode {
				t.Errorf("code = %q, want %q", code, tc.wantCode)
			}
		})
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{MaxBody: 4096})
	huge, _ := json.Marshal(serve.CreateRequest{Program: strings.Repeat("x", 64<<10)})
	status, raw := c.do("POST", "/v1/sessions", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413\n%s", status, raw)
	}
	if code := errBody(t, raw).Code; code != serve.CodeBodyTooLarge {
		t.Errorf("code = %q, want %q", code, serve.CodeBodyTooLarge)
	}
}

// TestAnswerLifecycleCodes pins the stable error codes for answering
// sessions in every wrong state: unknown, finished, deleted, evicted.
func TestAnswerLifecycleCodes(t *testing.T) {
	c, _, srv := newTestServer(t, serve.Options{IdleTimeout: time.Hour})
	correct := []byte(`{"verdict":"correct"}`)

	status, raw := c.do("POST", "/v1/sessions/s-doesnotexist/answer", correct)
	if status != http.StatusNotFound || errBody(t, raw).Code != serve.CodeNotFound {
		t.Errorf("unknown id: %d %s, want 404 session_not_found", status, raw)
	}

	// Finish a session, then answer it again.
	resp := c.create(paper.Sqrtest, "")
	for resp.State == "waiting" {
		resp = c.answer(resp.ID, correct)
	}
	status, raw = c.do("POST", "/v1/sessions/"+resp.ID+"/answer", correct)
	if status != http.StatusConflict || errBody(t, raw).Code != serve.CodeFinished {
		t.Errorf("finished: %d %s, want 409 session_finished", status, raw)
	}

	// Delete a waiting session, then answer it.
	resp = c.create(paper.PQR, "")
	if status, _ := c.do("DELETE", "/v1/sessions/"+resp.ID, nil); status != http.StatusNoContent {
		t.Fatalf("DELETE = %d", status)
	}
	status, raw = c.do("POST", "/v1/sessions/"+resp.ID+"/answer", correct)
	if status != http.StatusGone || errBody(t, raw).Code != serve.CodeClosed {
		t.Errorf("deleted: %d %s, want 410 session_closed", status, raw)
	}

	// Evict a waiting session via a sweep at a future instant, then
	// answer it: 410 session_evicted. A much later sweep forgets the
	// tombstone entirely: 404.
	resp = c.create(paper.Sqrtest, "")
	srv.Manager().Sweep(time.Now().Add(2 * time.Hour))
	status, raw = c.do("POST", "/v1/sessions/"+resp.ID+"/answer", correct)
	if status != http.StatusGone || errBody(t, raw).Code != serve.CodeEvicted {
		t.Errorf("evicted: %d %s, want 410 session_evicted", status, raw)
	}
	srv.Manager().Sweep(time.Now().Add(48 * time.Hour))
	status, raw = c.do("POST", "/v1/sessions/"+resp.ID+"/answer", correct)
	if status != http.StatusNotFound || errBody(t, raw).Code != serve.CodeNotFound {
		t.Errorf("forgotten: %d %s, want 404 session_not_found", status, raw)
	}
}

// TestSessionLimitForgetsTombstones: tombstones never lock out new
// sessions. At MaxSessions a create forgets the oldest tombstone; only
// a registry full of live sessions answers 429 session_limit.
func TestSessionLimitForgetsTombstones(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{MaxSessions: 4, IdleTimeout: time.Hour})
	var deleted []string
	for i := 0; i < 4; i++ {
		id := c.create(paper.Sqrtest, "").ID
		if status, _ := c.do("DELETE", "/v1/sessions/"+id, nil); status != http.StatusNoContent {
			t.Fatalf("DELETE = %d", status)
		}
		deleted = append(deleted, id)
	}

	// Four tombstones fill the registry: the 5th create still succeeds
	// and forgets the oldest tombstone.
	c.create(paper.Sqrtest, "")
	if status, _ := c.do("GET", "/v1/sessions/"+deleted[0], nil); status != http.StatusNotFound {
		t.Errorf("oldest tombstone: GET = %d, want 404", status)
	}
	if status, _ := c.do("GET", "/v1/sessions/"+deleted[1], nil); status != http.StatusOK {
		t.Errorf("newer tombstone: GET = %d, want 200", status)
	}

	// Three more creates replace the remaining tombstones; with four
	// live sessions the next create is refused.
	for i := 0; i < 3; i++ {
		c.create(paper.Sqrtest, "")
	}
	body, _ := json.Marshal(serve.CreateRequest{Program: paper.Sqrtest})
	status, raw := c.do("POST", "/v1/sessions", body)
	if status != http.StatusTooManyRequests || errBody(t, raw).Code != serve.CodeSessionLimit {
		t.Errorf("5th live session: %d %s, want 429 session_limit", status, raw)
	}
}

// TestBadAnswers pins rejection of invalid answers and divergent
// echoes; the session stays waiting and remains answerable.
func TestBadAnswers(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{})
	resp := c.create(paper.Sqrtest, "")
	if resp.State != "waiting" {
		t.Fatalf("state = %s", resp.State)
	}
	id, q := resp.ID, resp.Question

	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"no verdict", `{}`, http.StatusBadRequest, serve.CodeBadAnswer},
		{"bad verdict", `{"verdict":"maybe"}`, http.StatusBadRequest, serve.CodeBadAnswer},
		{"bad kind", `{"kind":"session","verdict":"correct"}`, http.StatusBadRequest, serve.CodeBadAnswer},
		{"wrong_output without incorrect", `{"verdict":"correct","wrong_output":"x"}`, http.StatusBadRequest, serve.CodeBadAnswer},
		{"unknown wrong_output", `{"verdict":"incorrect","wrong_output":"nosuchvar"}`, http.StatusBadRequest, serve.CodeBadAnswer},
		{"bad assertion", `{"assertion":"not a valid assertion ((("}`, http.StatusBadRequest, serve.CodeBadAnswer},
		{"seq echo mismatch", `{"seq":99,"verdict":"correct"}`, http.StatusConflict, serve.CodeDivergence},
		{"node echo mismatch", `{"node":123456,"verdict":"correct"}`, http.StatusConflict, serve.CodeDivergence},
		{"unit echo mismatch", `{"unit":"nosuchunit","verdict":"correct"}`, http.StatusConflict, serve.CodeDivergence},
		{"query echo mismatch", `{"query":"wrong question?","verdict":"correct"}`, http.StatusConflict, serve.CodeDivergence},
	}
	for _, tc := range cases {
		status, raw := c.do("POST", "/v1/sessions/"+id+"/answer", []byte(tc.body))
		if status != tc.wantStatus || errBody(t, raw).Code != tc.wantCode {
			t.Errorf("%s: %d %s, want %d %s", tc.name, status, raw, tc.wantStatus, tc.wantCode)
		}
	}

	// None of that consumed the question: the same one is still pending
	// and a valid answer with full echoes goes through.
	got := c.session("GET", "/v1/sessions/"+id, nil, http.StatusOK)
	if got.State != "waiting" || got.Question == nil || got.Question.Seq != q.Seq || got.Question.Query != q.Query {
		t.Fatalf("session no longer waiting on the same question: %+v", got.Question)
	}
	ans, _ := json.Marshal(debugger.JournalEntry{
		Kind: "query", Seq: q.Seq, Node: q.Node, Unit: q.Unit, Query: q.Query, Verdict: "correct",
	})
	after := c.answer(id, ans)
	if after.Questions != q.Seq+1 && after.State == "waiting" {
		t.Errorf("valid answer after rejections did not advance: %+v", after)
	}
}

// TestQuestionBudget pins the max_questions bound.
func TestQuestionBudget(t *testing.T) {
	c, _, _ := newTestServer(t, serve.Options{})
	body, _ := json.Marshal(serve.CreateRequest{Program: paper.Sqrtest, MaxQuestions: 2})
	resp := c.session("POST", "/v1/sessions", body, http.StatusCreated)
	for resp.State == "waiting" {
		resp = c.answer(resp.ID, []byte(`{"verdict":"incorrect"}`))
	}
	if resp.State != "failed" || resp.Error == nil || resp.Error.Code != serve.CodeQuestionsBudget {
		t.Fatalf("state=%s error=%+v, want failed/question_budget_exhausted", resp.State, resp.Error)
	}
}
