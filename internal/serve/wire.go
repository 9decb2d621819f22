// Package serve hosts the GADT pipeline (package gadt) as a
// long-running HTTP/JSON service: many simultaneous algorithmic
// debugging sessions, each an oracle question/answer loop over the
// wire, backed by a worker pool with per-session fuel/depth budgets and
// a content-addressed cache that computes parse/sem/transform artifacts
// and execution traces once per (program hash, pipeline version) and
// shares them across sessions.
//
// The wire schema is the session-journal JSONL entry format from
// internal/debugger: every pending question is rendered as a journal
// "query" record, and the body of POST /v1/sessions/{id}/answer is a
// debugger.JournalEntry — so a session recorded with `gadt -journal`
// replays against the server verbatim, line by line, with server-side
// divergence checking on the seq/node/unit/query echoes. Seq, Node,
// Unit and Query, when set, must echo the pending question; a mismatch
// is a replay divergence and is rejected without consuming the answer.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"gadt/internal/debugger"
)

// PipelineVersion is baked into every cache key: bumping it after a
// semantics-affecting change to parse/sem/transform/trace invalidates
// all cached artifacts at once.
const PipelineVersion = "gadt-pipeline/1"

// CreateRequest is the body of POST /v1/sessions.
type CreateRequest struct {
	// Program is the Pascal source of the misbehaving program.
	Program string `json:"program"`
	// File names the program in diagnostics and loop-query text
	// (default "program.pas"). Loop questions embed file:line, so when
	// replaying a CLI journal set this to the path in its session
	// header to keep the query echoes byte-for-byte identical.
	File string `json:"file,omitempty"`
	// Input is fed to read/readln during the traced execution.
	Input string `json:"input,omitempty"`
	// Strategy selects the traversal: "top-down" (default), "divide"
	// (alias "divide-and-query"), "weighted" (alias "weighted-dq",
	// "weighted-divide-and-query") or "bottom-up".
	Strategy string `json:"strategy,omitempty"`
	// The pipeline defaults mirror the gadt CLI: transformation on,
	// plint hints on, dynamic slicing on. A journal recorded by the CLI
	// with default flags therefore replays against a default session.
	NoTransform bool `json:"no_transform,omitempty"`
	NoLint      bool `json:"no_lint,omitempty"`
	NoSlicing   bool `json:"no_slicing,omitempty"`
	// MaxQuestions bounds oracle interactions (0 = engine default).
	MaxQuestions int `json:"max_questions,omitempty"`
}

// Question is a pending oracle question, shaped like a journal entry.
type Question struct {
	Seq     int      `json:"seq"`
	Node    int64    `json:"node"`
	Unit    string   `json:"unit"`
	Query   string   `json:"query"`
	Outputs []string `json:"outputs,omitempty"`
}

// Diagnosis is the terminal result of a localized (or exhausted)
// session.
type Diagnosis struct {
	Localized    bool   `json:"localized"`
	Unit         string `json:"unit,omitempty"`
	Node         int64  `json:"node,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Questions    int    `json:"questions"`
	ByMemo       int    `json:"by_memo,omitempty"`
	ByAssertions int    `json:"by_assertions,omitempty"`
	ByTests      int    `json:"by_tests,omitempty"`
	Slices       int    `json:"slices,omitempty"`
}

// CacheInfo reports, per layer, whether this session's pipeline work
// was shared ("hit") or computed ("miss").
type CacheInfo struct {
	Artifact string `json:"artifact,omitempty"`
	Trace    string `json:"trace,omitempty"`
}

// SessionResponse is the representation of a session returned by every
// session endpoint.
type SessionResponse struct {
	ID              string     `json:"id"`
	State           string     `json:"state"`
	Strategy        string     `json:"strategy"`
	ProgramSHA256   string     `json:"program_sha256"`
	PipelineVersion string     `json:"pipeline_version"`
	Cache           *CacheInfo `json:"cache,omitempty"`
	Output          string     `json:"output,omitempty"`
	RunError        string     `json:"run_error,omitempty"`
	Questions       int        `json:"questions"`
	Question        *Question  `json:"question,omitempty"`
	Diagnosis       *Diagnosis `json:"diagnosis,omitempty"`
	Error           *ErrorBody `json:"error,omitempty"`
}

// ListResponse is the body of GET /v1/sessions.
type ListResponse struct {
	Sessions []SessionResponse `json:"sessions"`
}

// ErrorBody is the JSON error envelope. Code is a stable
// machine-readable slug; clients switch on it, not on Message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stable error codes.
const (
	CodeBadRequest      = "bad_request"
	CodeBodyTooLarge    = "body_too_large"
	CodeParseError      = "parse_error"
	CodeSemError        = "sem_error"
	CodeTransformError  = "transform_error"
	CodeFuelExhausted   = "fuel_exhausted"
	CodeDepthExhausted  = "depth_exhausted"
	CodeEmptyTree       = "empty_tree"
	CodeNothingToDebug  = "nothing_to_debug"
	CodeNotFound        = "session_not_found"
	CodeFinished        = "session_finished"
	CodeEvicted         = "session_evicted"
	CodeClosed          = "session_closed"
	CodeNotWaiting      = "not_waiting"
	CodeDivergence      = "answer_divergence"
	CodeBadAnswer       = "bad_answer"
	CodeBusy            = "server_busy"
	CodeSessionLimit    = "session_limit"
	CodeDebugFailed     = "debug_failed"
	CodeQuestionsBudget = "question_budget_exhausted"
)

// apiError is an error carrying an HTTP status and a stable code.
type apiError struct {
	Status  int
	Code    string
	Message string
}

func (e *apiError) Error() string { return e.Code + ": " + e.Message }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// parseStrategy maps wire strategy names (the gadt CLI spelling and the
// journal-header spelling) onto engine strategies.
func parseStrategy(s string) (debugger.Strategy, *apiError) {
	if strat, ok := debugger.ParseStrategy(s); ok {
		return strat, nil
	}
	return 0, errf(http.StatusBadRequest, CodeBadRequest, "unknown strategy %q", s)
}

// decodeJSON strictly decodes a request body into v: unknown fields,
// trailing data and oversized bodies are errors. The returned apiError
// distinguishes body_too_large (413) from bad_request (400).
func decodeJSON(body []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, CodeBadRequest, "invalid JSON body: %v", err)
	}
	// A second document (or non-whitespace trailing bytes) means the
	// body is not exactly one JSON object.
	if dec.More() {
		return errf(http.StatusBadRequest, CodeBadRequest, "trailing data after JSON body")
	}
	return nil
}

// readBody drains the (already size-capped) request body, mapping the
// over-limit error onto the stable 413 code.
func readBody(r *http.Request) ([]byte, *apiError) {
	body, err := readAll(r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, errf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
	}
	return body, nil
}
