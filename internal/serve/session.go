package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"

	"gadt/internal/debugger"
)

// State is a session's lifecycle position.
type State int

const (
	// StatePreparing: queued or running the pipeline (parse, sem,
	// transform, trace) on the worker pool.
	StatePreparing State = iota
	// StateDeciding: the debugger is between questions (an answer was
	// just delivered, or the first question is being selected).
	StateDeciding
	// StateWaiting: a question is pending; POST …/answer proceeds.
	StateWaiting
	// Terminal states.
	StateLocalized    // bug localized; diagnosis available
	StateInconclusive // search exhausted without localization
	StateFailed       // pipeline or debugging failed; error available
	StateClosed       // DELETEd by the client
	StateEvicted      // reaped by the idle timeout
)

func (s State) String() string {
	switch s {
	case StatePreparing:
		return "preparing"
	case StateDeciding:
		return "deciding"
	case StateWaiting:
		return "waiting"
	case StateLocalized:
		return "localized"
	case StateInconclusive:
		return "inconclusive"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	}
	return "evicted"
}

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool { return s >= StateLocalized }

// errSessionClosed aborts a blocked oracle Ask when the session is
// evicted, deleted, or the server shuts down.
var errSessionClosed = errors.New("serve: session closed")

// Session is one hosted debugging session. The channel-based oracle
// inverts the engine's synchronous Ask into the HTTP request/response
// cycle: the debug goroutine blocks in Ask until a client answer
// arrives over answerCh.
type Session struct {
	ID       string
	Created  time.Time
	Strategy debugger.Strategy
	Hash     string // program SHA-256
	Cache    CacheInfo

	mu      sync.Mutex
	state   State
	touched time.Time
	changed chan struct{} // closed and replaced on every transition

	seq     int             // questions asked so far (== journal seq)
	pending *debugger.Query // non-nil exactly in StateWaiting
	output  string          // traced program output
	runErr  string          // runtime error of the traced execution
	outcome *debugger.Outcome
	failure *apiError // terminal failure (StateFailed)

	answerCh chan debugger.Answer
	quit     chan struct{}
	quitOnce sync.Once

	// onInactive runs once on the transition out of the active set
	// (terminal state reached); the manager decrements
	// serve.sessions.active with it.
	onInactive func()
	inactive   bool
}

func newSession(id string, strategy debugger.Strategy, hash string, onInactive func()) *Session {
	now := time.Now()
	return &Session{
		ID:         id,
		Created:    now,
		Strategy:   strategy,
		Hash:       hash,
		state:      StatePreparing,
		touched:    now,
		changed:    make(chan struct{}),
		answerCh:   make(chan debugger.Answer, 1),
		quit:       make(chan struct{}),
		onInactive: onInactive,
	}
}

// setStateLocked transitions and wakes every waiter. Callers hold mu.
func (s *Session) setStateLocked(st State) {
	s.state = st
	if st.Terminal() && !s.inactive {
		s.inactive = true
		if s.onInactive != nil {
			s.onInactive()
		}
	}
	close(s.changed)
	s.changed = make(chan struct{})
}

// touch refreshes the idle-eviction clock.
func (s *Session) touch() {
	s.mu.Lock()
	s.touched = time.Now()
	s.mu.Unlock()
}

// Ask implements debugger.Oracle for the debug goroutine.
func (s *Session) Ask(q *debugger.Query) (debugger.Answer, error) {
	s.mu.Lock()
	if s.state.Terminal() {
		s.mu.Unlock()
		return debugger.Answer{}, errSessionClosed
	}
	s.seq++
	s.pending = q
	s.setStateLocked(StateWaiting)
	s.mu.Unlock()
	select {
	case a := <-s.answerCh:
		return a, nil
	case <-s.quit:
		return debugger.Answer{}, errSessionClosed
	}
}

// Deliver validates an answer against the pending question and hands it
// to the blocked oracle. The journal-entry echoes (seq, node, unit,
// query) are divergence-checked when present; a rejected answer leaves
// the session waiting so the client can correct and retry.
func (s *Session) Deliver(req debugger.JournalEntry) *apiError {
	s.mu.Lock()
	switch s.state {
	case StateWaiting:
		// proceed
	case StateLocalized, StateInconclusive, StateFailed:
		st := s.state
		s.mu.Unlock()
		return errf(http.StatusConflict, CodeFinished, "session already finished (state %s)", st)
	case StateClosed:
		s.mu.Unlock()
		return errf(http.StatusGone, CodeClosed, "session was deleted")
	case StateEvicted:
		s.mu.Unlock()
		return errf(http.StatusGone, CodeEvicted, "session was evicted by the idle timeout")
	default:
		s.mu.Unlock()
		return errf(http.StatusConflict, CodeNotWaiting, "no pending question (state %s)", s.state)
	}
	q := s.pending
	seq := s.seq
	if apiErr := validateAnswer(req, q, seq); apiErr != nil {
		s.mu.Unlock()
		return apiErr
	}
	a, err := req.Answer(q)
	if err != nil {
		s.mu.Unlock()
		return errf(http.StatusBadRequest, CodeBadAnswer, "%v", err)
	}
	s.pending = nil
	s.setStateLocked(StateDeciding)
	s.mu.Unlock()
	// Exactly one Ask is outstanding per pending question and the
	// channel is buffered, so this never blocks.
	s.answerCh <- a
	return nil
}

// validateAnswer divergence-checks the journal-entry echoes.
func validateAnswer(req debugger.JournalEntry, q *debugger.Query, seq int) *apiError {
	if req.Kind != "" && req.Kind != "query" {
		return errf(http.StatusBadRequest, CodeBadAnswer, "answer kind must be \"query\", got %q", req.Kind)
	}
	if req.Seq != 0 && req.Seq != seq {
		return errf(http.StatusConflict, CodeDivergence,
			"answer is for question %d but question %d is pending", req.Seq, seq)
	}
	if req.Node != 0 && req.Node != q.Node.ID {
		return errf(http.StatusConflict, CodeDivergence,
			"answer is for node %d but the pending question is about node %d", req.Node, q.Node.ID)
	}
	if req.Unit != "" && req.Unit != q.Node.Unit.Name {
		return errf(http.StatusConflict, CodeDivergence,
			"answer is for unit %q but the pending question is about %q", req.Unit, q.Node.Unit.Name)
	}
	if req.Query != "" && req.Query != q.Text {
		return errf(http.StatusConflict, CodeDivergence,
			"answer echoes query %q but the pending question is %q", req.Query, q.Text)
	}
	return nil
}

// fail moves the session to StateFailed (no-op if already terminal).
func (s *Session) fail(e *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		return
	}
	s.failure = e
	s.setStateLocked(StateFailed)
}

// finish records the debugging outcome (or error) as the terminal
// state.
func (s *Session) finish(out *debugger.Outcome, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		// Evicted or deleted mid-session: keep that state.
		return
	}
	if err != nil {
		code, status := CodeDebugFailed, http.StatusInternalServerError
		switch {
		case isBudgetError(err):
			code, status = CodeQuestionsBudget, http.StatusConflict
		case strings.Contains(err.Error(), "nothing to search"):
			// A trivial or fully-pruned program leaves the debugger with
			// an empty search view — a property of the submission, not a
			// server fault.
			code, status = CodeNothingToDebug, http.StatusUnprocessableEntity
		}
		s.failure = errf(status, code, "debugging failed: %v", err)
		s.outcome = out
		s.setStateLocked(StateFailed)
		return
	}
	s.outcome = out
	if out.Localized() {
		s.setStateLocked(StateLocalized)
	} else {
		s.setStateLocked(StateInconclusive)
	}
}

// isBudgetError matches the engine's question-budget exhaustion.
func isBudgetError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "question budget")
}

// closeWith tears the session down into a terminal state (Closed or
// Evicted), releasing a blocked debug goroutine.
func (s *Session) closeWith(st State) {
	s.mu.Lock()
	if !s.state.Terminal() {
		s.pending = nil
		s.setStateLocked(st)
	}
	s.mu.Unlock()
	s.quitOnce.Do(func() { close(s.quit) })
}

// awaitReady blocks until the session leaves the transient states
// (preparing/deciding) or ctx expires, then returns the snapshot and,
// when the session has failed, its failure.
func (s *Session) awaitReady(ctx context.Context) (SessionResponse, *apiError) {
	for {
		s.mu.Lock()
		if (s.state != StatePreparing && s.state != StateDeciding) || ctx.Err() != nil {
			resp, failure := s.snapshotLocked(), s.failure
			s.mu.Unlock()
			return resp, failure
		}
		ch := s.changed
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
}

// Snapshot renders the wire representation.
func (s *Session) Snapshot() SessionResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked is Snapshot for callers holding mu.
func (s *Session) snapshotLocked() SessionResponse {
	cache := s.Cache
	resp := SessionResponse{
		ID:              s.ID,
		State:           s.state.String(),
		Strategy:        s.Strategy.String(),
		ProgramSHA256:   s.Hash,
		PipelineVersion: PipelineVersion,
		Cache:           &cache,
		Output:          s.output,
		RunError:        s.runErr,
		Questions:       s.seq,
	}
	if s.pending != nil {
		resp.Question = &Question{
			Seq:     s.seq,
			Node:    s.pending.Node.ID,
			Unit:    s.pending.Node.Unit.Name,
			Query:   s.pending.Text,
			Outputs: s.pending.Outputs,
		}
	}
	if s.outcome != nil && (s.state == StateLocalized || s.state == StateInconclusive) {
		d := &Diagnosis{
			Localized:    s.outcome.Localized(),
			Reason:       s.outcome.Reason,
			Questions:    s.outcome.Questions,
			ByMemo:       s.outcome.ByMemo,
			ByAssertions: s.outcome.ByAssertions,
			ByTests:      s.outcome.ByTests,
			Slices:       s.outcome.Slices,
		}
		if s.outcome.Bug != nil {
			d.Unit = s.outcome.Bug.Unit.Name
			d.Node = s.outcome.Bug.ID
		}
		resp.Diagnosis = d
	}
	if s.failure != nil {
		resp.Error = &ErrorBody{Code: s.failure.Code, Message: s.failure.Message}
	}
	return resp
}

// idleSince returns the last-touch time.
func (s *Session) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touched
}

// currentState returns the state under the lock.
func (s *Session) currentState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}
