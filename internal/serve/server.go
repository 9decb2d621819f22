package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"gadt/internal/debugger"
	"gadt/internal/obs"
)

// Server is the HTTP front of the debugging service. One mux carries
// both the /v1 session API and the obs operations surface (/metrics,
// /healthz, pprof …), so a single listener serves traffic and
// observability.
type Server struct {
	reg *obs.Registry
	mgr *Manager
	mux *http.ServeMux

	requests *obs.CounterVec   // serve.requests{endpoint=…}
	statuses *obs.CounterVec   // serve.responses{status=…}
	duration *obs.HistogramVec // serve.request.duration{endpoint=…}
	maxBody  int64
}

// NewServer wires the API routes and the ops surface onto one handler.
func NewServer(reg *obs.Registry, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		reg:      reg,
		mgr:      NewManager(reg, opts),
		mux:      http.NewServeMux(),
		requests: reg.CounterVec("serve.requests", "endpoint"),
		statuses: reg.CounterVec("serve.responses", "status"),
		duration: reg.HistogramVec("serve.request.duration", "endpoint"),
		maxBody:  opts.MaxBody,
	}
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("sessions.create", s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("sessions.list", s.handleList))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("sessions.get", s.handleGet))
	s.mux.HandleFunc("POST /v1/sessions/{id}/answer", s.instrument("sessions.answer", s.handleAnswer))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("sessions.delete", s.handleDelete))
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	obs.RegisterOps(s.mux, reg)
	return s
}

// Handler returns the combined API + ops handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the session manager (tests drive eviction sweeps).
func (s *Server) Manager() *Manager { return s.mgr }

// Close shuts down the service core.
func (s *Server) Close() { s.mgr.Close() }

// instrument wraps a handler with the per-endpoint request counter and
// duration histogram, and the body-size cap.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.requests.With(endpoint)
	dur := s.duration.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		h(w, r)
		dur.Observe(time.Since(start))
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "gadt-serve: debugging as a service")
	fmt.Fprintln(w, "  POST   /v1/sessions             submit program + input, get the first question")
	fmt.Fprintln(w, "  GET    /v1/sessions             list sessions")
	fmt.Fprintln(w, "  GET    /v1/sessions/{id}        session state, pending question, diagnosis")
	fmt.Fprintln(w, "  POST   /v1/sessions/{id}/answer answer the pending question (journal-entry JSON)")
	fmt.Fprintln(w, "  DELETE /v1/sessions/{id}        end a session")
	for _, p := range obs.OpsPaths {
		fmt.Fprintf(w, "  GET    %s\n", p)
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, apiErr := readBody(r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	var req CreateRequest
	if apiErr := decodeJSON(body, &req); apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	sess, apiErr := s.mgr.Create(req)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.mgr.opts.PrepareWait)
	defer cancel()
	resp, failure := sess.awaitReady(ctx)
	// A pipeline rejection (parse error, fuel bomb …) surfaces as the
	// session's terminal failure: answer with its status so the client
	// sees a clean 4xx, and keep the session id in the body for
	// inspection.
	if failure != nil {
		s.writeJSON(w, failure.Status, resp)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+sess.ID)
	s.writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, ListResponse{Sessions: s.mgr.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, apiErr := s.mgr.Get(r.PathValue("id"))
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	sess.touch()
	s.writeJSON(w, http.StatusOK, sess.Snapshot())
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	sess, apiErr := s.mgr.Get(r.PathValue("id"))
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	sess.touch()
	body, apiErr := readBody(r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	var req debugger.JournalEntry
	if apiErr := decodeJSON(body, &req); apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	if apiErr := sess.Deliver(req); apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.mgr.opts.AnswerWait)
	defer cancel()
	resp, _ := sess.awaitReady(ctx)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if apiErr := s.mgr.Delete(r.PathValue("id")); apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	s.statuses.With("204").Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.statuses.With(fmt.Sprint(status)).Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	s.writeJSON(w, e.Status, struct {
		Error ErrorBody `json:"error"`
	}{ErrorBody{Code: e.Code, Message: e.Message}})
}

// readAll drains the request body (already wrapped by MaxBytesReader).
func readAll(r *http.Request) ([]byte, error) {
	return io.ReadAll(r.Body)
}
