package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

// layers are the span names the traced pass records around calls into
// the system, one per layer; every other span (campaign, mutant,
// comparison, session, client) is the benchmark's own glue.
var layers = []string{
	"parser",            // parser.ParseProgram
	"sem",               // sem.Analyze
	"lint",              // System.Lint + lint.Hints (analysis/lint, absint)
	"transform",         // System.Transform, transform.ApplyStages
	"exectree",          // System.Trace / TraceLimited: the traced run
	"interp",            // interp.New(..).Run: the untraced run
	"mutate.enumerate",  // mutate.EnumerateProgram
	"mutate.triage",     // mutate.TriageEquivalent
	"harvest",           // tgen.CallDB.HarvestTree + assertion.Generalize
	"oracle",            // gadt.IntendedOracle[Limited]: building the reference
	"oracle.ask",        // IntendedOracle.Ask: one reference replay per question
	"debugger.top-down", // Run.Debug, self time without oracle.ask
	"debugger.divide-and-query",
	"debugger.weighted-dq",
	"debugger.bottom-up",
	"progen",            // diffharness.Subjects, campaign.DefaultSubjects, progen.Generate
	"serve.create-hit",  // POST /v1/sessions, program already cached
	"serve.create-miss", // POST /v1/sessions, new program text
	"serve.answer",      // POST /v1/sessions/{id}/answer
	"serve.delete",      // DELETE /v1/sessions/{id}
}

// recorder keeps the traced pass's spans in memory, on an obs.Tracer
// over a slice sink, and turns them into per-layer self times. A nil
// recorder records nothing, so the untraced and traced passes of a
// workload can share their code.
type recorder struct {
	sink   *memSink
	tracer *obs.Tracer
}

type memSink struct{ events []obs.TraceEvent }

// Emit implements obs.TraceSink; the tracer serializes calls.
func (s *memSink) Emit(e obs.TraceEvent) { s.events = append(s.events, e) }

func newRecorder() *recorder {
	s := &memSink{}
	return &recorder{sink: s, tracer: obs.NewTracer(s)}
}

// span opens a span on the main lane, nested under the open one, and
// tags it with the op (mutant, comparison or session) it belongs to.
func (r *recorder) span(name, op string) *obs.Span {
	if r == nil {
		return nil
	}
	sp := r.tracer.Start(name)
	sp.SetAttr("op", op)
	return sp
}

// lane opens a trace lane of its own for one concurrent client.
func (r *recorder) lane(name string) *obs.Lane {
	if r == nil {
		return nil
	}
	return r.tracer.Lane(name)
}

type layerTime struct {
	selfUS int64 // span time not covered by child spans, µs
	calls  int
}

// layerTimes sums self time and calls per span name.
func (r *recorder) layerTimes() map[string]layerTime {
	childUS := make(map[int64]int64)
	for _, e := range r.sink.events {
		if e.Phase == "E" && e.Parent != 0 {
			childUS[e.Parent] += e.DurUS
		}
	}
	out := make(map[string]layerTime)
	for _, e := range r.sink.events {
		if e.Phase != "E" {
			continue
		}
		lt := out[e.Name]
		lt.selfUS += e.DurUS - childUS[e.ID]
		lt.calls++
		out[e.Name] = lt
	}
	return out
}

// writeChrome writes the recorded spans as a Chrome trace-event file
// (loadable in Perfetto, checked by cmd/tracecheck).
func (r *recorder) writeChrome(file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	sink := obs.NewChromeSink(f)
	for _, e := range r.sink.events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", file, err)
	}
	return f.Close()
}

// load is gadt.Load with the parser and sem layers timed apart.
func (r *recorder) load(op, file, src string) (*gadt.System, error) {
	sp := r.span("parser", op)
	prog, err := parser.ParseProgram(file, src)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = r.span("sem", op)
	info, err := sem.Analyze(prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &gadt.System{File: file, Source: src, Info: info}, nil
}

// trace is System.Trace, or TraceLimited when fuel > 0, with the
// transform and exectree layers timed apart.
func (r *recorder) trace(op string, sys *gadt.System, input string, fuel, depth int) (*gadt.Run, error) {
	sp := r.span("transform", op)
	_, err := sys.Transform()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = r.span("exectree", op)
	defer sp.End()
	if fuel > 0 {
		return sys.TraceLimited(input, fuel, depth)
	}
	return sys.Trace(input)
}

// debug is Run.Debug under its strategy's span; it tallies the
// session's verdicts.
func (r *recorder) debug(op string, run *gadt.Run, oracle debugger.Oracle, dc gadt.DebugConfig, t *tally) (*debugger.Outcome, error) {
	sp := r.span("debugger."+dc.Strategy.String(), op)
	out, err := run.Debug(r.asking(oracle, op), dc)
	sp.End()
	if out != nil {
		t.sessions++
		t.questions += out.Questions
		t.judgments += out.Questions + out.ByAssertions + out.ByTests + out.ByMemo
	}
	return out, err
}

// askSpans times every oracle answer as an oracle.ask span, a child of
// the debugger span that asked.
type askSpans struct {
	inner debugger.Oracle
	rec   *recorder
	op    string
}

func (a *askSpans) Ask(q *debugger.Query) (debugger.Answer, error) {
	sp := a.rec.span("oracle.ask", a.op)
	defer sp.End()
	return a.inner.Ask(q)
}

// asking wraps o so its answers are traced; untraced runs get o itself.
func (r *recorder) asking(o debugger.Oracle, op string) debugger.Oracle {
	if r == nil {
		return o
	}
	return &askSpans{inner: o, rec: r, op: op}
}
