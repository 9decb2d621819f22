package dynamic_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/exectree"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/dynamic"
	"gadt/internal/transform"
)

// traceEager runs info once with the tree builder and a Recorder side by
// side: the graph every traced run used to record.
func traceEager(info *sem.Info, input string, maxSteps int) (*exectree.Tree, *dynamic.Recorder, error) {
	b := exectree.NewBuilder()
	rec := dynamic.NewRecorder(info)
	err := interp.New(info, interp.Config{
		Input:    strings.NewReader(input),
		Sink:     interp.MultiSink{b, rec},
		MaxSteps: maxSteps,
	}).Run()
	return b.Tree(), rec, err
}

// checkSameGraph requires the graph Deps builds on demand to equal the
// eagerly recorded one: size, edges, and the slice on every output of
// every node.
func checkSameGraph(t *testing.T, info *sem.Info, input string, maxSteps int) error {
	t.Helper()
	tree, eager, runErr := traceEager(info, input, maxSteps)
	deps := &dynamic.Deps{Info: info, Input: input, MaxSteps: maxSteps, Nodes: tree.Size()}
	lazy, err := deps.Recorder()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if eager.Events() != lazy.Events() || eager.Edges() != lazy.Edges() {
		t.Fatalf("graph: %d events/%d edges on demand, %d/%d eagerly",
			lazy.Events(), lazy.Edges(), eager.Events(), eager.Edges())
	}
	for _, n := range tree.Nodes {
		for _, out := range n.OutputNames() {
			want, werr := eager.SliceOnOutput(tree, n, out)
			got, gerr := deps.SliceOnOutput(tree, n, out)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("node %d %s.%s: error %v on demand, %v eagerly", n.ID, n.Unit.Name, out, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(got.Kept, want.Kept) {
				t.Fatalf("node %d %s.%s: slice keeps %d nodes on demand, %d eagerly",
					n.ID, n.Unit.Name, out, got.Size(), want.Size())
			}
		}
	}
	return runErr
}

// TestDepsMatchesEagerRecording: over the campaign subjects, original
// and transformed, complete and cut short by fuel, the graph built on
// the first slice is the one recording during tracing produced.
func TestDepsMatchesEagerRecording(t *testing.T) {
	partial := 0
	for _, s := range corpus.Subjects() {
		prog, err := parser.ParseProgram(s.Name+".pas", s.Source)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		orig, err := sem.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		tr, err := transform.Apply(orig)
		if err != nil {
			t.Fatalf("%s: transform: %v", s.Name, err)
		}
		for _, c := range []struct {
			name string
			info *sem.Info
		}{{"original", orig}, {"transformed", tr.Info}} {
			for _, fuel := range []int{0, 500} {
				t.Run(fmt.Sprintf("%s/%s/fuel=%d", s.Name, c.name, fuel), func(t *testing.T) {
					err := checkSameGraph(t, c.info, s.Input, fuel)
					if errors.Is(err, interp.ErrFuelExhausted) {
						partial++
					} else if err != nil {
						t.Fatalf("run: %v", err)
					}
				})
			}
		}
	}
	if partial == 0 {
		t.Error("no run exhausted the 500-step fuel: the partial-tree case went untested")
	}
}

// TestDepsMatchesEagerRecordingAfterCrash covers a run that stops on a
// runtime error: the replay crashes at the same statement.
func TestDepsMatchesEagerRecordingAfterCrash(t *testing.T) {
	info := mustAnalyze(t, `
program t;
var x, y: integer;

procedure setup(var v: integer);
begin
  v := 0;
end;

procedure use(d: integer; var r: integer);
begin
  r := 10 div d;
end;

begin
  setup(x);
  use(x, y);
  writeln(y);
end.`)
	var re *interp.RuntimeError
	if err := checkSameGraph(t, info, "", 0); !errors.As(err, &re) {
		t.Fatalf("run error = %v, want a runtime error", err)
	}
}

// readCalls calls p once per unit of its input number.
const readCalls = `
program t;
var n, i, s: integer;

procedure p(k: integer; var acc: integer);
begin
  acc := acc + k;
end;

begin
  read(n);
  for i := 1 to n do
    p(i, s);
  writeln(s);
end.`

func mustAnalyze(t *testing.T, src string) *sem.Info {
	t.Helper()
	info, err := sem.Analyze(parser.MustParse("t.pas", src))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestDepsRejectsDifferentRun: a replay that makes a different number of
// calls than the tree has nodes is another run, so every slice fails
// instead of answering from it.
func TestDepsRejectsDifferentRun(t *testing.T) {
	info := mustAnalyze(t, readCalls)
	res := exectree.Trace(info, "3")
	if res.Err != nil || res.Tree.Size() != 4 {
		t.Fatalf("trace: %d nodes, err %v; want 4 nodes", res.Tree.Size(), res.Err)
	}
	reg := obs.NewRegistry()
	deps := &dynamic.Deps{Info: info, Input: "5", Nodes: res.Tree.Size(), Metrics: reg}
	for i := 0; i < 2; i++ {
		if _, err := deps.SliceOnOutput(res.Tree, res.Tree.Nodes[1], "acc"); err == nil ||
			!strings.Contains(err.Error(), "replay made 6 calls, the execution tree has 4 nodes") {
			t.Fatalf("slice %d: err = %v, want the call-count mismatch", i, err)
		}
	}
	if got := reg.Counter("slicing.dynamic.builds").Value(); got != 1 {
		t.Errorf("slicing.dynamic.builds = %d, want 1 (a failed build is not retried)", got)
	}
	if got := reg.Gauge("slicing.dynamic.events").Value(); got != 0 {
		t.Errorf("slicing.dynamic.events = %d, want 0 (no graph was kept)", got)
	}
}

// TestDepsConcurrentFirstUse: sessions sharing one trace may slice at
// the same moment; the graph is built once and all of them read it.
func TestDepsConcurrentFirstUse(t *testing.T) {
	info := mustAnalyze(t, readCalls)
	res := exectree.Trace(info, "4")
	reg := obs.NewRegistry()
	deps := &dynamic.Deps{Info: info, Input: "4", Nodes: res.Tree.Size(), Metrics: reg}
	last := res.Tree.Nodes[len(res.Tree.Nodes)-1]
	var wg sync.WaitGroup
	sizes := make([]int, 8)
	for i := range sizes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sl, err := deps.SliceOnOutput(res.Tree, last, "acc")
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = sl.Size()
		}(i)
	}
	wg.Wait()
	for i, n := range sizes {
		if n != res.Tree.Size() {
			t.Errorf("session %d: slice keeps %d nodes, want all %d (acc accumulates every call)", i, n, res.Tree.Size())
		}
	}
	if got := reg.Counter("slicing.dynamic.builds").Value(); got != 1 {
		t.Errorf("slicing.dynamic.builds = %d, want 1", got)
	}
	rec, _ := deps.Recorder()
	if got := reg.Gauge("slicing.dynamic.events").Value(); got != int64(rec.Events()) || got == 0 {
		t.Errorf("slicing.dynamic.events = %d, want %d", got, rec.Events())
	}
	if got := reg.Gauge("slicing.dynamic.edges").Value(); got != int64(rec.Edges()) {
		t.Errorf("slicing.dynamic.edges = %d, want %d", got, rec.Edges())
	}
}
