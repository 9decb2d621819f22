package interp_test

import (
	"strings"
	"testing"

	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
	"gadt/internal/transform"
)

func analyzeSrc(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestCallUnitFunction(t *testing.T) {
	info := analyzeSrc(t, paper.Sqrtest)
	dec := info.LookupRoutine("decrement")
	it := interp.New(info, interp.Config{})
	ci, err := it.CallUnit(dec, []interp.Value{interp.IntV(3)})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := ci.Result.AsInt(); r != 4 { // buggy decrement: 3 + 1
		t.Errorf("result = %v, want 4", ci.Result)
	}
	if len(ci.Ins) != 1 || !interp.ValuesEqual(ci.Ins[0].Value, interp.IntV(3)) {
		t.Errorf("ins = %v", ci.Ins)
	}
}

func TestCallUnitProcedureWithVarParam(t *testing.T) {
	info := analyzeSrc(t, paper.Sqrtest)
	arrsum := info.LookupRoutine("arrsum")
	it := interp.New(info, interp.Config{})
	arr := &interp.ArrayVal{Lo: 1, Hi: 10, Elems: make([]interp.Value, 10)}
	for i := range arr.Elems {
		arr.Elems[i] = interp.IntV(0)
	}
	arr.Elems[0], arr.Elems[1], arr.Elems[2] = interp.IntV(4), interp.IntV(5), interp.IntV(6)
	ci, err := it.CallUnit(arrsum, []interp.Value{interp.ArrV(arr), interp.IntV(3), interp.IntV(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.Outs) != 1 || !interp.ValuesEqual(ci.Outs[0].Value, interp.IntV(15)) {
		t.Errorf("outs = %v, want b: 15", ci.Outs)
	}
}

func TestCallUnitArgCountMismatch(t *testing.T) {
	info := analyzeSrc(t, paper.Sqrtest)
	dec := info.LookupRoutine("decrement")
	it := interp.New(info, interp.Config{})
	if _, err := it.CallUnit(dec, nil); err == nil {
		t.Error("expected argument-count error")
	}
}

func TestCallUnitNestedRoutine(t *testing.T) {
	// A nested routine with no free references is callable standalone
	// (the transformed-program case the oracle relies on).
	info := analyzeSrc(t, `
program t;
procedure outer(x: integer; var r: integer);
  procedure inner(a: integer; var b: integer);
  begin
    b := a * 3;
  end;
begin
  inner(x, r);
end;
var y: integer;
begin
  outer(2, y);
end.`)
	inner := info.LookupRoutine("inner")
	it := interp.New(info, interp.Config{})
	ci, err := it.CallUnit(inner, []interp.Value{interp.IntV(5), interp.IntV(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.Outs) != 1 || !interp.ValuesEqual(ci.Outs[0].Value, interp.IntV(15)) {
		t.Errorf("outs = %v, want b: 15", ci.Outs)
	}
}

func TestCallUnitRuntimeError(t *testing.T) {
	info := analyzeSrc(t, `
program t;
procedure boom(d: integer; var r: integer);
begin
  r := 1 div d;
end;
var x: integer;
begin
  boom(1, x);
end.`)
	boom := info.LookupRoutine("boom")
	it := interp.New(info, interp.Config{})
	if _, err := it.CallUnit(boom, []interp.Value{interp.IntV(0), interp.IntV(0)}); err == nil {
		t.Error("expected division-by-zero error")
	}
}

// keptBindings is one Ins or Outs slice a sink kept, with its rendering
// at the event that handed it over.
type keptBindings struct {
	routine  *sem.Routine
	event    string
	bindings []interp.Binding
	snapshot string
}

// keepingSink keeps the Ins of every EnterCall and the Outs of every
// ExitCall as the interpreter hands them over, the way the execution
// tree builder does.
type keepingSink struct {
	interp.NopSink
	kept []keptBindings
}

func formatBindings(bs []interp.Binding) string {
	var sb strings.Builder
	for _, b := range bs {
		sb.WriteString(b.String())
		sb.WriteByte(';')
	}
	return sb.String()
}

func (s *keepingSink) keep(r *sem.Routine, event string, bs []interp.Binding) {
	s.kept = append(s.kept, keptBindings{r, event, bs, formatBindings(bs)})
}

func (s *keepingSink) EnterCall(c *interp.CallInfo) { s.keep(c.Routine, "enter", c.Ins) }
func (s *keepingSink) ExitCall(c *interp.CallInfo)  { s.keep(c.Routine, "exit", c.Outs) }

// varArrayUpdates changes an array through a var parameter in place, so
// a binding that aliased the caller's array would change after its event.
const varArrayUpdates = `
program t;
type arr = array [1 .. 3] of integer;
var a: arr;

procedure bump(var x: arr; k: integer);
begin
  x[k] := x[k] + 10;
end;

begin
  bump(a, 1);
  bump(a, 2);
  writeln(a[1] + a[2]);
end.`

// TestSinkMayKeepCallBindings: a sink may keep every call's Ins and Outs
// slices. After a run, and after CallUnit replays each unit on the
// inputs of its first call, every kept slice still renders as it did
// at its event.
func TestSinkMayKeepCallBindings(t *testing.T) {
	type program struct{ name, source, input string }
	progs := []program{
		{"sqrtest", paper.Sqrtest, ""},
		{"sqrtest-fixed", paper.SqrtestFixed, ""},
		{"slice-example", paper.SliceExample, "3 4 9"},
		{"pqr", paper.PQR, ""},
		{"global-side-effects", paper.GlobalSideEffects, ""},
		{"global-goto", paper.GlobalGoto, ""},
		{"loop-goto", paper.LoopGoto, ""},
		{"arrsum", paper.ArrsumProgram, ""},
		{"var-array", varArrayUpdates, ""},
	}
	for seed := int64(1); seed <= 10; seed++ {
		p := progen.Random(progen.RandomConfig{Seed: seed, Gotos: seed%2 == 0, Reads: seed%3 == 0})
		progs = append(progs, program{p.Name, p.Source, p.Input})
	}
	for _, p := range progs {
		orig := analyzeSrc(t, p.source)
		res, err := transform.Apply(orig)
		if err != nil {
			t.Fatalf("%s: transform: %v", p.name, err)
		}
		for _, v := range []struct {
			name string
			info *sem.Info
		}{{"original", orig}, {"transformed", res.Info}} {
			sink := &keepingSink{}
			limits := interp.Config{Sink: sink, MaxSteps: 50_000, MaxDepth: 256}
			run := limits
			run.Input = strings.NewReader(p.input)
			_ = interp.New(v.info, run).Run() // a run error leaves the kept bindings as valid
			calls := len(sink.kept)
			if calls < 2 {
				t.Fatalf("%s/%s: the sink kept %d slices; the traced path did not run", p.name, v.name, calls)
			}
			replayed := make(map[*sem.Routine]bool)
			for _, k := range sink.kept[:calls] {
				if k.event != "enter" || k.routine == v.info.Main || replayed[k.routine] {
					continue
				}
				replayed[k.routine] = true
				args := make([]interp.Value, len(k.bindings))
				for i, b := range k.bindings {
					args[i] = b.Value
				}
				_, _ = interp.New(v.info, limits).CallUnit(k.routine, args) // as above
			}
			for _, k := range sink.kept {
				if got := formatBindings(k.bindings); got != k.snapshot {
					t.Errorf("%s/%s: %s of %s changed after the event:\n  kept: %s\n  now:  %s",
						p.name, v.name, k.event, k.routine.Name, k.snapshot, got)
				}
			}
		}
	}
}
