package interp_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
	"gadt/internal/transform"
)

// FuzzTracedVsUntraced checks the interpreter's two paths against each
// other. With no sink the untraced fast path runs (every differential
// comparison); with a recording sink the traced path runs (every
// execution tree). Any program that parses and analyzes must behave
// identically on both, untransformed and fully transformed: same
// stdout, same position-stripped error message, same statement count,
// same final globals.
func FuzzTracedVsUntraced(f *testing.F) {
	for _, src := range []string{
		paper.Sqrtest, paper.SqrtestFixed, paper.SliceExample, paper.PQR,
		paper.GlobalSideEffects, paper.LoopGoto, paper.ArrsumProgram,
	} {
		f.Add(src, "")
	}
	for seed := int64(1); seed <= 8; seed++ {
		p := progen.Random(progen.RandomConfig{Seed: seed, Gotos: seed%2 == 0, Reads: seed%3 == 0})
		f.Add(p.Source, p.Input)
	}
	f.Add("program p; var a: integer; begin read(a); writeln(a div 0) end.", "3")
	f.Add("program p; label 1; var i: integer; begin 1: i := i + 1; if i < 3 then goto 1 end.", "")
	f.Add("program p; var a: array [1 .. 3] of integer; begin a := [1, 2, 3, 4] end.", "")

	f.Fuzz(func(t *testing.T, src, input string) {
		prog, err := parser.ParseProgram("fuzz.pas", src)
		if err != nil {
			return
		}
		info, err := sem.Analyze(prog)
		if err != nil {
			return
		}
		assertTracedMatchesUntraced(t, "untransformed", info, input)
		if res, err := transform.Apply(info); err == nil {
			assertTracedMatchesUntraced(t, "transformed", res.Info, input)
		}
	})
}

func assertTracedMatchesUntraced(t *testing.T, what string, info *sem.Info, input string) {
	t.Helper()
	run := func(sink interp.EventSink) (*interp.Interp, string, error) {
		var out strings.Builder
		it := interp.New(info, interp.Config{
			Input: strings.NewReader(input), Output: &out, Sink: sink,
			MaxSteps: 50_000, MaxDepth: 256,
		})
		err := it.Run()
		return it, out.String(), err
	}
	fast, fastOut, fastErr := run(nil)
	// Any sink other than NopSink puts the interpreter on its traced
	// path, which reports the program block as the first call.
	sink := &recordingSink{}
	traced, tracedOut, tracedErr := run(sink)

	if len(sink.enters) == 0 {
		t.Fatalf("%s: the recording sink saw no call; the traced path did not run", what)
	}
	if fastOut != tracedOut {
		t.Errorf("%s: output divergence:\n  untraced: %q\n  traced:   %q", what, fastOut, tracedOut)
	}
	if normErr(fastErr) != normErr(tracedErr) {
		t.Errorf("%s: error divergence:\n  untraced: %v\n  traced:   %v", what, fastErr, tracedErr)
	}
	if fast.Steps() != traced.Steps() {
		t.Errorf("%s: steps divergence: untraced %d, traced %d", what, fast.Steps(), traced.Steps())
	}
	if fg, tg := globalsString(fast.Globals()), globalsString(traced.Globals()); fg != tg {
		t.Errorf("%s: globals divergence:\n  untraced: %s\n  traced:   %s", what, fg, tg)
	}
}

// normErr strips the source position from a runtime error.
func normErr(err error) string {
	if err == nil {
		return ""
	}
	var re *interp.RuntimeError
	if errors.As(err, &re) {
		return re.Msg
	}
	return err.Error()
}

func globalsString(bs []interp.Binding) string {
	var sb strings.Builder
	for _, b := range bs {
		fmt.Fprintf(&sb, "%s=%s;", b.Name, interp.FormatValue(b.Value))
	}
	return sb.String()
}
