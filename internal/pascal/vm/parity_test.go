// Package vm_test holds no production code. Its tests began as the
// parity suite of a bytecode VM that has since been removed; they now
// run every program twice on the interpreter and require both runs to
// agree. With no sink the interpreter takes its untraced fast path, as
// every differential comparison does; with an execution-tree builder
// as its sink it takes the traced path, as every debugging session
// does.
package vm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gadt/internal/exectree"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
	"gadt/internal/transform"
)

func analyze(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog, err := parser.ParseProgram("t.pas", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info
}

type runResult struct {
	out     string
	err     error
	steps   int
	globals []interp.Binding
}

func run(info *sem.Info, input string, cfg interp.Config, sink interp.EventSink) runResult {
	var out strings.Builder
	cfg.Input = strings.NewReader(input)
	cfg.Output = &out
	cfg.Sink = sink
	it := interp.New(info, cfg)
	err := it.Run()
	return runResult{out: out.String(), err: err, steps: it.Steps(), globals: it.Globals()}
}

// runBoth runs info untraced (nil sink) and traced (an execution-tree
// builder; interp.NopSink would select the untraced path again).
func runBoth(t *testing.T, info *sem.Info, input string, cfg interp.Config) (untraced, traced runResult) {
	t.Helper()
	untraced = run(info, input, cfg, nil)
	b := exectree.NewBuilder()
	traced = run(info, input, cfg, b)
	if b.Tree().Root == nil {
		t.Fatal("the execution-tree builder saw no call; the traced path did not run")
	}
	return untraced, traced
}

// normErr reduces a runtime error to its position-independent message,
// mirroring the differential harness's error-class comparison.
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

// assertSame requires identical output, error message, statement count
// and final globals from the two runs.
func assertSame(t *testing.T, untraced, traced runResult) {
	t.Helper()
	if traced.out != untraced.out {
		t.Errorf("output mismatch:\n  untraced: %q\n  traced:   %q", untraced.out, traced.out)
	}
	if normErr(traced.err) != normErr(untraced.err) {
		t.Errorf("error mismatch:\n  untraced: %v\n  traced:   %v", untraced.err, traced.err)
	}
	if traced.steps != untraced.steps {
		t.Errorf("steps mismatch: untraced %d, traced %d", untraced.steps, traced.steps)
	}
	if tg, ug := globalsString(traced.globals), globalsString(untraced.globals); tg != ug {
		t.Errorf("globals mismatch:\n  untraced: %s\n  traced:   %s", ug, tg)
	}
}

// assertParity runs src on both paths and requires them to agree.
func assertParity(t *testing.T, src, input string, cfg interp.Config) {
	t.Helper()
	untraced, traced := runBoth(t, analyze(t, src), input, cfg)
	assertSame(t, untraced, traced)
}

var parityPrograms = []struct {
	name  string
	src   string
	input string
}{
	{"arith", `
program p;
var a, b: integer; r: real;
begin
  a := 7; b := 3;
  writeln(a + b, a - b, a * b, a div b, a mod b);
  r := a / b;
  writeln(r);
  writeln(a / 2, 1.5 + a, a * 0.5, 10.0 / 4)
end.
`, ""},
	{"compare", `
program p;
var a, b: integer; s: string;
begin
  a := 2; b := 5; s := 'abc';
  writeln(a < b, a <= b, a > b, a >= b, a = b, a <> b);
  writeln(s < 'abd', s = 'abc', 1.5 < 2, 2.0 >= 2);
  writeln((a < b) and (b < 10), (a > b) or true, not (a = b))
end.
`, ""},
	{"whileloop", `
program p;
var i, s: integer;
begin
  i := 0; s := 0;
  while i < 10 do begin s := s + i; i := i + 1 end;
  writeln(s)
end.
`, ""},
	{"forloops", `
program p;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 5 do s := s + i;
  writeln(s, i);
  for i := 5 downto 1 do s := s - 1;
  writeln(s, i);
  for i := 3 to 1 do s := 777;
  writeln(s, i)
end.
`, ""},
	{"repeatloop", `
program p;
var i: integer;
begin
  i := 10;
  repeat
    writeln(i);
    i := i - 3
  until i < 0
end.
`, ""},
	{"casestmt", `
program p;
var i, r: integer;
begin
  for i := 0 to 6 do begin
    case i of
      0: r := 100;
      1, 2: r := 200;
      3: ;
      4, 5: r := i * 10
    else
      r := -1
    end;
    writeln(i, r)
  end
end.
`, ""},
	{"caseNoElse", `
program p;
var i, r: integer;
begin
  r := 9;
  case 42 of
    1: r := 1;
    2: r := 2
  end;
  writeln(r)
end.
`, ""},
	{"nestedproc", `
program p;
var g: integer;
procedure outer(x: integer);
var o: integer;
  procedure inner(y: integer);
  begin
    o := o + y;
    g := g + o + x
  end;
begin
  o := 1;
  inner(10);
  inner(20)
end;
begin
  g := 0;
  outer(5);
  writeln(g)
end.
`, ""},
	{"varparams", `
program p;
var a, b: integer;
procedure swap(var x, y: integer);
var t: integer;
begin
  t := x; x := y; y := t
end;
begin
  a := 1; b := 2;
  swap(a, b);
  writeln(a, b)
end.
`, ""},
	{"functions", `
program p;
var r: integer;
function fib(n: integer): integer;
begin
  if n < 2 then fib := n
  else fib := fib(n - 1) + fib(n - 2)
end;
begin
  r := fib(15);
  writeln(r)
end.
`, ""},
	{"paramlessfunc", `
program p;
var c: integer;
function next: integer;
begin
  c := c + 1;
  next := c
end;
begin
  c := 0;
  writeln(next, next, next)
end.
`, ""},
	{"arrays", `
program p;
var a: array [1 .. 5] of integer; i, s: integer;
begin
  for i := 1 to 5 do a[i] := i * i;
  s := 0;
  for i := 1 to 5 do s := s + a[i];
  writeln(s, a[3])
end.
`, ""},
	{"arraydisplay", `
program p;
var a: array [1 .. 4] of integer; i: integer;
begin
  a := [10, 20, 30];
  for i := 1 to 4 do writeln(a[i])
end.
`, ""},
	{"arrayelemvararg", `
program p;
var a: array [1 .. 3] of integer;
procedure bump(var x: integer);
begin
  x := x + 100
end;
begin
  a[2] := 5;
  bump(a[2]);
  writeln(a[1], a[2], a[3])
end.
`, ""},
	{"arrayvalueparam", `
program p;
var a: array [1 .. 3] of integer;
procedure clobber(b: array [1 .. 3] of integer);
begin
  b[1] := 999
end;
begin
  a[1] := 1;
  clobber(a);
  writeln(a[1])
end.
`, ""},
	{"records", `
program p;
var r: record x, y: integer end;
begin
  r.x := 3;
  r.y := r.x * 2;
  writeln(r.x, r.y)
end.
`, ""},
	{"builtins", `
program p;
var i: integer; r: real;
begin
  i := -5;
  writeln(abs(i), abs(5), sqr(3), odd(3), odd(4));
  r := -2.7;
  writeln(abs(r), sqr(1.5), trunc(2.9), trunc(-2.9), round(2.5), round(-2.5), round(2.4))
end.
`, ""},
	{"readints", `
program p;
var a, b: integer; r: real; s: string; f: boolean;
begin
  read(a, b);
  read(r);
  read(s);
  read(f);
  writeln(a + b, r, s, f)
end.
`, " 3   4\n1.25\nhello\ntrue\n"},
	{"strings", `
program p;
var s, t: string;
begin
  s := 'foo';
  t := s + 'bar';
  writeln(t, s < t, s = 'foo')
end.
`, ""},
	{"gotoback", `
program p;
label 1;
var i: integer;
begin
  i := 0;
1:
  i := i + 1;
  if i < 5 then goto 1;
  writeln(i)
end.
`, ""},
	{"gotofwd", `
program p;
label 9;
var i: integer;
begin
  i := 0;
  while true do begin
    i := i + 1;
    if i > 3 then goto 9
  end;
9:
  writeln(i)
end.
`, ""},
	{"gotooutoffor", `
program p;
label 5;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 100 do begin
    s := s + i;
    if i = 4 then goto 5
  end;
5:
  writeln(i, s)
end.
`, ""},
	{"divzero", `
program p;
var a, b: integer;
begin
  a := 1; b := 0;
  writeln('before');
  a := a div b;
  writeln('after')
end.
`, ""},
	{"modzero", `
program p;
var a: integer;
begin
  a := 3 mod (a - a)
end.
`, ""},
	{"slashzero", `
program p;
var r: real; z: integer;
begin
  z := 0;
  r := 1 / z
end.
`, ""},
	{"indexoob", `
program p;
var a: array [1 .. 3] of integer; i: integer;
begin
  i := 7;
  a[i] := 1
end.
`, ""},
	{"readeof", `
program p;
var a: integer;
begin
  read(a);
  read(a)
end.
`, "5"},
	{"readbadint", `
program p;
var a: integer;
begin
  read(a)
end.
`, "zebra"},
	{"intcoercereal", `
program p;
var r: real;
begin
  r := 3;
  writeln(r);
  r := r + 1;
  writeln(r)
end.
`, ""},
	{"writeempty", `
program p;
begin
  write('a');
  writeln;
  writeln('b', 'c')
end.
`, ""},
	{"negation", `
program p;
var i: integer; r: real;
begin
  i := 5;
  r := 1.5;
  writeln(-i, -r, +i, -(-i))
end.
`, ""},
	{"sqrtest", paper.Sqrtest, ""},
	{"sqrtestFixed", paper.SqrtestFixed, ""},
	{"pqr", paper.PQR, ""},
	{"sliceExample", paper.SliceExample, ""},
	{"globalSideEffects", paper.GlobalSideEffects, ""},
	{"arrsum", paper.ArrsumProgram, ""},
}

func TestParity(t *testing.T) {
	for _, tc := range parityPrograms {
		t.Run(tc.name, func(t *testing.T) {
			assertParity(t, tc.src, tc.input, interp.Config{})
		})
	}
}

// TestParityProgen runs generated random programs (gotos, reads, nested
// routines, loops of every form) on both paths.
func TestParityProgen(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := progen.Random(progen.RandomConfig{Seed: seed, Gotos: seed%2 == 0, Reads: seed%3 == 0})
		t.Run(p.Name, func(t *testing.T) {
			cfg := interp.Config{MaxSteps: 500_000, MaxDepth: 2000}
			assertParity(t, p.Source, p.Input, cfg)
		})
	}
}

// TestParityTransformed runs fully transformed programs (loop units,
// goto elimination, global lifting) on both paths.
func TestParityTransformed(t *testing.T) {
	sources := []struct {
		name string
		src  string
	}{
		{"sqrtest", paper.Sqrtest},
		{"pqr", paper.PQR},
		{"loopGoto", paper.LoopGoto},
		{"globalGoto", paper.GlobalGoto},
	}
	for _, s := range sources {
		t.Run(s.name, func(t *testing.T) {
			res, err := transform.ApplyStages(analyze(t, s.src), transform.AllStages())
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			cfg := interp.Config{MaxSteps: 2_000_000, MaxDepth: 5000}
			untraced, traced := runBoth(t, res.Info, "", cfg)
			assertSame(t, untraced, traced)
		})
	}
}

// TestBudgetParity: fuel and depth bombs must produce the same typed
// errors (message and errors.Is class) on both paths.
func TestBudgetParity(t *testing.T) {
	fuelBomb := `
program p;
var i: integer;
begin
  i := 0;
  while true do i := i + 1
end.
`
	depthBomb := `
program p;
function f(n: integer): integer;
begin
  f := f(n + 1)
end;
begin
  writeln(f(0))
end.
`
	t.Run("fuel", func(t *testing.T) {
		untraced, traced := runBoth(t, analyze(t, fuelBomb), "", interp.Config{MaxSteps: 1000})
		if !errors.Is(untraced.err, interp.ErrFuelExhausted) {
			t.Fatalf("untraced error not fuel-classified: %v", untraced.err)
		}
		if !errors.Is(traced.err, interp.ErrFuelExhausted) {
			t.Fatalf("traced error not fuel-classified: %v", traced.err)
		}
		if normErr(traced.err) != normErr(untraced.err) {
			t.Errorf("fuel message mismatch:\n  untraced: %v\n  traced:   %v", untraced.err, traced.err)
		}
		if traced.steps != untraced.steps {
			t.Errorf("steps at exhaustion: untraced %d, traced %d", untraced.steps, traced.steps)
		}
	})
	t.Run("depth", func(t *testing.T) {
		untraced, traced := runBoth(t, analyze(t, depthBomb), "", interp.Config{MaxDepth: 100})
		if !errors.Is(untraced.err, interp.ErrDepthExhausted) {
			t.Fatalf("untraced error not depth-classified: %v", untraced.err)
		}
		if !errors.Is(traced.err, interp.ErrDepthExhausted) {
			t.Fatalf("traced error not depth-classified: %v", traced.err)
		}
		if normErr(traced.err) != normErr(untraced.err) {
			t.Errorf("depth message mismatch:\n  untraced: %v\n  traced:   %v", untraced.err, traced.err)
		}
	})
}

// TestDeepRecursionErrorStack: both paths bound the error call stack
// to 32 frames plus a summary line.
func TestDeepRecursionErrorStack(t *testing.T) {
	src := `
program p;
function f(n: integer): integer;
begin
  f := f(n + 1)
end;
begin
  writeln(f(0))
end.
`
	untraced, traced := runBoth(t, analyze(t, src), "", interp.Config{MaxDepth: 200})
	for _, r := range []struct {
		path string
		err  error
	}{{"untraced", untraced.err}, {"traced", traced.err}} {
		var re *interp.RuntimeError
		if !errors.As(r.err, &re) {
			t.Fatalf("%s: expected RuntimeError, got %v", r.path, r.err)
		}
		if len(re.Stack) != 33 {
			t.Fatalf("%s: stack len = %d, want 32 frames + summary", r.path, len(re.Stack))
		}
		if !strings.Contains(re.Stack[32], "more frames") {
			t.Errorf("%s: last stack entry %q should summarize the rest", r.path, re.Stack[32])
		}
	}
}
