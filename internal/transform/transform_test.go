package transform_test

import (
	"fmt"
	"strings"
	"testing"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
	"gadt/internal/progen"
	"gadt/internal/transform"
)

func apply(t *testing.T, src string) *transform.Result {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	res, err := transform.Apply(info)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return res
}

func runProgram(t *testing.T, info *sem.Info, input string) string {
	t.Helper()
	var out strings.Builder
	it := interp.New(info, interp.Config{Input: strings.NewReader(input), Output: &out})
	if err := it.Run(); err != nil {
		t.Fatalf("run: %v\nprogram:\n%s", err, printer.Print(info.Program))
	}
	return out.String()
}

// TestBehaviorPreservation is the central equivalence check: the
// transformed program must produce the same output as the original
// ("the execution semantics of the original and the transformed program
// are equivalent", Section 5.2).
func TestBehaviorPreservation(t *testing.T) {
	cases := []struct {
		name, src, input string
	}{
		{"sqrtest", paper.Sqrtest, ""},
		{"sqrtestFixed", paper.SqrtestFixed, ""},
		{"pqr", paper.PQR, ""},
		{"sliceThen", paper.SliceExample, "1 4"},
		{"sliceElse", paper.SliceExample, "3 4 9"},
		{"globals", paper.GlobalSideEffects, ""},
		{"globalGoto", paper.GlobalGoto, ""},
		{"loopGoto", paper.LoopGoto, ""},
		{"arrsum", paper.ArrsumProgram, "3 "}, // reads n only; array is zero
		{"nestedLoops", `
program t;
var i, j, s: integer;
begin
  s := 0;
  for i := 1 to 4 do
    for j := 1 to i do
      s := s + j;
  writeln(s);
end.`, ""},
		{"whileAccum", `
program t;
var n, f: integer;
begin
  read(n);
  f := 1;
  while n > 1 do begin
    f := f * n;
    n := n - 1;
  end;
  writeln(f);
end.`, "6"},
		{"repeatLoop", `
program t;
var i, s: integer;
begin
  i := 0; s := 0;
  repeat
    i := i + 1;
    s := s + i;
  until i >= 5;
  writeln(i, s);
end.`, ""},
		{"downto", `
program t;
var i, s: integer;
begin
  s := 0;
  for i := 10 downto 7 do s := s * 10 + i;
  writeln(s);
end.`, ""},
		{"globalsDeep", `
program t;
var g, acc: integer;

procedure leaf;
begin
  acc := acc + g;
end;

procedure mid;
begin
  g := g * 2;
  leaf;
end;

begin
  g := 3;
  acc := 0;
  mid;
  leaf;
  writeln(g, acc);
end.`, ""},
		{"gotoOutOfNestedLoop", `
program t;
label 9;
var i, j, hits: integer;
begin
  hits := 0;
  for i := 1 to 10 do
    for j := 1 to 10 do begin
      hits := hits + 1;
      if i * j > 12 then goto 9;
    end;
  9: writeln(i, j, hits);
end.`, ""},
		{"functionGlobals", `
program t;
var base: integer;

function scaled(x: integer): integer;
begin
  scaled := x * base;
end;

begin
  base := 7;
  writeln(scaled(6));
end.`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse("t.pas", tc.src)
			info, err := sem.Analyze(prog)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			want := runProgram(t, info, tc.input)
			res, err := transform.Apply(info)
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			got := runProgram(t, res.Info, tc.input)
			if got != want {
				t.Errorf("output mismatch:\noriginal:    %q\ntransformed: %q\n--- transformed program ---\n%s",
					want, got, printer.Print(res.Program))
			}
		})
	}
}

// TestNoGlobalEffectsAfterTransform verifies the key postcondition: in
// the transformed program no routine has global side-effects or exit
// side-effects (Section 5.1).
func TestNoGlobalEffectsAfterTransform(t *testing.T) {
	for name, src := range map[string]string{
		"sqrtest": paper.Sqrtest, "pqr": paper.PQR, "globals": paper.GlobalSideEffects,
		"globalGoto": paper.GlobalGoto, "loopGoto": paper.LoopGoto, "arrsum": paper.ArrsumProgram,
	} {
		t.Run(name, func(t *testing.T) {
			res := apply(t, src)
			cg := callgraph.Build(res.Info)
			se := sideeffect.Analyze(res.Info, cg)
			for _, r := range res.Info.Routines {
				if r == res.Info.Main {
					continue
				}
				e := se.Of[r]
				if e.HasGlobalEffects() {
					t.Errorf("%s still has global effects after transform: MOD=%v REF=%v EXIT=%v\n%s",
						r.Name, e.SortedMod(), e.SortedRef(), e.SortedExits(), printer.Print(res.Program))
				}
			}
		})
	}
}

func TestGlobalsBecomeParams(t *testing.T) {
	res := apply(t, paper.GlobalSideEffects)
	out := printer.Print(res.Program)
	// p(var y) references global x (read) and z (write-only). Because x
	// is var-bound at the call p(x), the alias forces by-reference
	// passing for x (logical mode stays `in`).
	if !strings.Contains(out, "procedure p(var y: integer; var x: integer; out z: integer)") {
		t.Errorf("p's signature not extended as expected:\n%s", out)
	}
	if !strings.Contains(out, "p(x, x, z)") {
		t.Errorf("call site not extended with globals:\n%s", out)
	}
	added := res.Added["p"]
	if len(added) != 2 {
		t.Fatalf("Added[p] = %v, want 2 entries", added)
	}
	if added[0].GlobalOf != "x" || added[0].Mode != ast.VarMode || added[0].Display != ast.Value {
		t.Errorf("added[0] = %+v, want var x displayed as in", added[0])
	}
	if added[1].GlobalOf != "z" || added[1].Mode != ast.Out {
		t.Errorf("added[1] = %+v, want out z", added[1])
	}
}

func TestLoopUnitsCreated(t *testing.T) {
	res := apply(t, paper.Sqrtest)
	var loopUnits []string
	for name, u := range res.Units {
		if u.Kind == transform.LoopUnit {
			loopUnits = append(loopUnits, name)
			if u.RoutineName != "arrsum" {
				t.Errorf("loop unit %s attributed to %s, want arrsum", name, u.RoutineName)
			}
			if u.Loop == nil {
				t.Errorf("loop unit %s has no original loop", name)
			} else if _, ok := u.Loop.(*ast.ForStmt); !ok {
				t.Errorf("loop unit %s origin is %T, want *ast.ForStmt", name, u.Loop)
			}
		}
	}
	if len(loopUnits) != 1 {
		t.Fatalf("loop units = %v, want exactly 1 (arrsum's for)", loopUnits)
	}
	// The unit exists as a synthetic routine in the transformed program.
	r := res.Info.LookupRoutine(loopUnits[0])
	if r == nil || !r.Synthetic {
		t.Errorf("loop unit routine missing or not synthetic: %v", r)
	}
}

func TestGotoBreaking(t *testing.T) {
	res := apply(t, paper.GlobalGoto)
	out := printer.Print(res.Program)
	if strings.Contains(out, "goto 9") && !strings.Contains(out, "9:") {
		t.Errorf("dangling global goto remains:\n%s", out)
	}
	q := res.Info.LookupRoutine("q")
	if q == nil {
		t.Fatal("q missing after transform")
	}
	var exitParams int
	for _, a := range res.Added["q"] {
		if a.ExitCond {
			exitParams++
		}
	}
	if exitParams != 1 {
		t.Errorf("q gained %d exit params, want 1 (%v)", exitParams, res.Added["q"])
	}
	if len(res.EscapeCodes) == 0 {
		t.Error("no escape codes recorded")
	}
	for _, desc := range res.EscapeCodes {
		if !strings.Contains(desc, "label") {
			t.Errorf("escape code description = %q", desc)
		}
	}
}

func TestTransformedProgramRoundTrips(t *testing.T) {
	for name, src := range map[string]string{
		"sqrtest": paper.Sqrtest, "globalGoto": paper.GlobalGoto, "loopGoto": paper.LoopGoto,
	} {
		t.Run(name, func(t *testing.T) {
			res := apply(t, src)
			out := printer.Print(res.Program)
			reparsed, err := parser.ParseProgram("transformed.pas", out)
			if err != nil {
				t.Fatalf("transformed program does not reparse: %v\n%s", err, out)
			}
			if _, err := sem.Analyze(reparsed); err != nil {
				t.Fatalf("transformed program does not re-analyze: %v\n%s", err, out)
			}
		})
	}
}

func TestGrowthFactorUnderTwo(t *testing.T) {
	// Section 9: "Small procedures usually grow less than a factor of
	// two after transformations." Measured on the paper's own programs
	// (loop extraction included).
	for name, src := range map[string]string{
		"globals": paper.GlobalSideEffects, "pqr": paper.PQR, "globalGoto": paper.GlobalGoto,
	} {
		t.Run(name, func(t *testing.T) {
			prog := parser.MustParse("t.pas", src)
			info, err := sem.Analyze(prog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := transform.Apply(info)
			if err != nil {
				t.Fatal(err)
			}
			origLines := len(strings.Split(printer.Print(prog), "\n"))
			newLines := len(strings.Split(printer.Print(res.Program), "\n"))
			factor := float64(newLines) / float64(origLines)
			t.Logf("%s: %d -> %d lines (%.2fx)", name, origLines, newLines, factor)
			if factor >= 2.0 {
				t.Errorf("growth factor %.2f >= 2 (%d -> %d lines)", factor, origLines, newLines)
			}
		})
	}
}

// TestLoopUnitOriginsNested checks what the debugger reads of a loop
// unit's origin when loops nest, in the main program and in a
// procedure: every loop becomes one unit, attributed to the routine
// that lexically contains it, whose Loop has the original loop's type
// and position (the query names both).
func TestLoopUnitOriginsNested(t *testing.T) {
	prog := parser.MustParse("t.pas", `
program t;
var i, j, s: integer;

procedure p(n: integer);
var k: integer;
begin
  k := 0;
  repeat
    while k < n do
      k := k + 1;
    n := n - 1;
  until n <= 0;
  writeln(k);
end;

begin
  s := 0;
  for i := 1 to 3 do begin
    j := 0;
    while j < i do begin
      s := s + j;
      j := j + 1;
    end;
  end;
  p(3);
  writeln(s);
end.`)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	type origin struct {
		routine string
		loop    ast.Stmt
	}
	want := make(map[token.Pos]origin)
	for _, r := range info.Routines {
		ast.Inspect(r.Block.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.WhileStmt, *ast.RepeatStmt, *ast.ForStmt:
				want[n.Pos()] = origin{r.Name, n.(ast.Stmt)}
			}
			return true
		})
	}
	if len(want) != 4 {
		t.Fatalf("found %d original loops, want 4", len(want))
	}
	res, err := transform.Apply(info)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	seen := make(map[token.Pos]bool)
	for name, u := range res.Units {
		if u.Kind != transform.LoopUnit {
			continue
		}
		if u.Loop == nil {
			t.Errorf("loop unit %s has no loop", name)
			continue
		}
		o, ok := want[u.Loop.Pos()]
		if !ok {
			t.Errorf("loop unit %s: no original loop at %s", name, u.Loop.Pos())
			continue
		}
		if seen[u.Loop.Pos()] {
			t.Errorf("loop unit %s: a second unit for the loop at %s", name, u.Loop.Pos())
		}
		seen[u.Loop.Pos()] = true
		if got, want := fmt.Sprintf("%T", u.Loop), fmt.Sprintf("%T", o.loop); got != want {
			t.Errorf("loop unit %s: Loop is %s, want %s", name, got, want)
		}
		if u.RoutineName != o.routine {
			t.Errorf("loop unit %s: RoutineName %s, want %s", name, u.RoutineName, o.routine)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%d of %d loops became units", len(seen), len(want))
	}
}

func TestUnitsSeededWithRoutines(t *testing.T) {
	res := apply(t, paper.PQR)
	for _, name := range []string{"p", "q", "r"} {
		u, ok := res.Units[name]
		if !ok || u.Kind != transform.RoutineUnit {
			t.Errorf("Units[%s] = %+v, want routine unit", name, u)
		}
	}
}

func TestIdempotentWhenNoEffects(t *testing.T) {
	// A program without globals, gotos or loops transforms to itself
	// (modulo printing).
	src := paper.PQR
	res := apply(t, src)
	if len(res.Added) != 0 {
		t.Errorf("PQR gained parameters: %v", res.Added)
	}
	for name, u := range res.Units {
		if u.Kind == transform.LoopUnit {
			t.Errorf("PQR gained loop unit %s", name)
		}
	}
}

// TestAnalysesOnlyAfterChange pins how often ApplyStages analyzes its
// clone: once after loop extraction, and once more after each pass that
// changed the program.
func TestAnalysesOnlyAfterChange(t *testing.T) {
	plain := progen.Generate(progen.Config{Depth: 4, Fanout: 3}).Buggy
	cases := []struct {
		name   string
		src    string
		stages transform.Stages
		want   int
	}{
		{"no loop, goto or global", plain, transform.AllStages(), 1},
		{"sqrtest", paper.Sqrtest, transform.AllStages(), 2},
		{"globalGoto", paper.GlobalGoto, transform.AllStages(), 3},
		{"no stages", paper.GlobalGoto, transform.Stages{}, 1},
	}
	reg := obs.NewRegistry()
	total := 0
	for _, c := range cases {
		info, err := sem.Analyze(parser.MustParse("t.pas", c.src))
		if err != nil {
			t.Fatalf("%s: analyze: %v", c.name, err)
		}
		res, err := transform.ApplyStages(info, c.stages)
		if err != nil {
			t.Fatalf("%s: transform: %v", c.name, err)
		}
		if got := res.Stats().Analyses; got != c.want {
			t.Errorf("%s: %d analyses, want %d", c.name, got, c.want)
		}
		res.RecordMetrics(reg)
		total += c.want
	}
	if got := reg.Counter("transform.analyses").Value(); got != int64(total) {
		t.Errorf("transform.analyses = %d, want %d", got, total)
	}
}

func TestNameCollisionAvoidance(t *testing.T) {
	// The callee already has a parameter named like the global; the new
	// parameter must be renamed.
	res := apply(t, `
program t;
var g: integer;

procedure p(g: integer);
var local: integer;

  procedure inner;
  begin
    local := local + g;
  end;

begin
  local := g;
  inner;
  writeln(local);
end;

begin
  g := 5;
  p(3);
end.`)
	// inner references p's g (a value param of p) and p's local — those
	// are globals from inner's perspective.
	out := printer.Print(res.Program)
	if _, err := sem.Analyze(res.Program); err != nil {
		t.Fatalf("re-analysis failed: %v\n%s", err, out)
	}
	got := runProgram(t, res.Info, "")
	// local := g(param)=3, then inner adds p's g again: 3+3=6.
	if got != "6\n" {
		t.Errorf("output = %q, want 6", got)
	}
}

func TestFunctionWithGlobalGotoRejected(t *testing.T) {
	prog := parser.MustParse("t.pas", `
program t;
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
end.`)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transform.Apply(info); err == nil ||
		!strings.Contains(err.Error(), "non-local goto") {
		t.Errorf("err = %v, want unsupported-function error", err)
	}
}

func TestLoopWithPlacedLabelNotExtracted(t *testing.T) {
	// A label placed inside a loop body blocks extraction (jumping into
	// a loop is unsupported); behavior must still be preserved.
	src := `
program t;
label 3;
var i, acc: integer;
begin
  i := 0;
  acc := 0;
  while i < 4 do begin
    i := i + 1;
    3: acc := acc + i;
  end;
  writeln(acc);
end.`
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := transform.Apply(info)
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range res.Units {
		if u.Kind == transform.LoopUnit {
			t.Errorf("loop with placed label was extracted as %s", name)
		}
	}
	if got := runProgram(t, res.Info, ""); got != "10\n" {
		t.Errorf("output = %q, want 10", got)
	}
}

func TestShadowedGlobalRenamed(t *testing.T) {
	// outer has a local g that shadows the program-level g; outer calls
	// leaf, which reads the program-level g. The hidden parameter for
	// the program-level g in outer must be renamed (g is taken).
	res := apply(t, `
program t;
var g: integer;

procedure leaf(var r: integer);
begin
  r := g * 10;
end;

procedure outer(var r: integer);
var g: integer;
begin
  g := 999;
  leaf(r);
  r := r + g;
end;

var result: integer;
begin
  g := 4;
  outer(result);
  writeln(result);
end.`)
	got := runProgram(t, res.Info, "")
	if got != "1039\n" { // leaf: 4*10=40... then +999 → 1039
		t.Errorf("output = %q, want 1039", got)
	}
	var renamed bool
	for _, a := range res.Added["outer"] {
		if a.GlobalOf == "g" && a.Name != "g" {
			renamed = true
		}
	}
	if !renamed {
		t.Errorf("hidden parameter for shadowed global not renamed: %v", res.Added["outer"])
	}
}

// TestResultVarLiftRejected: a function-result pseudo-variable has no
// reusable type denotation (its Decl is the *ast.Routine), so lifting
// it into a parameter must fail loudly instead of silently guessing
// `integer` — a wrong guess would miscompile the lifted global.
func TestResultVarLiftRejected(t *testing.T) {
	src := `program t;
var g: integer;
function f: integer;
  procedure seed;
  begin
    f := 3;
  end;
begin
  seed;
end;
begin
  g := f;
  writeln(g)
end.
`
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	_, err = transform.Apply(info)
	if err == nil {
		t.Fatal("transform accepted a result-variable lift")
	}
	if !strings.Contains(err.Error(), "no reconstructible type denotation") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestExtendCallsInEveryStatementForm runs the globals pass alone (so
// loops stay in place) over call sites inside repeat, for ... downto,
// and nested case arms, plus a parameterless function reference inside
// an index expression. Every call must gain the lifted-global argument
// and the transformed program must behave identically.
func TestExtendCallsInEveryStatementForm(t *testing.T) {
	src := `program extend;
var g: integer;
var arr: array [0 .. 9] of integer;
var i, j: integer;
function pick: integer;
begin
  pick := g mod 10;
end;
procedure bump;
begin
  g := g + 1;
end;
begin
  i := 0;
  g := 0;
  repeat
    bump;
    i := i + 1;
  until i >= 2;
  for j := 3 downto 1 do begin
    bump;
  end;
  case g mod 2 of
    0: begin
      case g mod 3 of
        0: bump;
      else
        bump;
      end;
    end;
  else
    bump;
  end;
  arr[pick] := 7;
  g := arr[pick] + g;
  writeln(g, ' ', i, ' ', j)
end.
`
	prog := parser.MustParse("extend.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	res, err := transform.ApplyStages(info, transform.Stages{Globals: true})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}

	printed := printer.Print(res.Program)
	if got := strings.Count(printed, "bump(g)"); got != 5 {
		t.Errorf("bump calls extended %d times, want 5 (repeat, for downto, inner case arm, inner else, outer else)\n%s", got, printed)
	}
	// The parameterless function reference inside the index expression
	// must be promoted to an explicit call carrying the lifted global.
	if got := strings.Count(printed, "arr[pick(g)]"); got != 2 {
		t.Errorf("index-position pick references promoted %d times, want 2\n%s", got, printed)
	}

	want := runProgram(t, info, "")
	got := runProgram(t, res.Info, "")
	if want != got {
		t.Errorf("behavior changed: original %q, transformed %q", want, got)
	}
}
