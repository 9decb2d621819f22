package static_test

import (
	"strings"
	"testing"

	"gadt/internal/analysis/pdg"
	"gadt/internal/corpus"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/static"
)

func slicer(t *testing.T, src string) (*sem.Info, *static.Slicer) {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return info, static.New(info)
}

// TestFigure2 reproduces the paper's Figure 2: slicing program p on
// variable mul at the last line keeps read(x,y), mul := 0 and the
// conditional assignment mul := x*y, and drops everything about sum and z.
func TestFigure2(t *testing.T) {
	info, s := slicer(t, paper.SliceExample)
	mul := static.LookupVar(info, info.Main, "mul")
	if mul == nil {
		t.Fatal("mul not found")
	}
	sl := s.OnVarAtEnd(info.Main, mul)
	out := sl.Render()

	for _, want := range []string{"read(x, y)", "mul := 0", "mul := x * y", "if x <= 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("slice missing %q:\n%s", want, out)
		}
	}
	for _, drop := range []string{"sum := 0", "sum := x + y", "read(z)"} {
		if strings.Contains(out, drop) {
			t.Errorf("slice wrongly kept %q:\n%s", drop, out)
		}
	}
	// Slice must be smaller than the program.
	full := len(strings.Split(strings.TrimSpace(paper.SliceExample), "\n"))
	got := len(strings.Split(strings.TrimSpace(out), "\n"))
	if got >= full {
		t.Errorf("slice (%d lines) not smaller than program (%d lines)", got, full)
	}
}

func TestSliceOnSum(t *testing.T) {
	info, s := slicer(t, paper.SliceExample)
	sum := static.LookupVar(info, info.Main, "sum")
	sl := s.OnVarAtEnd(info.Main, sum)
	out := sl.Render()
	for _, want := range []string{"read(x, y)", "sum := 0", "sum := x + y"} {
		if !strings.Contains(out, want) {
			t.Errorf("slice missing %q:\n%s", want, out)
		}
	}
	for _, drop := range []string{"mul := x * y", "read(z)"} {
		if strings.Contains(out, drop) {
			t.Errorf("slice wrongly kept %q:\n%s", drop, out)
		}
	}
}

// TestInterprocedural checks that slicing crosses call boundaries: the
// slice on sqrtest's output r1 excludes comput2/square but includes the
// sum1/sum2 chain.
func TestInterproceduralSliceOnR1(t *testing.T) {
	info, s := slicer(t, paper.Sqrtest)
	computs := info.LookupRoutine("computs")
	r1 := static.LookupVar(info, computs, "r1")
	if r1 == nil {
		t.Fatal("r1 not found in computs")
	}
	sl, err := s.OnOutput(computs, r1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"comput1", "partialsums", "sum1", "sum2", "increment", "decrement", "add"} {
		if r := info.LookupRoutine(want); r == nil || !sl.IncludesRoutine(r) {
			t.Errorf("slice on r1 must include routine %s", want)
		}
	}
	for _, drop := range []string{"comput2", "square", "test"} {
		if r := info.LookupRoutine(drop); r != nil && sl.IncludesRoutine(r) {
			t.Errorf("slice on r1 must exclude routine %s", drop)
		}
	}
	out := sl.Render()
	if strings.Contains(out, "square") {
		t.Errorf("rendered slice still mentions square:\n%s", out)
	}
	if _, err := parser.ParseProgram("slice.pas", out); err != nil {
		t.Errorf("sliced program does not reparse: %v\n%s", err, out)
	}
}

// TestSliceOnS2 mirrors the paper's second slicing step: slicing on
// partialsums' second output keeps sum2/decrement, drops sum1/increment.
func TestInterproceduralSliceOnS2(t *testing.T) {
	info, s := slicer(t, paper.Sqrtest)
	ps := info.LookupRoutine("partialsums")
	s2 := static.LookupVar(info, ps, "s2")
	sl, err := s.OnOutput(ps, s2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sum2", "decrement"} {
		if r := info.LookupRoutine(want); !sl.IncludesRoutine(r) {
			t.Errorf("slice on s2 must include %s", want)
		}
	}
	for _, drop := range []string{"sum1", "increment", "add", "square", "comput2"} {
		if r := info.LookupRoutine(drop); sl.IncludesRoutine(r) {
			t.Errorf("slice on s2 must exclude %s", drop)
		}
	}
}

func TestSliceThroughGlobals(t *testing.T) {
	info, s := slicer(t, `
program t;
var g, h, result, noise: integer;

procedure setg;
begin
  g := h * 2;
end;

procedure compute;
begin
  setg;
  result := g + 1;
end;

begin
  h := 5;
  noise := 999;
  compute;
  writeln(result);
end.`)
	v := static.LookupVar(info, info.Main, "result")
	sl := s.OnVarAtEnd(info.Main, v)
	out := sl.Render()
	for _, want := range []string{"h := 5", "g := h * 2", "result := g + 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("slice missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "noise := 999") {
		t.Errorf("slice kept irrelevant statement:\n%s", out)
	}
}

// TestSummaryEdgesPreventOverTainting: slicing on one output of a called
// procedure with two independent outputs must not drag in the inputs of
// the other output (the calling-context problem HRB summary edges solve).
func TestSummaryEdgesContextSensitivity(t *testing.T) {
	info, s := slicer(t, `
program t;
var a, b, x, y: integer;

procedure both(ina, inb: integer; var outa, outb: integer);
begin
  outa := ina * 2;
  outb := inb * 3;
end;

begin
  read(a);
  read(b);
  both(a, b, x, y);
  writeln(x, y);
end.`)
	x := static.LookupVar(info, info.Main, "x")
	sl := s.OnVarAtEnd(info.Main, x)
	// The slice on x needs a (via ina/outa) but not b.
	foundA, foundB := false, false
	out := sl.Render()
	if strings.Contains(out, "read(a)") {
		foundA = true
	}
	if strings.Contains(out, "read(b)") {
		foundB = true
	}
	if !foundA {
		t.Errorf("slice on x must include read(a):\n%s", out)
	}
	if foundB {
		t.Errorf("slice on x must not include read(b):\n%s", out)
	}
}

func TestLoopSlice(t *testing.T) {
	info, s := slicer(t, `
program t;
var i, s1, s2: integer;
begin
  s1 := 0;
  s2 := 0;
  for i := 1 to 10 do begin
    s1 := s1 + i;
    s2 := s2 + i * i;
  end;
  writeln(s1, s2);
end.`)
	v := static.LookupVar(info, info.Main, "s1")
	sl := s.OnVarAtEnd(info.Main, v)
	out := sl.Render()
	if !strings.Contains(out, "s1 := s1 + i") || !strings.Contains(out, "for i := 1 to 10") {
		t.Errorf("slice on s1 lost loop structure:\n%s", out)
	}
	if strings.Contains(out, "s2 := s2 + i * i") {
		t.Errorf("slice on s1 kept s2 computation:\n%s", out)
	}
}

func TestConditionalControlDependence(t *testing.T) {
	info, s := slicer(t, `
program t;
var flag, x, y: integer;
begin
  read(flag);
  x := 0;
  y := 0;
  if flag > 0 then
    x := 1
  else
    y := 1;
  writeln(x);
end.`)
	v := static.LookupVar(info, info.Main, "x")
	sl := s.OnVarAtEnd(info.Main, v)
	out := sl.Render()
	// Control dependence: the branch and the flag read must stay.
	for _, want := range []string{"read(flag)", "if flag > 0", "x := 1", "x := 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("slice missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "y := 1") || strings.Contains(out, "y := 0") {
		t.Errorf("slice kept y statements:\n%s", out)
	}
}

func TestSliceOnOutputErrors(t *testing.T) {
	info, s := slicer(t, paper.Sqrtest)
	dec := info.LookupRoutine("decrement")
	// y is an In-parameter, not an output.
	y := dec.Params[0]
	if _, err := s.OnOutput(dec, y); err == nil {
		t.Error("expected error slicing on a value parameter as output")
	}
}

func TestFunctionResultSlice(t *testing.T) {
	info, s := slicer(t, paper.Sqrtest)
	dec := info.LookupRoutine("decrement")
	sl, err := s.OnOutput(dec, dec.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !sl.IncludesRoutine(dec) {
		t.Error("slice on decrement result must include decrement")
	}
	// Callers feeding y matter: sum2, partialsums, comput1, computs,
	// sqrtest, arrsum (computes t) and main.
	for _, want := range []string{"sum2", "partialsums", "comput1", "computs", "sqrtest", "arrsum"} {
		if r := info.LookupRoutine(want); !sl.IncludesRoutine(r) {
			t.Errorf("slice on decrement's result must include %s (feeds its input)", want)
		}
	}
	for _, drop := range []string{"square", "comput2", "test", "sum1", "increment"} {
		if r := info.LookupRoutine(drop); sl.IncludesRoutine(r) {
			t.Errorf("slice on decrement's result must exclude %s", drop)
		}
	}
}

func TestOnVarAtStmt(t *testing.T) {
	info, s := slicer(t, `
program t;
var a, b: integer;
begin
  a := 1;
  b := a;
  a := 99;
  b := a;
end.`)
	// Criterion: value of a before the FIRST b := a.
	var firstUse ast.Stmt
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && firstUse == nil {
			if id, ok := as.Lhs.(*ast.Ident); ok && id.Name == "b" {
				firstUse = as
			}
		}
		return true
	})
	a := static.LookupVar(info, info.Main, "a")
	sl, err := s.OnVarAtStmt(info.Main, firstUse, a)
	if err != nil {
		t.Fatal(err)
	}
	out := sl.Render()
	if !strings.Contains(out, "a := 1") {
		t.Errorf("missing a := 1:\n%s", out)
	}
	if strings.Contains(out, "a := 99") {
		t.Errorf("later definition leaked into slice at earlier point:\n%s", out)
	}
}

func TestOnVarAtStmtUnknownStmt(t *testing.T) {
	info, s := slicer(t, paper.SliceExample)
	foreign := &ast.EmptyStmt{}
	v := static.LookupVar(info, info.Main, "mul")
	if _, err := s.OnVarAtStmt(info.Main, foreign, v); err == nil {
		t.Error("expected error for a statement outside the program")
	}
}

func TestDescribeAndCount(t *testing.T) {
	info, s := slicer(t, paper.SliceExample)
	mul := static.LookupVar(info, info.Main, "mul")
	sl := s.OnVarAtEnd(info.Main, mul)
	if sl.StmtCount() == 0 {
		t.Error("empty slice")
	}
	if d := sl.Describe(); !strings.Contains(d, "statements") {
		t.Errorf("describe = %q", d)
	}
}

// TestInfeasiblePruningShrinksCorpusSlice pins the slice-pruning payoff
// on a real corpus program: checksum guards a debug branch with a
// constant-false condition, and the branch assigns to the criterion
// variable. The default (pruned) SDG must drop the dead branch and the
// guard chain; the unpruned SDG keeps both, and everything the pruned
// slice keeps must also be in the unpruned one.
func TestInfeasiblePruningShrinksCorpusSlice(t *testing.T) {
	var checksum corpus.Program
	for _, p := range corpus.All() {
		if p.Name == "checksum" {
			checksum = p
		}
	}
	if checksum.Source == "" {
		t.Fatal("checksum corpus program missing")
	}
	prog := parser.MustParse("checksum.pas", checksum.Source)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	acc := static.LookupVar(info, info.Main, "acc")

	pruned := static.New(info).OnVarAtEnd(info.Main, acc)
	full := (&static.Slicer{Info: info, SDG: pdg.BuildUnpruned(info)}).OnVarAtEnd(info.Main, acc)

	out := pruned.Render()
	for _, want := range []string{"acc := 7", "mix(value, acc)", "read(value)"} {
		if !strings.Contains(out, want) {
			t.Errorf("pruned slice missing live statement %q:\n%s", want, out)
		}
	}
	for _, dead := range []string{"acc := acc + 1000000", "debug := 0"} {
		if strings.Contains(out, dead) {
			t.Errorf("pruned slice kept dead-branch statement %q:\n%s", dead, out)
		}
		if !strings.Contains(full.Render(), dead) {
			t.Errorf("unpruned slice unexpectedly dropped %q — pinning the wrong thing", dead)
		}
	}
	if p, f := pruned.StmtCount(), full.StmtCount(); p >= f {
		t.Errorf("pruned slice has %d statements, unpruned %d; want strictly smaller", p, f)
	}
	// Subset check: pruning must only ever remove statements.
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			if pruned.IncludesStmt(s) && !full.IncludesStmt(s) {
				t.Errorf("pruned slice gained %T@%s", s, s.Pos())
			}
		}
		return true
	})
}
