package tgen_test

import (
	"testing"

	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/tgen"
)

const calldbReference = `
program calls;
var a, b, c: integer;

function inc(x: integer): integer;
begin
  inc := x + 1;
end;

procedure shift(x: integer; var r: integer);
begin
  r := x * 2;
end;

begin
  a := inc(1);
  b := inc(7);
  shift(3, c);
  writeln(a + b + c);
end.
`

// calldbMutant breaks inc but leaves shift intact, and calls inc on an
// input the reference never exercised.
const calldbMutant = `
program calls;
var a, b, c: integer;

function inc(x: integer): integer;
begin
  inc := x + 5;
end;

procedure shift(x: integer; var r: integer);
begin
  r := x * 2;
end;

begin
  a := inc(1);
  b := inc(100);
  shift(3, c);
  writeln(a + b + c);
end.
`

func calldbTrace(t *testing.T, src string) *exectree.Tree {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(info, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Tree
}

// TestCallDBJudge covers the three verdicts of exact-call recall:
// matching invocation -> Correct, same inputs with different outputs ->
// Incorrect, never-harvested inputs -> DontKnow. The root is never
// judged.
func TestCallDBJudge(t *testing.T) {
	db := tgen.NewCallDB().HarvestTree(calldbTrace(t, calldbReference))
	// inc(1), inc(7), shift(3): three distinct calls.
	if db.Len() != 3 {
		t.Fatalf("harvested %d calls, want 3", db.Len())
	}

	mutant := calldbTrace(t, calldbMutant)
	verdicts := make(map[string][]debugger.Verdict)
	mutant.Walk(func(n *exectree.Node) bool {
		if !n.IsRoot() {
			verdicts[n.Unit.Name] = append(verdicts[n.Unit.Name], db.Judge(n))
		}
		return true
	})
	// inc(1) = 6 contradicts the harvested inc(1) = 2; inc(100) is
	// unseen; shift matches exactly.
	if got := verdicts["inc"]; len(got) != 2 || got[0] != debugger.Incorrect || got[1] != debugger.DontKnow {
		t.Errorf("inc verdicts = %v, want [Incorrect DontKnow]", got)
	}
	if got := verdicts["shift"]; len(got) != 1 || got[0] != debugger.Correct {
		t.Errorf("shift verdicts = %v, want [Correct]", got)
	}
	if v := db.Judge(mutant.Root); v != debugger.DontKnow {
		t.Errorf("root judged %v, want DontKnow", v)
	}
}

// TestCallDBRecallOnReference: judging the harvested tree against its
// own database must answer Correct everywhere — the campaign relies on
// this to absorb the reference-equal parts of every mutant run.
func TestCallDBRecallOnReference(t *testing.T) {
	tree := calldbTrace(t, calldbReference)
	db := tgen.NewCallDB().HarvestTree(tree)
	tree.Walk(func(n *exectree.Node) bool {
		if !n.IsRoot() {
			if v := db.Judge(n); v != debugger.Correct {
				t.Errorf("%s judged %v, want Correct", n.Unit.Name, v)
			}
		}
		return true
	})
}

// TestCallDBConcurrentJudge exercises the lock under the race detector
// the way campaign workers share one database.
func TestCallDBConcurrentJudge(t *testing.T) {
	tree := calldbTrace(t, calldbReference)
	db := tgen.NewCallDB().HarvestTree(tree)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				tree.Walk(func(n *exectree.Node) bool {
					db.Judge(n)
					return true
				})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}
