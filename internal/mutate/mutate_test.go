package mutate_test

import (
	"strings"
	"testing"

	"gadt/internal/mutate"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
)

const subject = `
program subj;
var a, b: integer;

function double(x: integer): integer;
begin
  double := x * 2;
end;

procedure tally(n: integer; var lo, hi: integer);
var i: integer;
begin
  lo := 0;
  hi := 0;
  for i := 1 to n do
    if i < 3 then
      lo := lo + 1
    else
      hi := hi + double(i);
end;

begin
  tally(5, a, b);
  writeln(a, b);
end.
`

func enumerate(t *testing.T, cfg mutate.Config) []*mutate.Mutant {
	t.Helper()
	en, err := mutate.EnumerateProgram("subj.pas", subject, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(en.Mutants) == 0 {
		t.Fatal("no mutants enumerated")
	}
	return en.Mutants
}

// TestEnumerateValidAndDistinct checks every mutant is a type-correct
// program that differs from the original.
func TestEnumerateValidAndDistinct(t *testing.T) {
	orig := printer.Print(parser.MustParse("subj.pas", subject))
	for _, m := range enumerate(t, mutate.Config{}) {
		prog, err := parser.ParseProgram("m.pas", m.Source)
		if err != nil {
			t.Fatalf("mutant %d (%s) does not parse: %v", m.ID, m.Description, err)
		}
		if _, err := sem.Analyze(prog); err != nil {
			t.Fatalf("mutant %d (%s) does not analyze: %v", m.ID, m.Description, err)
		}
		if m.Source == orig {
			t.Errorf("mutant %d (%s) is identical to the original", m.ID, m.Description)
		}
		if !m.Pos.IsValid() {
			t.Errorf("mutant %d (%s) has no source position", m.ID, m.Description)
		}
	}
}

// TestEnumerateDeterministic pins byte-for-byte reproducibility: same
// source and config, same mutants.
func TestEnumerateDeterministic(t *testing.T) {
	a := enumerate(t, mutate.Config{})
	b := enumerate(t, mutate.Config{})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Source != b[i].Source || a[i].Description != b[i].Description {
			t.Errorf("mutant %d differs between runs: %q vs %q", i, a[i].Description, b[i].Description)
		}
	}
}

// TestEnumerateRestoresProgram: every site edits the original program
// in place, so after enumeration, and after a lazy enumeration has
// printed each of its mutants, the program must print exactly as a
// fresh parse of the source does.
func TestEnumerateRestoresProgram(t *testing.T) {
	en, err := mutate.EnumerateProgram("subj.pas", subject, mutate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := printer.Print(parser.MustParse("subj.pas", subject))
	if got := printer.Print(en.Prog); got != want {
		t.Errorf("program after enumeration differs from the source:\n%s\nwant:\n%s", got, want)
	}

	lazy, err := mutate.Enumerate("subj.pas", subject, mutate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Mutants) != len(en.Mutants) {
		t.Fatalf("Enumerate returned %d mutants, EnumerateProgram %d", len(lazy.Mutants), len(en.Mutants))
	}
	for i, m := range lazy.Mutants {
		if m.Source != "" {
			t.Fatalf("Enumerate printed mutant %d", m.ID)
		}
		if src := lazy.Source(m); src != en.Mutants[i].Source {
			t.Errorf("mutant %d prints differently on demand:\n%s\nwant:\n%s", m.ID, src, en.Mutants[i].Source)
		}
	}
	if got := printer.Print(lazy.Prog); got != want {
		t.Errorf("program after printing every mutant differs from the source:\n%s\nwant:\n%s", got, want)
	}
}

// TestOperatorCoverageAndAttribution checks each operator fires on the
// subject and faults are attributed to the right unit.
func TestOperatorCoverageAndAttribution(t *testing.T) {
	ms := enumerate(t, mutate.Config{})
	seen := make(map[mutate.Op]int)
	units := make(map[string]bool)
	for _, m := range ms {
		seen[m.Op]++
		units[m.Unit] = true
	}
	for _, op := range mutate.AllOps() {
		if seen[op] == 0 {
			t.Errorf("operator %s produced no mutants", op)
		}
	}
	for _, u := range []string{"double", "tally", "subj"} {
		if !units[u] {
			t.Errorf("no mutant attributed to unit %s", u)
		}
	}
	for _, m := range ms {
		if m.Unit != "double" && m.Unit != "tally" && m.Unit != "subj" {
			t.Errorf("mutant %d attributed to unknown unit %q", m.ID, m.Unit)
		}
	}
}

// TestOpsFilter restricts enumeration to one operator.
func TestOpsFilter(t *testing.T) {
	ms := enumerate(t, mutate.Config{Ops: []mutate.Op{mutate.NegateCond}})
	for _, m := range ms {
		if m.Op != mutate.NegateCond {
			t.Fatalf("mutant %d has op %s, want only %s", m.ID, m.Op, mutate.NegateCond)
		}
	}
	// The subject has exactly one if; for-loops have no negatable
	// condition, so expect exactly one negate-cond mutant.
	if len(ms) != 1 {
		t.Errorf("negate-cond mutants = %d, want 1", len(ms))
	}
	if !strings.Contains(ms[0].Description, "if") || ms[0].Unit != "tally" {
		t.Errorf("unexpected negate-cond mutant: %q in %q", ms[0].Description, ms[0].Unit)
	}
}

// TestVarSwapTypeSafe: swaps only happen inside one declaration group
// (same declared type), here lo/hi.
func TestVarSwapTypeSafe(t *testing.T) {
	ms := enumerate(t, mutate.Config{Ops: []mutate.Op{mutate.VarSwap}})
	for _, m := range ms {
		if !strings.Contains(m.Description, "lo -> hi") &&
			!strings.Contains(m.Description, "hi -> lo") &&
			!strings.Contains(m.Description, "a -> b") &&
			!strings.Contains(m.Description, "b -> a") {
			t.Errorf("unexpected var-swap: %s", m.Description)
		}
	}
	if len(ms) < 4 {
		t.Errorf("var-swap mutants = %d, want >= 4 (lo/hi occurrences)", len(ms))
	}
}

// TestParseOp round-trips operator names.
func TestParseOp(t *testing.T) {
	for _, op := range mutate.AllOps() {
		got, ok := mutate.ParseOp(string(op))
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = %q, %v", op, got, ok)
		}
	}
	if _, ok := mutate.ParseOp("nope"); ok {
		t.Error("ParseOp accepted an unknown operator")
	}
}
