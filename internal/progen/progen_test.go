package progen_test

import (
	"strings"
	"testing"

	"gadt/internal/gadt"
	"gadt/internal/progen"
)

func TestGeneratedProgramsRun(t *testing.T) {
	cases := []progen.Config{
		{Depth: 1, Fanout: 1},
		{Depth: 2, Fanout: 2},
		{Depth: 3, Fanout: 2},
		{Depth: 2, Fanout: 3, BugPath: []int{1, 2}},
		{Depth: 2, Fanout: 2, Style: progen.Globals},
		{Depth: 2, Fanout: 2, Loops: true},
		{Depth: 2, Fanout: 2, Style: progen.Globals, Loops: true},
	}
	for _, cfg := range cases {
		p := progen.Generate(cfg)
		if p.BuggyUnit == "" {
			t.Fatalf("cfg %+v: no bug unit", cfg)
		}
		buggy, err := gadt.Load("buggy.pas", p.Buggy)
		if err != nil {
			t.Fatalf("cfg %+v: buggy does not load: %v\n%s", cfg, err, p.Buggy)
		}
		fixed, err := gadt.Load("fixed.pas", p.Fixed)
		if err != nil {
			t.Fatalf("cfg %+v: fixed does not load: %v", cfg, err)
		}
		rb := buggy.TraceOriginal("", 0, 0)
		rf := fixed.TraceOriginal("", 0, 0)
		if rb.RunErr != nil || rf.RunErr != nil {
			t.Fatalf("cfg %+v: runtime errors %v / %v", cfg, rb.RunErr, rf.RunErr)
		}
		if rb.Output == rf.Output {
			t.Errorf("cfg %+v: bug has no observable symptom (both print %q)", cfg, rb.Output)
		}
	}
}

func TestBugLocalizableEndToEnd(t *testing.T) {
	for _, cfg := range []progen.Config{
		{Depth: 3, Fanout: 2, BugPath: []int{1, 0, 1}},
		{Depth: 2, Fanout: 2, Style: progen.Globals},
		{Depth: 2, Fanout: 2, Loops: true},
	} {
		p := progen.Generate(cfg)
		sys, err := gadt.Load("buggy.pas", p.Buggy)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sys.Trace("")
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		oracle, err := gadt.IntendedOracle(p.Fixed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true})
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if !out.Localized() {
			t.Fatalf("cfg %+v: not localized", cfg)
		}
		// The bug must be localized in the buggy unit or (with loops) in
		// one of its extracted loop units.
		got := out.Bug.Unit.Name
		if got != p.BuggyUnit && !strings.HasPrefix(got, p.BuggyUnit+"_loop") {
			t.Errorf("cfg %+v: localized %s, want %s", cfg, got, p.BuggyUnit)
		}
	}
}

func TestUnitsCounting(t *testing.T) {
	p := progen.Generate(progen.Config{Depth: 3, Fanout: 2})
	// Internal: 1 + 2 + 4 = 7; leaves: 8; total 15.
	if p.Units != 15 || p.Leaves != 8 {
		t.Errorf("units = %d leaves = %d, want 15/8", p.Units, p.Leaves)
	}
}

func TestDeterminism(t *testing.T) {
	a := progen.Generate(progen.Config{Depth: 2, Fanout: 2})
	b := progen.Generate(progen.Config{Depth: 2, Fanout: 2})
	if a.Buggy != b.Buggy || a.Fixed != b.Fixed {
		t.Error("generation is not deterministic")
	}
	if a.Buggy == a.Fixed {
		t.Error("buggy and fixed are identical")
	}
}
