// Integration tests exercising the full GADT pipeline — transformation,
// tracing, dynamic slicing, test lookup and debugging — on subjects well
// beyond the paper's four-page programs.
package gadt_test

import (
	"fmt"
	"strings"
	"testing"

	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/gadt"
	"gadt/internal/paper"
	"gadt/internal/progen"
)

// TestPipelineMatrix runs the complete pipeline over a grid of synthetic
// program shapes: the transformed program must behave like the original,
// and GADT must localize the planted bug with no more questions than
// pure algorithmic debugging.
func TestPipelineMatrix(t *testing.T) {
	shapes := []progen.Config{
		{Depth: 2, Fanout: 2},
		{Depth: 3, Fanout: 2, BugPath: []int{1, 0, 1}},
		{Depth: 4, Fanout: 2, BugPath: []int{0, 1, 1, 0}},
		{Depth: 3, Fanout: 3, BugPath: []int{2, 2, 2}},
		{Depth: 2, Fanout: 2, Style: progen.Globals},
		{Depth: 3, Fanout: 2, Style: progen.Globals, BugPath: []int{1, 1, 1}},
		{Depth: 2, Fanout: 2, Loops: true},
		{Depth: 3, Fanout: 2, Style: progen.Globals, Loops: true, BugPath: []int{1, 0, 0}},
	}
	for _, shape := range shapes {
		shape := shape
		name := fmt.Sprintf("d%d_f%d_g%v_l%v", shape.Depth, shape.Fanout, shape.Style == progen.Globals, shape.Loops)
		t.Run(name, func(t *testing.T) {
			p := progen.Generate(shape)
			sys, err := gadt.Load("subject.pas", p.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			orig := sys.TraceOriginal("", 0, 0)
			run, err := sys.Trace("")
			if err != nil {
				t.Fatal(err)
			}
			if orig.RunErr != nil || run.RunErr != nil {
				t.Fatalf("runtime errors: %v / %v", orig.RunErr, run.RunErr)
			}
			if orig.Output != run.Output {
				t.Fatalf("transformation changed behavior: %q vs %q", orig.Output, run.Output)
			}
			oracle, err := gadt.IntendedOracle(p.Fixed)
			if err != nil {
				t.Fatal(err)
			}
			pure, err := run.Debug(oracle, gadt.DebugConfig{})
			if err != nil {
				t.Fatal(err)
			}
			full, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true})
			if err != nil {
				t.Fatal(err)
			}
			for which, out := range map[string]*debugger.Outcome{"pure": pure, "gadt": full} {
				if !out.Localized() {
					t.Fatalf("%s: not localized", which)
				}
				got := out.Bug.Unit.Name
				if got != p.BuggyUnit && !strings.HasPrefix(got, p.BuggyUnit+"_loop") {
					t.Errorf("%s: localized %s, want %s", which, got, p.BuggyUnit)
				}
			}
			if full.Questions > pure.Questions {
				t.Errorf("slicing increased questions: %d > %d", full.Questions, pure.Questions)
			}
		})
	}
}

// TestDeepProgramScales runs a 127-unit subject through the pipeline.
func TestDeepProgramScales(t *testing.T) {
	p := progen.Generate(progen.Config{Depth: 6, Fanout: 2, BugPath: []int{1, 0, 1, 0, 1, 0}})
	sys, err := gadt.Load("deep.pas", p.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Trace("")
	if err != nil {
		t.Fatal(err)
	}
	if run.Tree.Size() < 100 {
		t.Fatalf("tree size = %d, expected a large trace", run.Tree.Size())
	}
	oracle, err := gadt.IntendedOracle(p.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true, Strategy: debugger.DivideAndQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Localized() || out.Bug.Unit.Name != p.BuggyUnit {
		t.Fatalf("bug = %v, want %s", out.Bug, p.BuggyUnit)
	}
	// Divide-and-query on a ~128-node tree should stay near log2 scale.
	if out.Questions > 20 {
		t.Errorf("questions = %d, expected close to log2(%d)", out.Questions, run.Tree.Size())
	}
}

// TestAllPaperProgramsThroughPipeline is the everything-at-once check on
// the paper's own subjects.
func TestAllPaperProgramsThroughPipeline(t *testing.T) {
	subjects := map[string]struct {
		src, input string
	}{
		"sqrtest":    {paper.Sqrtest, ""},
		"fixed":      {paper.SqrtestFixed, ""},
		"pqr":        {paper.PQR, ""},
		"slice":      {paper.SliceExample, "2 3 4"},
		"globals":    {paper.GlobalSideEffects, ""},
		"globalGoto": {paper.GlobalGoto, ""},
		"loopGoto":   {paper.LoopGoto, ""},
		"arrsum":     {paper.ArrsumProgram, "0 "},
	}
	for name, s := range subjects {
		s := s
		t.Run(name, func(t *testing.T) {
			sys, err := gadt.Load(name+".pas", s.src)
			if err != nil {
				t.Fatal(err)
			}
			orig := sys.TraceOriginal(s.input, 0, 0)
			run, err := sys.Trace(s.input)
			if err != nil {
				t.Fatal(err)
			}
			if orig.RunErr != nil || run.RunErr != nil {
				t.Fatalf("runtime errors: %v / %v", orig.RunErr, run.RunErr)
			}
			if orig.Output != run.Output {
				t.Errorf("outputs differ: %q vs %q", orig.Output, run.Output)
			}
			// Every traced node must expose a usable label and outputs.
			run.Tree.Walk(func(n *exectree.Node) bool {
				if n.Label(nil) == "" {
					t.Errorf("empty label for %s", n.Unit.Name)
				}
				return true
			})
		})
	}
}
