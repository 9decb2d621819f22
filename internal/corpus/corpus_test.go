package corpus_test

import (
	"strings"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/gadt"
)

// TestCorpusMatrix runs every corpus program through interpretation,
// transformation equivalence, and tracing.
func TestCorpusMatrix(t *testing.T) {
	for _, p := range corpus.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			sys, err := gadt.Load(p.Name+".pas", p.Source)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			orig := sys.TraceOriginal(p.Input, 0, 0)
			if orig.RunErr != nil {
				t.Fatalf("run: %v", orig.RunErr)
			}
			if orig.Output != p.Want {
				t.Fatalf("output = %q, want %q", orig.Output, p.Want)
			}
			run, err := sys.Trace(p.Input)
			if err != nil {
				t.Fatalf("transform+trace: %v", err)
			}
			if run.RunErr != nil {
				t.Fatalf("transformed run: %v", run.RunErr)
			}
			if run.Output != p.Want {
				t.Errorf("transformed output = %q, want %q", run.Output, p.Want)
			}
			if run.Tree.Size() < 2 {
				t.Errorf("trace too small: %d nodes", run.Tree.Size())
			}
		})
	}
}

// TestCorpusBugsLocalized debugs the corpus entries with planted bugs.
func TestCorpusBugsLocalized(t *testing.T) {
	for _, p := range corpus.All() {
		if p.Buggy == "" {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			sys, err := gadt.Load(p.Name+"-buggy.pas", p.Buggy)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			run, err := sys.Trace(p.Input)
			if err != nil {
				t.Fatal(err)
			}
			if run.Output == p.Want {
				t.Fatalf("planted bug has no symptom (output %q)", run.Output)
			}
			oracle, err := gadt.IntendedOracle(p.Source)
			if err != nil {
				t.Fatal(err)
			}
			out, err := run.Debug(oracle, gadt.DebugConfig{Slicing: true})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Localized() {
				t.Fatal("bug not localized")
			}
			got := out.Bug.Unit.Name
			if got != p.BugUnit && !strings.HasPrefix(got, p.BugUnit+"_loop") {
				t.Errorf("localized %s, want %s (or its loop unit)", got, p.BugUnit)
			}
		})
	}
}

// TestCorpusHasPlantedBugs makes sure the corpus keeps debuggable
// entries.
func TestCorpusHasPlantedBugs(t *testing.T) {
	n := 0
	for _, p := range corpus.All() {
		if p.Buggy != "" {
			if p.BugUnit == "" {
				t.Errorf("%s: buggy variant without BugUnit", p.Name)
			}
			n++
		}
	}
	if n < 2 {
		t.Errorf("only %d buggy corpus entries", n)
	}
}
