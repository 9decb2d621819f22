package diffharness

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCounterexamplesStayEquivalent replays every minimized
// counterexample in testdata/diff/ — programs on which the
// transformation once changed behavior — and asserts the recorded
// stage combination is now semantics-preserving. A failure here means
// a fixed transformation bug has regressed.
func TestCounterexamplesStayEquivalent(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "diff", "*.pas"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no counterexamples in testdata/diff — the regression corpus is missing")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ParseCounterexample(string(text))
			if err != nil {
				t.Fatalf("parse header: %v", err)
			}
			o := Compare(Config{}, Subject{Name: c.Subject, Source: c.Source, Input: c.Input}, c.Stages)
			if o.Status != StatusEquivalent {
				t.Fatalf("stages %s: %s (%s)\nrecorded bug: %s", c.Stages, o.Status, o.Detail, c.Detail)
			}
			// The full pipeline must agree as well, whatever subset the
			// divergence was originally attributed to.
			o = Compare(Config{}, Subject{Name: c.Subject, Source: c.Source, Input: c.Input}, parseStages("loops+gotos+globals"))
			if o.Status != StatusEquivalent {
				t.Fatalf("full pipeline: %s (%s)", o.Status, o.Detail)
			}
		})
	}
}
