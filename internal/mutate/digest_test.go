package mutate_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/mutate"
	"gadt/internal/obs"
	"gadt/internal/paper"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEnumerationDigests pins what enumeration and triage hand the
// campaign: for every default subject, every viable mutant's ID, op,
// unit, position, description, printed source and triage verdict, and
// the number of stillborn sites.
func TestEnumerationDigests(t *testing.T) {
	type subject struct{ name, source string }
	subs := []subject{{"sqrtest", paper.SqrtestFixed}}
	for _, p := range corpus.Subjects() {
		subs = append(subs, subject{p.Name, p.Source})
	}
	var lines []string
	for _, s := range subs {
		reg := obs.NewRegistry()
		en, err := mutate.EnumerateProgram(s.name+".pas", s.source, mutate.Config{Metrics: reg})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		mutate.TriageEquivalent(en)
		h := sha256.New()
		for _, m := range en.Mutants {
			fmt.Fprintf(h, "%d %s %s %s %q %v %q\n%s\n", m.ID, m.Op, m.Unit, m.Pos, m.Description, m.Equivalent, m.EquivReason, m.Source)
		}
		lines = append(lines, fmt.Sprintf("%s stillborn=%d %s", s.name, reg.Counter("mutate.stillborn").Value(), hex.EncodeToString(h.Sum(nil))))
	}

	golden := filepath.Join("..", "..", "testdata", "enumeration_digests.golden")
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d lines, golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("got %q, golden %q", lines[i], want[i])
		}
	}
}
