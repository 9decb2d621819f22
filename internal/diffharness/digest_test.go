package diffharness

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/defuse"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
	"gadt/internal/transform"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares one "name digest" line per subject with a golden
// file under testdata/; -update rewrites the file.
func checkGolden(t *testing.T, file string, lines []string) {
	t.Helper()
	golden := filepath.Join("..", "..", "testdata", file)
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
		t.Fatalf("%d lines, golden %s has %d", len(lines), file, len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("got %q, golden %q", lines[i], want[i])
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestTransformDigests pins what the diff campaign's transformation
// produces: for every seed-1 subject under Combos() and under no stage
// at all, the printed program, its analysis count and the side effects
// of each routine, every set in insertion order.
func TestTransformDigests(t *testing.T) {
	vars := func(s *defuse.Set) string {
		var names []string
		for _, v := range s.Slice() {
			names = append(names, v.Owner.Name+"."+v.Name)
		}
		return strings.Join(names, ",")
	}
	stages := append([]transform.Stages{{}}, Combos()...)
	var lines []string
	for _, sub := range Subjects(Config{Seed: 1, Programs: 250, Corpus: true}) {
		var b strings.Builder
		info, err := sem.Analyze(parser.MustParse(sub.Name+".pas", sub.Source))
		if err != nil {
			t.Fatalf("%s: %v", sub.Name, err)
		}
		for _, st := range stages {
			res, err := transform.ApplyStages(info, st)
			if err != nil {
				fmt.Fprintf(&b, "[%s] %v\n", st, err)
				continue
			}
			fmt.Fprintf(&b, "[%s] %d analyses\n%s", st, res.Stats().Analyses, printer.Print(res.Program))
			se := sideeffect.Analyze(res.Info, callgraph.Build(res.Info))
			for _, r := range res.Info.Routines {
				e := se.Of[r]
				fmt.Fprintf(&b, "%s mod=%s ref=%s modf=%s reff=%s exits=%d\n", r.Name,
					vars(&e.ModGlobals), vars(&e.RefGlobals), vars(&e.ModFormals), vars(&e.RefFormals), len(e.ExitTargets))
			}
		}
		lines = append(lines, sub.Name+" "+digest([]byte(b.String())))
	}
	checkGolden(t, "transform_digests.golden", lines)
}

// TestShrinkDigests pins the shrinker's path as well as its result: for
// random programs with a planted constant, minimized under a "still
// contains it" predicate, the number of predicate calls and the
// minimized text. The constant goes first into the first body, and
// then into the last loop or branch body, where only hoisting the
// shells around it keeps it.
func TestShrinkDigests(t *testing.T) {
	plant := func(src, after string, last bool) string {
		i := strings.Index(src, after)
		if last {
			i = strings.LastIndex(src, after)
		}
		i += len(after)
		return src[:i] + "  g0 := 123;\n" + src[i:]
	}
	var lines []string
	for seed := int64(1); seed <= 20; seed++ {
		p := progen.Random(progen.RandomConfig{Seed: seed})
		for i, src := range []string{plant(p.Source, "begin\n", false), plant(p.Source, " begin\n", true)} {
			calls := 0
			keeps := func(s string) bool { calls++; return strings.Contains(s, "123") }
			min, changed := shrinkPass(src, keeps)
			for changed {
				min, changed = shrinkPass(min, keeps)
			}
			lines = append(lines, fmt.Sprintf("%s/%d %d %s", p.Name, i, calls, digest([]byte(min))))
		}
	}
	checkGolden(t, "shrink_digests.golden", lines)
}
