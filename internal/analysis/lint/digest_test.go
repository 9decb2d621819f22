package lint_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gadt/internal/analysis/absint"
	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/dataflow"
	"gadt/internal/analysis/lint"
	"gadt/internal/analysis/sideeffect"
	"gadt/internal/corpus"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digestSubject is one program whose analysis facts are pinned.
type digestSubject struct{ name, src string }

// digestSubjects lists the pinned programs: the corpus subjects (fixed
// and buggy), the testdata programs, the two progen shapes the session
// benchmark debugs, and 100 random programs with gotos (reads on even
// seeds).
func digestSubjects(t *testing.T) []digestSubject {
	var subs []digestSubject
	for _, p := range corpus.Subjects() {
		subs = append(subs, digestSubject{p.Name, p.Source})
		if p.Buggy != "" {
			subs = append(subs, digestSubject{p.Name + "-buggy", p.Buggy})
		}
	}
	for _, name := range []string{"lint_anomalies.pas", "lint_clean.pas", "sqrtest.pas", "sqrtest_fixed.pas", "arrsum.pas", "slice_example.pas"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, digestSubject{name, string(src)})
	}
	for _, c := range []progen.Config{{Depth: 4, Fanout: 3}, {Depth: 6, Fanout: 2, Loops: true}} {
		p := progen.Generate(c)
		name := fmt.Sprintf("progen-d%d-f%d-loops%v", c.Depth, c.Fanout, c.Loops)
		subs = append(subs, digestSubject{name, p.Fixed}, digestSubject{name + "-buggy", p.Buggy})
	}
	for seed := int64(1); seed <= 100; seed++ {
		p := progen.Random(progen.RandomConfig{Seed: seed, Gotos: true, Reads: seed%2 == 0})
		subs = append(subs, digestSubject{p.Name, p.Source})
	}
	return subs
}

// renderFacts prints every analysis fact lint reads for one program: the
// abstract store at every CFG node (absint's Dump), the reaching
// definitions, flow dependences and live-out variables at every node,
// and the findings.
func renderFacts(t *testing.T, s digestSubject) []byte {
	prog, err := parser.ParseProgram(s.name, s.src)
	if err != nil {
		t.Fatalf("%s: parse: %v", s.name, err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("%s: sem: %v", s.name, err)
	}
	var buf bytes.Buffer
	buf.WriteString(absint.Analyze(info).Dump())

	side := sideeffect.Analyze(info, callgraph.Build(info))
	for _, r := range info.Routines {
		g := cfg.Build(info, r)
		df := dataflow.ReachingDefs(info, g, side)
		live := df.Liveness()
		var vars []*sem.VarSym
		seen := make(map[*sem.VarSym]bool)
		for _, d := range df.Defs {
			fmt.Fprintf(&buf, "def %d %s n%d must=%v synthetic=%v\n", d.ID, d.Var.Name, d.Node.ID, d.Must, d.Synthetic)
			if !seen[d.Var] {
				seen[d.Var] = true
				vars = append(vars, d.Var)
			}
		}
		for _, n := range g.Nodes {
			fmt.Fprintf(&buf, "%s n%d:", r.Name, n.ID)
			for _, v := range vars {
				fmt.Fprintf(&buf, " %s=[", v.Name)
				for _, d := range df.ReachingAt(n, v) {
					fmt.Fprintf(&buf, " %d", d.ID)
				}
				buf.WriteString(" ]")
				if live.LiveOut(n, v) {
					buf.WriteString("live")
				}
			}
			buf.WriteString(" deps")
			for _, d := range df.FlowDeps(n) {
				fmt.Fprintf(&buf, " %d", d.ID)
			}
			buf.WriteString("\n")
		}
	}
	lint.Text(&buf, lint.RunInfo(info, s.src, lint.Options{}))
	return buf.Bytes()
}

// TestAnalysisDigests pins the value analysis, reaching definitions,
// liveness and lint findings of every digest subject: one SHA-256 of the
// rendered facts per program, compared with
// testdata/analysis_digests.golden. A storage change in any analysis
// must leave every digest as it is.
func TestAnalysisDigests(t *testing.T) {
	golden := filepath.Join("..", "..", "..", "testdata", "analysis_digests.golden")
	var got bytes.Buffer
	digests := make(map[string]string)
	for _, s := range digestSubjects(t) {
		sum := sha256.Sum256(renderFacts(t, s))
		d := hex.EncodeToString(sum[:])
		digests[s.name] = d
		fmt.Fprintf(&got, "%s %s\n", s.name, d)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, d, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = true
		switch g, found := digests[name]; {
		case !found:
			t.Errorf("%s: in the golden but no longer a digest subject", name)
		case g != d:
			t.Errorf("%s: analysis facts changed (digest %s, golden %s)", name, g, d)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name := range digests {
		if !want[name] {
			t.Errorf("%s: no golden digest (run with -update to add it)", name)
		}
	}
}
