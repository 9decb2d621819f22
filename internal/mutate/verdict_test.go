package mutate

import (
	"fmt"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
)

// verdictFixture reaches every rule of viable. In f, a local shadows the
// function's own name, so assigning to it sets the result.
const verdictFixture = `program fixture;
var s, u: string;
    b, c: boolean;
    i, j: integer;
    r: real;
    v: array [1 .. 2] of real;

function f(x: integer): boolean;
var f, g: integer;
begin
  g := x;
  f := x > 0
end;

begin
  s := s + u;
  b := b = c;
  i := 6;
  j := 3;
  r := i / j;
  v := [i / j, 2.5];
  if f(i) then
    writeln(s)
end.
`

// TestStillbornVerdictExact checks that enumeration's verdict on every
// site equals a full analysis of the edited program, over the default
// campaign subjects, random programs and verdictFixture.
func TestStillbornVerdictExact(t *testing.T) {
	type program struct{ name, source string }
	progs := []program{{"fixture", verdictFixture}, {"sqrtest", paper.SqrtestFixed}}
	for _, p := range corpus.Subjects() {
		progs = append(progs, program{p.Name, p.Source})
	}
	for seed := int64(1); seed <= 30; seed++ {
		p := progen.Random(progen.RandomConfig{Seed: seed, Gotos: seed%2 == 0, Reads: seed%3 == 0})
		progs = append(progs, program{p.Name, p.Source})
	}
	all := make(map[Op]bool)
	for _, op := range AllOps() {
		all[op] = true
	}

	// fixture maps "line: description" to {viable, re-analyzed} for the
	// fixture's sites.
	fixture := make(map[string][2]bool)
	total, reanalyzed := 0, 0
	for _, p := range progs {
		prog := parser.MustParse(p.name+".pas", p.source)
		info, err := sem.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		var sites []*site
		collectBlock(prog.Block, prog.Name, nil, all, &sites)
		for _, st := range sites {
			reg := obs.NewRegistry()
			got := viable(prog, info, st, reg)
			undo := st.apply()
			_, err := sem.Analyze(prog)
			undo()
			if got != (err == nil) {
				t.Errorf("%s %s: %s: verdict viable=%v, full analysis: %v", p.name, st.pos, st.desc, got, err)
			}
			full := reg.Counter("mutate.reanalyses").Value() > 0
			total++
			if full {
				reanalyzed++
			}
			if p.name == "fixture" {
				fixture[fmt.Sprintf("%d: %s", st.pos.Line, st.desc)] = [2]bool{got, full}
			}
		}
	}
	t.Logf("%d programs, %d sites, %d re-analyzed", len(progs), total, reanalyzed)

	for site, want := range map[string][2]bool{
		"16: arith-flip + -> - in fixture":     {false, false}, // no string -
		"17: rel-flip = -> <> in fixture":      {true, false},  // same type
		"17: rel-flip = -> <= in fixture":      {false, false}, // booleans are unordered
		"17: var-swap c -> b in fixture":       {true, false},  // a read
		"18: var-swap i -> j in fixture":       {true, true},   // a target
		"20: arith-flip / -> * in fixture":     {true, true},   // integer, assignable to real
		"21: arith-flip / -> * in fixture":     {false, true},  // mixed array display
		"11: var-swap g -> f in f":             {false, true},  // f is f's result
		"12: var-swap f -> g in f":             {false, true},  // g is the local
		"12: rel-flip > -> >= in f":            {true, false},
		"22: negate-cond if `f(i)` in fixture": {true, false},
		"12: const-off-by-one 0 -> 1 in f":     {true, false},
		"19: drop-stmt `j := 3` in fixture":    {true, false},
	} {
		got, ok := fixture[site]
		if !ok {
			t.Errorf("fixture has no site %q", site)
		} else if got != want {
			t.Errorf("fixture %s: {viable, re-analyzed} = %v, want %v", site, got, want)
		}
	}
}
