// Package perfbench defines the interpreter hot-path benchmark
// workloads shared by the repo-level benchmarks (bench_test.go) and
// cmd/interp-bench, so the numbers recorded in BENCH_interp.json are
// measured on exactly the subjects the benchmark suite tracks.
package perfbench

import (
	"testing"

	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
)

// IntLoopSrc is the integer-heavy subject of the PERF experiment: a
// tight arithmetic loop whose cost is dominated by variable access,
// integer binary operators and assignment — exactly the interpreter
// paths the slot-frame/unboxed-value design targets (EXPERIMENTS.md,
// PERF).
const IntLoopSrc = `
program tight;
var i, s, t: integer;
begin
  s := 0;
  t := 1;
  for i := 1 to 20000 do
  begin
    s := s + i * i mod 97;
    if odd(s) then t := t + 1 else t := t - 1;
    while t > 50 do t := t - 7
  end;
  writeln(s, t)
end.
`

// ProgenDepths are the graded sizes of the synthetic whole-program
// subjects.
var ProgenDepths = []int{3, 5, 7}

// IntLoop returns the benchmark body measuring raw interpreter
// throughput on the integer-heavy loop.
func IntLoop() func(b *testing.B) {
	return forSource(IntLoopSrc)
}

// Progen returns the benchmark body for a seeded progen subject of the
// given call-tree depth, run without tracing sinks: the cost the
// mutation campaign and differential harness pay per evaluation.
func Progen(depth int) func(b *testing.B) {
	p := progen.Generate(progen.Config{Depth: depth, Fanout: 2, Loops: true})
	return forSource(p.Buggy)
}

func forSource(src string) func(b *testing.B) {
	prog := parser.MustParse("bench.pas", src)
	info, err := sem.Analyze(prog)
	return func(b *testing.B) {
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := interp.New(info, interp.Config{})
			if err := it.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
