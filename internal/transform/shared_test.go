package transform_test

import (
	"sync"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/diffharness"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/types"
	"gadt/internal/transform"
)

// reading is what an Info says about one node of its program.
type reading struct {
	use  sem.Symbol
	call *sem.Routine
	typ  types.Type
}

func readAll(info *sem.Info) map[ast.Node]reading {
	out := make(map[ast.Node]reading)
	ast.Inspect(info.Program, func(n ast.Node) bool {
		r := reading{call: info.CallOf(n)}
		if id, ok := n.(*ast.Ident); ok {
			r.use = info.UseOf(id)
		}
		if e, ok := n.(ast.Expr); ok {
			r.typ = info.TypeOf(e)
		}
		out[n] = r
		return true
	})
	return out
}

// TestConcurrentApplyStagesLeavesInputIntact pins the contract that lets
// the differential harness share one analyzed base among a subject's
// comparisons: ApplyStages only reads its input, so the diff stage sets
// may transform one Info from several goroutines at once, and the
// original program and its analysis read as before afterwards.
func TestConcurrentApplyStagesLeavesInputIntact(t *testing.T) {
	for _, p := range corpus.Subjects() {
		prog := parser.MustParse(p.Name+".pas", p.Source)
		info, err := sem.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: analyze: %v", p.Name, err)
		}
		before := readAll(info)

		var wg sync.WaitGroup
		for _, st := range diffharness.Combos() {
			wg.Add(1)
			go func(st transform.Stages) {
				defer wg.Done()
				// A rejection (a non-local goto) is fine; changing the
				// input is not.
				_, _ = transform.ApplyStages(info, st)
			}(st)
		}
		wg.Wait()

		fresh := parser.MustParse(p.Name+".pas", p.Source)
		if got, want := printer.Print(prog), printer.Print(fresh); got != want {
			t.Errorf("%s: transforming changed the original program:\n%s\nwant:\n%s", p.Name, got, want)
		}
		after := readAll(info)
		if len(after) != len(before) {
			t.Errorf("%s: original program has %d nodes after transforming, %d before", p.Name, len(after), len(before))
		}
		for n, want := range before {
			if got := after[n]; got != want {
				t.Errorf("%s: %T at %v reads %+v after transforming, want %+v", p.Name, n, n.Pos(), got, want)
			}
		}
	}
}
