// Shrinking: a divergent program is reduced to a minimal
// counterexample before it lands in testdata/diff/. The reducer runs
// mutate-style AST edits in reverse — instead of planting faults it
// deletes and simplifies, keeping an edit whenever the reduced program
// still diverges under the same stage combination.
package diffharness

import (
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/transform"
)

// shrinkMaxChecks bounds the number of candidate re-executions per
// divergence: shrinking is best-effort and must not sink the campaign.
const shrinkMaxChecks = 600

// Shrink greedily minimizes a divergent program: statements are
// dropped, routines deleted, loop/if bodies hoisted, and integer
// literals minimized, as long as the reduction still diverges under
// the given stage combination. Returns the minimized source (or the
// input unchanged when no reduction survives).
func Shrink(source, input string, stages transform.Stages, cfg Config) string {
	cfg = cfg.withDefaults()
	checks := 0
	diverges := func(src string) bool {
		if checks >= shrinkMaxChecks {
			return false
		}
		checks++
		d := newBase(cfg, Subject{Name: "shrink", Source: src, Input: input}).diff(cfg, input, stages)
		return d != nil && d.kind != "invalid" && d.kind != "fuel" && d.kind != "rejected"
	}
	if !diverges(source) {
		return source // not reproducible in isolation; keep as-is
	}
	for {
		next, changed := shrinkPass(source, diverges)
		if !changed {
			return source
		}
		source = next
	}
}

// edit is one candidate reduction: it changes the parsed program in
// place and returns the edit that undoes it, as mutate's sites do.
type edit func() (undo func())

// shrinkPass greedily applies enumerated edits until none survives,
// re-enumerating after every accepted edit; reports whether any edit
// was taken.
func shrinkPass(source string, diverges func(string) bool) (string, bool) {
	prog, err := parser.ParseProgram("shrink.pas", source)
	if err != nil {
		return source, false
	}
	changed := false
	for took := true; took; {
		took = false
		for _, e := range enumerateEdits(prog) {
			undo := e()
			if _, err := sem.Analyze(prog); err == nil {
				if src := printer.Print(prog); diverges(src) {
					source, changed, took = src, true, true
					break
				}
			}
			undo()
		}
	}
	return source, changed
}

// enumerateEdits lists candidate reductions on prog, largest single
// reductions first: whole routines, then statements, then literals.
func enumerateEdits(prog *ast.Program) []edit {
	var edits []edit

	// Delete whole routines.
	var walkRoutines func(b *ast.Block)
	walkRoutines = func(b *ast.Block) {
		for i, r := range b.Routines {
			edits = append(edits, func() func() {
				old := b.Routines
				b.Routines = append(old[:i:i], old[i+1:]...)
				return func() { b.Routines = old }
			})
			walkRoutines(r.Block)
		}
	}
	walkRoutines(prog.Block)

	// replace is the edit that puts s in slot.
	replace := func(slot *ast.Stmt, s ast.Stmt) {
		edits = append(edits, func() func() {
			old := *slot
			*slot = s
			return func() { *slot = old }
		})
	}
	// Drop statements from statement lists (replacement with the empty
	// statement — mutate's drop-stmt operator, run in reverse for
	// reduction instead of fault injection).
	drop := func(list ast.Stmt) {
		ast.Stmts(list, func(slot *ast.Stmt) {
			if _, empty := (*slot).(*ast.EmptyStmt); !empty {
				replace(slot, &ast.EmptyStmt{SemiPos: (*slot).Pos()})
			}
		})
	}
	// Hoist a structured statement's body in place of the construct
	// (unwraps the loop/if/case shell around the culprit statement).
	// slots holds where each statement of a block hangs; the walk below
	// fills it when it enters the block.
	slots := make(map[ast.Stmt]*ast.Stmt)
	var record func(slot *ast.Stmt)
	record = func(slot *ast.Stmt) {
		slots[*slot] = slot
		ast.Stmts(*slot, record)
	}
	hoist := func(s, body ast.Stmt) {
		if body != nil {
			replace(slots[s], body)
		}
	}
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Block:
			ast.Stmts(n.Body, record)
		case *ast.CompoundStmt:
			drop(n)
		case *ast.RepeatStmt:
			drop(n)
			if len(n.Stmts) > 0 {
				hoist(n, n.Stmts[0])
			}
		case *ast.IfStmt:
			hoist(n, n.Then)
			hoist(n, n.Else)
		case *ast.WhileStmt:
			hoist(n, n.Body)
		case *ast.ForStmt:
			hoist(n, n.Body)
		case *ast.CaseStmt:
			for _, arm := range n.Arms {
				hoist(n, arm.Body)
			}
			hoist(n, n.Else)
		}
		return true
	})

	// Minimize integer literals toward zero.
	ast.Inspect(prog, func(n ast.Node) bool {
		lit, ok := n.(*ast.IntLit)
		if !ok || lit.Value == 0 {
			return true
		}
		for _, v := range candidateValues(lit.Value) {
			edits = append(edits, func() func() {
				old := lit.Value
				lit.Value = v
				return func() { lit.Value = old }
			})
		}
		return true
	})
	return edits
}

func candidateValues(v int64) []int64 {
	var out []int64
	for _, c := range []int64{0, 1, v / 2} {
		if c != v {
			out = append(out, c)
		}
	}
	return out
}
