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
		d := diff(cfg, Subject{Name: "shrink", Source: src, Input: input}, stages)
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

// edit is one candidate reduction applied to a fresh clone; counterpart
// maps original nodes to their clones.
type edit func(counterpart func(ast.Node) ast.Node) bool

// shrinkPass greedily applies enumerated edits until none survives,
// re-enumerating after every accepted edit; reports whether any edit
// was taken.
func shrinkPass(source string, diverges func(string) bool) (string, bool) {
	prog, err := parser.ParseProgram("shrink.pas", source)
	if err != nil {
		return source, false
	}
	changed := false
	for {
		took := false
		for _, e := range enumerateEdits(prog) {
			clone, cm := ast.Clone(prog)
			old2new := make(map[ast.Node]ast.Node, len(cm))
			for nw, old := range cm {
				old2new[old] = nw
			}
			if !e(func(n ast.Node) ast.Node { return old2new[n] }) {
				continue
			}
			if _, err := sem.Analyze(clone); err != nil {
				continue
			}
			src := printer.Print(clone)
			if !diverges(src) {
				continue
			}
			prog, source = clone, src
			changed, took = true, true
			break
		}
		if !took {
			return source, changed
		}
	}
}

// enumerateEdits lists candidate reductions on prog, largest single
// reductions first: whole routines, then statements, then literals.
func enumerateEdits(prog *ast.Program) []edit {
	var edits []edit

	// Delete whole routines.
	var walkRoutines func(b *ast.Block)
	walkRoutines = func(b *ast.Block) {
		for i, r := range b.Routines {
			i, b := i, b
			edits = append(edits, func(counterpart func(ast.Node) ast.Node) bool {
				nb, ok := counterpart(b).(*ast.Block)
				if !ok || i >= len(nb.Routines) {
					return false
				}
				nb.Routines = append(nb.Routines[:i:i], nb.Routines[i+1:]...)
				return true
			})
			walkRoutines(r.Block)
		}
	}
	walkRoutines(prog.Block)

	// Drop statements from statement lists (replacement with the empty
	// statement — mutate's drop-stmt operator, run in reverse for
	// reduction instead of fault injection).
	drop := func(parent ast.Node, stmts []ast.Stmt) {
		for i, s := range stmts {
			if _, empty := s.(*ast.EmptyStmt); empty {
				continue
			}
			i := i
			edits = append(edits, func(counterpart func(ast.Node) ast.Node) bool {
				switch p := counterpart(parent).(type) {
				case *ast.CompoundStmt:
					if i < len(p.Stmts) {
						p.Stmts[i] = &ast.EmptyStmt{SemiPos: p.Stmts[i].Pos()}
						return true
					}
				case *ast.RepeatStmt:
					if i < len(p.Stmts) {
						p.Stmts[i] = &ast.EmptyStmt{SemiPos: p.Stmts[i].Pos()}
						return true
					}
				}
				return false
			})
		}
	}
	// Hoist a structured statement's body in place of the construct
	// (unwraps the loop/if/case shell around the culprit statement).
	hoist := func(node ast.Node, body ast.Stmt) {
		if body == nil {
			return
		}
		edits = append(edits, func(counterpart func(ast.Node) ast.Node) bool {
			root, _ := counterpart(prog).(*ast.Program)
			s, ok1 := counterpart(node).(ast.Stmt)
			r, ok2 := counterpart(body).(ast.Stmt)
			if root == nil || !ok1 || !ok2 {
				return false
			}
			return replaceInTree(root, s, r)
		})
	}
	ast.Inspect(prog, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompoundStmt:
			drop(n, n.Stmts)
		case *ast.RepeatStmt:
			drop(n, n.Stmts)
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
			v := v
			edits = append(edits, func(counterpart func(ast.Node) ast.Node) bool {
				nl, ok := counterpart(lit).(*ast.IntLit)
				if !ok {
					return false
				}
				nl.Value = v
				return true
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

// replaceInTree substitutes r for the statement s wherever it hangs in
// the tree rooted at root. Counterexamples are small, so a whole-tree
// scan per edit is cheap.
func replaceInTree(root ast.Node, s, r ast.Stmt) bool {
	done := false
	ast.Inspect(root, func(n ast.Node) bool {
		if done {
			return false
		}
		switch n := n.(type) {
		case *ast.CompoundStmt:
			for i := range n.Stmts {
				if n.Stmts[i] == s {
					n.Stmts[i], done = r, true
					return false
				}
			}
		case *ast.RepeatStmt:
			for i := range n.Stmts {
				if n.Stmts[i] == s {
					n.Stmts[i], done = r, true
					return false
				}
			}
		case *ast.IfStmt:
			if n.Then == s {
				n.Then, done = r, true
				return false
			}
			if n.Else == s {
				n.Else, done = r, true
				return false
			}
		case *ast.WhileStmt:
			if n.Body == s {
				n.Body, done = r, true
				return false
			}
		case *ast.ForStmt:
			if n.Body == s {
				n.Body, done = r, true
				return false
			}
		case *ast.CaseStmt:
			for _, arm := range n.Arms {
				if arm.Body == s {
					arm.Body, done = r, true
					return false
				}
			}
			if n.Else == s {
				n.Else, done = r, true
				return false
			}
		case *ast.LabeledStmt:
			if n.Stmt == s {
				n.Stmt, done = r, true
				return false
			}
		}
		return true
	})
	return done
}
