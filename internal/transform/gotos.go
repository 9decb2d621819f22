package transform

import (
	"fmt"
	"sort"

	"gadt/internal/analysis/sideeffect"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
)

const (
	eqOp  = token.Eq
	neqOp = token.NotEq
)

// breakGotos removes global gotos (the paper's exit side-effects):
// every routine that may exit non-locally gets an `out` exit-condition
// parameter; each global goto becomes `exitcond := code; goto exitlab`
// with exitlab placed at the routine's end; each call site receives the
// code in a fresh temporary and either jumps to the (now local) label or
// re-raises through its own exit-condition parameter. It reports
// whether it changed the program: without a global goto it does not.
func (st *state) breakGotos(p *ast.Program) (bool, error) {
	info := st.info
	_, se := st.effects()

	// Escape codes, program-wide, in deterministic order.
	codes := make(map[*sem.LabelInfo]int)
	for _, r := range info.Routines {
		for _, li := range se.Of[r].SortedExits() {
			if codes[li] == 0 {
				code := len(codes) + 1
				codes[li] = code
				st.res.EscapeCodes[code] = fmt.Sprintf("label %s in %s", li.Name, li.Routine.Name)
			}
		}
	}
	if len(codes) == 0 {
		return false, nil // no global gotos anywhere
	}

	// Reject functions with exit effects: breaking them would require
	// expression flattening (out of scope, as are pointer side-effects
	// in the paper).
	for _, r := range info.Routines {
		if r.Kind == ast.FuncKind && len(se.Of[r].ExitTargets) > 0 {
			return false, fmt.Errorf("transform: function %s contains a non-local goto, which is not supported", r.Name)
		}
	}

	// Per-routine glue names.
	exitParam := make(map[*sem.Routine]string)
	exitLabel := make(map[*sem.Routine]string)
	for _, r := range info.Routines {
		if len(se.Of[r].ExitTargets) == 0 || r.IsProgram() {
			continue
		}
		exitParam[r] = st.fresh("exitcond")
		exitLabel[r] = st.freshLabel(info)
	}

	for _, r := range info.Routines {
		st.breakGotosInRoutine(r, info, se, codes, exitParam, exitLabel)
	}
	return true, nil
}

// freshLabel invents an unused numeric label.
func (st *state) freshLabel(info *sem.Info) string {
	used := make(map[string]bool)
	for _, r := range info.Routines {
		for name := range r.Labels {
			used[name] = true
		}
	}
	n := 9000 + st.seq
	for {
		name := fmt.Sprintf("%d", n)
		if !used[name] && !st.names[name] {
			st.names[name] = true
			return name
		}
		n++
	}
}

func (st *state) breakGotosInRoutine(r *sem.Routine, info *sem.Info, se *sideeffect.Result,
	codes map[*sem.LabelInfo]int, exitParam, exitLabel map[*sem.Routine]string) {

	b := r.Block
	intType := func(pos ast.Node) *ast.NamedType {
		return &ast.NamedType{NamePos: pos.Pos(), Name: "integer"}
	}

	// Equip the routine itself.
	hasExit := exitParam[r] != ""
	if hasExit {
		pname, lname := exitParam[r], exitLabel[r]
		r.Decl.Params = append(r.Decl.Params, &ast.Param{
			DeclPos: r.Decl.Pos(), Mode: ast.Out, Names: []string{pname}, Type: intType(r.Decl),
		})
		st.res.Added[r.Name] = append(st.res.Added[r.Name], AddedParam{Name: pname, Mode: ast.Out, Display: ast.Out, ExitCond: true})
		b.Labels = append(b.Labels, &ast.LabelDecl{DeclPos: b.Pos(), Name: lname})
		init := &ast.AssignStmt{
			Lhs: &ast.Ident{NamePos: b.Pos(), Name: pname},
			Rhs: &ast.IntLit{LitPos: b.Pos(), Value: 0},
		}
		landing := &ast.LabeledStmt{LabelPos: b.Pos(), Label: lname, Stmt: &ast.EmptyStmt{SemiPos: b.Pos()}}
		b.Body.Stmts = append(append([]ast.Stmt{init}, b.Body.Stmts...), landing)
	}

	// Rewrite gotos and call sites in the body, in place: the pass
	// owns the clone.
	var rewrite func(slot *ast.Stmt)
	rewrite = func(slot *ast.Stmt) {
		switch s := (*slot).(type) {
		case *ast.GotoStmt:
			li := info.GotoTgt[s]
			if li == nil || li.Routine == r {
				return // local goto stays
			}
			// Global goto: raise the escape code and jump to the landing
			// label.
			*slot = &ast.CompoundStmt{BeginPos: s.Pos(), Stmts: []ast.Stmt{
				&ast.AssignStmt{
					Lhs: &ast.Ident{NamePos: s.Pos(), Name: exitParam[r]},
					Rhs: &ast.IntLit{LitPos: s.Pos(), Value: int64(codes[li])},
				},
				&ast.GotoStmt{GotoPos: s.Pos(), Label: exitLabel[r]},
			}}
		case *ast.CallStmt:
			callee := info.CallOf(s)
			if callee == nil || len(se.Of[callee].ExitTargets) == 0 {
				return
			}
			// Receive the callee's exit code in a fresh temporary and
			// dispatch.
			tmp := st.fresh(callee.Name + "_exit")
			b.Vars = append(b.Vars, &ast.VarDecl{DeclPos: s.Pos(), Names: []string{tmp}, Type: intType(s)})
			call := &ast.CallStmt{CallPos: s.Pos(), Name: s.Name,
				Args: append(append([]ast.Expr{}, s.Args...), &ast.Ident{NamePos: s.Pos(), Name: tmp})}
			stmts := []ast.Stmt{call}
			targets := se.Of[callee].SortedExits()
			sort.SliceStable(targets, func(i, j int) bool { return codes[targets[i]] < codes[targets[j]] })
			reRaise := false
			for _, li := range targets {
				if li.Routine == r {
					check := &ast.IfStmt{
						IfPos: s.Pos(),
						Cond: &ast.BinaryExpr{Op: eqOp,
							X: &ast.Ident{NamePos: s.Pos(), Name: tmp},
							Y: &ast.IntLit{LitPos: s.Pos(), Value: int64(codes[li])}},
						Then: &ast.GotoStmt{GotoPos: s.Pos(), Label: li.Name},
					}
					stmts = append(stmts, check)
				} else {
					reRaise = true
				}
			}
			if reRaise {
				check := &ast.IfStmt{
					IfPos: s.Pos(),
					Cond: &ast.BinaryExpr{Op: neqOp,
						X: &ast.Ident{NamePos: s.Pos(), Name: tmp},
						Y: &ast.IntLit{LitPos: s.Pos(), Value: 0}},
					Then: &ast.CompoundStmt{BeginPos: s.Pos(), Stmts: []ast.Stmt{
						&ast.AssignStmt{
							Lhs: &ast.Ident{NamePos: s.Pos(), Name: exitParam[r]},
							Rhs: &ast.Ident{NamePos: s.Pos(), Name: tmp}},
						&ast.GotoStmt{GotoPos: s.Pos(), Label: exitLabel[r]},
					}},
				}
				stmts = append(stmts, check)
			}
			*slot = &ast.CompoundStmt{BeginPos: s.Pos(), Stmts: stmts}
		default:
			ast.Stmts(s, rewrite)
		}
	}
	ast.Stmts(b.Body, rewrite)
}
