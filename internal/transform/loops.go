package transform

import (
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/token"
)

// extractLoops rewrites every loop in the program into a synthetic
// recursive procedure (a loop unit). A while loop
//
//	while C do B
//
// becomes
//
//	procedure r_loop; begin if C then begin B; r_loop; end; end;
//	...; r_loop;
//
// so that each loop iteration shows up as one unit invocation in the
// execution tree — the per-iteration queries of Section 6.1. For loops
// are first brought into while form with an explicit limit variable;
// repeat loops test their condition after the body. Loops whose body
// places a label are left in place (jumping into a loop is not
// supported); gotos that merely leave the loop become global gotos of
// the loop unit and are handled by the goto-breaking pass.
func (st *state) extractLoops(p *ast.Program) {
	st.extractInBlock(p.Block, p.Name)
}

func (st *state) extractInBlock(b *ast.Block, routineName string) {
	for _, r := range b.Routines {
		owner := routineName
		if _, isLoop := st.res.Units[r.Name]; !isLoop || st.res.Units[r.Name].Kind == RoutineUnit {
			owner = r.Name
		}
		st.extractInBlock(r.Block, owner)
	}
	before := len(b.Routines)
	b.Body = st.extractInStmt(b.Body, b, routineName).(*ast.CompoundStmt)
	// Newly created loop units may contain further (inner) loops.
	for i := before; i < len(b.Routines); i++ {
		st.extractInBlock(b.Routines[i].Block, b.Routines[i].Name)
	}
}

// placesLabel reports whether s contains a labeled statement.
func placesLabel(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.LabeledStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// extractInStmt returns s with every loop in it extracted into a loop
// unit; a loop that places a label stays, and only its body is searched.
func (st *state) extractInStmt(s ast.Stmt, b *ast.Block, routineName string) ast.Stmt {
	switch s := s.(type) {
	case *ast.WhileStmt:
		if placesLabel(s) {
			break
		}
		return st.makeLoopUnit(s, b, routineName, func(self string) ast.Stmt {
			// if C then begin B; self; end
			return &ast.IfStmt{
				IfPos: s.Pos(),
				Cond:  s.Cond,
				Then: &ast.CompoundStmt{BeginPos: s.Pos(), Stmts: []ast.Stmt{
					s.Body,
					&ast.CallStmt{CallPos: s.Pos(), Name: self},
				}},
			}
		}, nil)
	case *ast.RepeatStmt:
		if placesLabel(s) {
			break
		}
		return st.makeLoopUnit(s, b, routineName, func(self string) ast.Stmt {
			// B; if not C then self
			body := append([]ast.Stmt{}, s.Stmts...)
			body = append(body, &ast.IfStmt{
				IfPos: s.Pos(),
				Cond:  &ast.UnaryExpr{OpPos: s.Pos(), Op: token.Not, X: s.Cond},
				Then:  &ast.CallStmt{CallPos: s.Pos(), Name: self},
			})
			return &ast.CompoundStmt{BeginPos: s.Pos(), Stmts: body}
		}, nil)
	case *ast.ForStmt:
		if placesLabel(s) {
			break
		}
		// Introduce explicit limit and trip-counter variables in the
		// enclosing block. The counter is essential for equivalence: a
		// Pascal for statement fixes its trip count up front, so a body
		// that assigns the control variable must neither change the
		// iteration count nor see its assignment overwritten past the
		// loop. Driving the recursion off the user-visible variable
		// would do both (and can recurse forever when the body resets
		// it); instead the hidden counter drives the recursion and the
		// control variable is re-seeded from it at each entry — exactly
		// the interpreter's execFor discipline.
		limitName := st.fresh(s.Var.Name + "_limit")
		cntName := st.fresh(s.Var.Name + "_cnt")
		b.Vars = append(b.Vars, &ast.VarDecl{
			DeclPos: s.Pos(),
			Names:   []string{limitName, cntName},
			Type:    &ast.NamedType{NamePos: s.Pos(), Name: "integer"},
		})
		cmpOp, stepOp := token.LessEq, token.Plus
		if s.Down {
			cmpOp, stepOp = token.GreatEq, token.Minus
		}
		mkVar := func() *ast.Ident { return &ast.Ident{NamePos: s.Var.Pos(), Name: s.Var.Name} }
		mkLimit := func() *ast.Ident { return &ast.Ident{NamePos: s.Pos(), Name: limitName} }
		mkCnt := func() *ast.Ident { return &ast.Ident{NamePos: s.Pos(), Name: cntName} }
		// cnt := From; limit := Limit; i := cnt — the interpreter's
		// evaluation order (From before Limit), each exactly once, and
		// the control variable holds From even for zero iterations.
		pre := []ast.Stmt{
			&ast.AssignStmt{Lhs: mkCnt(), Rhs: s.From},
			&ast.AssignStmt{Lhs: mkLimit(), Rhs: s.Limit},
			&ast.AssignStmt{Lhs: mkVar(), Rhs: mkCnt()},
		}
		return st.makeLoopUnit(s, b, routineName, func(self string) ast.Stmt {
			// if cnt <= limit then begin i := cnt; B; cnt := cnt ± 1; self; end
			return &ast.IfStmt{
				IfPos: s.Pos(),
				Cond:  &ast.BinaryExpr{Op: cmpOp, X: mkCnt(), Y: mkLimit()},
				Then: &ast.CompoundStmt{BeginPos: s.Pos(), Stmts: []ast.Stmt{
					&ast.AssignStmt{Lhs: mkVar(), Rhs: mkCnt()},
					s.Body,
					&ast.AssignStmt{Lhs: mkCnt(), Rhs: &ast.BinaryExpr{Op: stepOp, X: mkCnt(), Y: &ast.IntLit{LitPos: s.Pos(), Value: 1}}},
					&ast.CallStmt{CallPos: s.Pos(), Name: self},
				}},
			}
		}, pre)
	}
	ast.Stmts(s, func(slot *ast.Stmt) { *slot = st.extractInStmt(*slot, b, routineName) })
	return s
}

// makeLoopUnit creates the synthetic recursive procedure for a loop and
// returns the replacement statement (optional pre-statements followed by
// the initial call).
func (st *state) makeLoopUnit(loop ast.Stmt, b *ast.Block, routineName string, body func(self string) ast.Stmt, pre []ast.Stmt) ast.Stmt {
	name := st.fresh(routineName + "_loop")
	proc := &ast.Routine{
		DeclPos:   loop.Pos(),
		Kind:      ast.ProcKind,
		Name:      name,
		Synthetic: true,
		Block: &ast.Block{
			BlockPos: loop.Pos(),
			Body: &ast.CompoundStmt{
				BeginPos: loop.Pos(),
				Stmts:    []ast.Stmt{body(name)},
			},
		},
	}
	b.Routines = append(b.Routines, proc)
	st.res.Units[name] = UnitOrigin{Kind: LoopUnit, RoutineName: rootUnitName(st.res, routineName), Loop: loop}

	call := &ast.CallStmt{CallPos: loop.Pos(), Name: name}
	if len(pre) == 0 {
		return call
	}
	return &ast.CompoundStmt{BeginPos: loop.Pos(), Stmts: append(pre, call)}
}

// rootUnitName resolves nested loop units to the original routine that
// lexically contained the outermost loop.
func rootUnitName(res *Result, name string) string {
	for {
		u, ok := res.Units[name]
		if !ok || u.Kind == RoutineUnit {
			return name
		}
		if u.RoutineName == name {
			return name
		}
		name = u.RoutineName
	}
}
