package transform

import (
	"fmt"

	"gadt/internal/analysis/callgraph"
	"gadt/internal/analysis/defuse"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// globalEntry is one non-local variable converted to a parameter of a
// routine.
type globalEntry struct {
	v       *sem.VarSym
	mode    ast.ParamMode // actual mode in the transformed program
	display ast.ParamMode // logical mode (in/var/out) for presentation
	name    string        // parameter name inside the routine (usually v.Name)
}

// varBoundVars collects every variable that may be reachable through a
// second name while a callee runs, so a read-only use of it cannot
// safely be converted into a value copy: variables that appear as a
// var/out actual argument anywhere in the program, and every var/out
// formal parameter itself — a by-reference formal aliases whatever the
// caller passed (here the other direction of the same alias pair), and
// a value snapshot of it goes stale the moment the aliased cell is
// written through the original name.
func varBoundVars(info *sem.Info, cg *callgraph.Graph) *defuse.Set {
	bound := defuse.NewSet()
	for _, sites := range cg.Sites {
		for _, s := range sites {
			for i, p := range s.Callee.Params {
				if p.Mode == ast.Value || i >= len(s.Args) {
					continue
				}
				bound.Add(info.VarOf(s.Args[i]))
			}
		}
	}
	for _, r := range info.Routines {
		for _, p := range r.Params {
			if p.IsByRef() {
				bound.Add(p)
			}
		}
	}
	return bound
}

// globalsToParams converts every non-local variable reference into
// explicit parameter passing (the paper's first transformation example):
// referenced-only globals become value ("in") parameters, modified ones
// become var or out parameters, and every call site passes the variable
// through, transitively. It reports whether it changed the program:
// without a routine that references a non-local variable it does not.
func (st *state) globalsToParams(p *ast.Program) (bool, error) {
	info := st.info
	cg, se := st.effects()
	bound := varBoundVars(info, cg)

	// Plan the new parameters per routine.
	plan := make(map[*sem.Routine][]globalEntry)
	for _, r := range info.Routines {
		if r.IsProgram() {
			continue
		}
		eff := se.Of[r]
		if eff.ModGlobals.Len() == 0 && eff.RefGlobals.Len() == 0 {
			continue
		}
		taken := make(map[string]bool)
		for _, v := range r.AllVars() {
			taken[v.Name] = true
		}
		var entries []globalEntry
		add := func(v *sem.VarSym, mode, display ast.ParamMode) {
			name := v.Name
			if taken[name] {
				name = st.fresh(name + "_g")
			}
			taken[name] = true
			entries = append(entries, globalEntry{v: v, mode: mode, display: display, name: name})
		}
		var ins, vars, outs []*sem.VarSym
		for _, v := range eff.SortedRef() {
			if !eff.ModGlobals.Has(v) {
				ins = append(ins, v)
			}
		}
		for _, v := range eff.SortedMod() {
			if eff.RefGlobals.Has(v) {
				vars = append(vars, v)
			} else {
				outs = append(outs, v)
			}
		}
		for _, v := range ins {
			// Value copy only when no alias can mutate v during the
			// call; otherwise pass by reference but present as `in`.
			if bound.Has(v) {
				add(v, ast.VarMode, ast.Value)
			} else {
				add(v, ast.Value, ast.Value)
			}
		}
		for _, v := range vars {
			add(v, ast.VarMode, ast.VarMode)
		}
		for _, v := range outs {
			// Out parameters still bind by reference, so may-definitions
			// (partial array updates) preserve untouched elements.
			add(v, ast.Out, ast.Out)
		}
		plan[r] = entries
	}
	if len(plan) == 0 {
		return false, nil
	}

	// Rewrite each routine: rename non-local references to the new
	// parameter names, then extend call sites, then append the formal
	// parameters.
	for _, r := range info.Routines {
		entries := plan[r]
		byVar := make(map[*sem.VarSym]string, len(entries))
		for _, en := range entries {
			byVar[en.v] = en.name
		}

		// Rename references to converted globals within r's own body.
		ast.Inspect(r.Block.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.UseOf(id).(*sem.VarSym); ok {
					if name, hit := byVar[v]; hit && id.Name != name {
						id.Name = name
					}
				}
			}
			return true
		})

		// denote returns how variable v is spelled inside r.
		denote := func(v *sem.VarSym, pos ast.Node) ast.Expr {
			name := v.Name
			if pn, hit := byVar[v]; hit {
				name = pn
			}
			return &ast.Ident{NamePos: pos.Pos(), Name: name}
		}

		// Extend call sites in r's body.
		st.extendCalls(r, info, plan, denote)

		// Append the formal parameters.
		if len(entries) > 0 {
			for _, en := range entries {
				texpr, err := typeExprOf(en.v)
				if err != nil {
					return false, fmt.Errorf("transform: lifting %s into a parameter of %s: %w", en.v.Name, r.Name, err)
				}
				r.Decl.Params = append(r.Decl.Params, &ast.Param{
					DeclPos: r.Decl.Pos(),
					Mode:    en.mode,
					Names:   []string{en.name},
					Type:    texpr,
				})
				st.res.Added[r.Name] = append(st.res.Added[r.Name], AddedParam{
					Name: en.name, Mode: en.mode, Display: en.display, GlobalOf: en.v.Name,
				})
			}
		}
	}
	return true, nil
}

// typeExprOf reconstructs a type denotation for v from its declaration.
// Type names declared in ancestors remain visible in descendants, so the
// original denotation can be reused verbatim. A variable whose
// declaration carries no reusable denotation (e.g. a function-result
// pseudo-variable, whose Decl is the *ast.Routine) cannot be lifted into
// a parameter: silently guessing a type here would miscompile the lifted
// global, so it is a hard error.
func typeExprOf(v *sem.VarSym) (ast.TypeExpr, error) {
	switch d := v.Decl.(type) {
	case *ast.VarDecl:
		return ast.CloneTypeExpr(d.Type), nil
	case *ast.Param:
		return ast.CloneTypeExpr(d.Type), nil
	}
	return nil, fmt.Errorf("variable %s has no reconstructible type denotation (declared by %T)", v.Name, v.Decl)
}

// extendCalls appends global-passing arguments to every call in r's body
// whose callee gained parameters. Parameterless function references in
// expression position are promoted to explicit call expressions.
func (st *state) extendCalls(r *sem.Routine, info *sem.Info, plan map[*sem.Routine][]globalEntry, denote func(*sem.VarSym, ast.Node) ast.Expr) {
	var rewriteExpr func(e ast.Expr) ast.Expr
	extend := func(node ast.Node, args []ast.Expr) []ast.Expr {
		callee := info.CallOf(node)
		if callee == nil {
			return args
		}
		for _, en := range plan[callee] {
			args = append(args, denote(en.v, node))
		}
		return args
	}
	rewriteExprs := func(es []ast.Expr) {
		for i, e := range es {
			es[i] = rewriteExpr(e)
		}
	}
	rewriteExpr = func(e ast.Expr) ast.Expr {
		switch e := e.(type) {
		case nil:
			return nil
		case *ast.Ident:
			// A parameterless function call gaining parameters must
			// become an explicit call expression.
			if callee := info.CallOf(e); callee != nil && len(plan[callee]) > 0 {
				ce := &ast.CallExpr{CallPos: e.Pos(), Name: e.Name}
				ce.Args = extend(e, nil)
				return ce
			}
			return e
		case *ast.BinaryExpr:
			e.X = rewriteExpr(e.X)
			e.Y = rewriteExpr(e.Y)
			return e
		case *ast.UnaryExpr:
			e.X = rewriteExpr(e.X)
			return e
		case *ast.IndexExpr:
			e.X = rewriteExpr(e.X)
			rewriteExprs(e.Indices)
			return e
		case *ast.FieldExpr:
			e.X = rewriteExpr(e.X)
			return e
		case *ast.CallExpr:
			rewriteExprs(e.Args)
			e.Args = extend(e, e.Args)
			return e
		case *ast.SetLit:
			rewriteExprs(e.Elems)
			return e
		default:
			return e
		}
	}

	var rewriteStmt func(slot *ast.Stmt)
	rewriteStmt = func(slot *ast.Stmt) {
		switch s := (*slot).(type) {
		case *ast.AssignStmt:
			s.Lhs = rewriteExpr(s.Lhs)
			s.Rhs = rewriteExpr(s.Rhs)
		case *ast.CallStmt:
			rewriteExprs(s.Args)
			s.Args = extend(s, s.Args)
		case *ast.IfStmt:
			s.Cond = rewriteExpr(s.Cond)
		case *ast.WhileStmt:
			s.Cond = rewriteExpr(s.Cond)
		case *ast.ForStmt:
			s.From = rewriteExpr(s.From)
			s.Limit = rewriteExpr(s.Limit)
		case *ast.CaseStmt:
			s.Expr = rewriteExpr(s.Expr)
		}
		ast.Stmts(*slot, rewriteStmt)
		if s, ok := (*slot).(*ast.RepeatStmt); ok {
			s.Cond = rewriteExpr(s.Cond) // after the body, as it runs
		}
	}
	ast.Stmts(r.Block.Body, rewriteStmt)
}
