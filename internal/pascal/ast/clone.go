package ast

// CloneMap records, for every node of a cloned tree, the original node it
// was copied from, so a caller that edits or prints the copy can name
// the original constructs.
type CloneMap map[Node]Node

// Clone deep-copies a program and returns the copy together with a
// new→old node map.
func Clone(p *Program) (*Program, CloneMap) {
	c := &cloner{m: make(CloneMap)}
	q := c.program(p)
	return q, c.m
}

// CloneProgram deep-copies a program without recording a node map.
func CloneProgram(p *Program) *Program {
	return (&cloner{}).program(p)
}

// CloneTypeExpr deep-copies a single type denotation.
func CloneTypeExpr(t TypeExpr) TypeExpr {
	return (&cloner{}).typeExpr(t)
}

// cloner copies nodes, recording each copy's original in m when m is
// not nil.
type cloner struct {
	m CloneMap
}

func (c *cloner) record(nw, old Node) {
	if c.m != nil {
		c.m[nw] = old
	}
}

func (c *cloner) program(p *Program) *Program {
	if p == nil {
		return nil
	}
	q := &Program{ProgPos: p.ProgPos, Name: p.Name, Block: c.block(p.Block)}
	c.record(q, p)
	return q
}

func (c *cloner) block(b *Block) *Block {
	if b == nil {
		return nil
	}
	nb := &Block{BlockPos: b.BlockPos}
	for _, l := range b.Labels {
		nl := &LabelDecl{DeclPos: l.DeclPos, Name: l.Name}
		c.record(nl, l)
		nb.Labels = append(nb.Labels, nl)
	}
	for _, d := range b.Consts {
		nd := &ConstDecl{DeclPos: d.DeclPos, Name: d.Name, Value: c.expr(d.Value)}
		c.record(nd, d)
		nb.Consts = append(nb.Consts, nd)
	}
	for _, d := range b.Types {
		nd := &TypeDecl{DeclPos: d.DeclPos, Name: d.Name, Type: c.typeExpr(d.Type)}
		c.record(nd, d)
		nb.Types = append(nb.Types, nd)
	}
	for _, d := range b.Vars {
		nd := &VarDecl{DeclPos: d.DeclPos, Names: append([]string(nil), d.Names...), Type: c.typeExpr(d.Type)}
		c.record(nd, d)
		nb.Vars = append(nb.Vars, nd)
	}
	for _, r := range b.Routines {
		nb.Routines = append(nb.Routines, c.routine(r))
	}
	nb.Body = c.stmt(b.Body).(*CompoundStmt)
	c.record(nb, b)
	return nb
}

func (c *cloner) routine(r *Routine) *Routine {
	nr := &Routine{
		DeclPos:   r.DeclPos,
		Kind:      r.Kind,
		Name:      r.Name,
		Result:    c.typeExpr(r.Result),
		Block:     c.block(r.Block),
		Synthetic: r.Synthetic,
	}
	for _, p := range r.Params {
		np := &Param{DeclPos: p.DeclPos, Mode: p.Mode, Names: append([]string(nil), p.Names...), Type: c.typeExpr(p.Type)}
		c.record(np, p)
		nr.Params = append(nr.Params, np)
	}
	c.record(nr, r)
	return nr
}

func (c *cloner) typeExpr(t TypeExpr) TypeExpr {
	switch t := t.(type) {
	case nil:
		return nil
	case *NamedType:
		nt := &NamedType{NamePos: t.NamePos, Name: t.Name}
		c.record(nt, t)
		return nt
	case *ArrayType:
		nt := &ArrayType{ArrayPos: t.ArrayPos, Lo: c.expr(t.Lo), Hi: c.expr(t.Hi), Elem: c.typeExpr(t.Elem)}
		c.record(nt, t)
		return nt
	case *RecordType:
		nt := &RecordType{RecordPos: t.RecordPos}
		for _, f := range t.Fields {
			nf := &RecordField{FieldPos: f.FieldPos, Names: append([]string(nil), f.Names...), Type: c.typeExpr(f.Type)}
			c.record(nf, f)
			nt.Fields = append(nt.Fields, nf)
		}
		c.record(nt, t)
		return nt
	}
	panic("ast.Clone: unknown type expression")
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *CompoundStmt:
		ns := &CompoundStmt{BeginPos: s.BeginPos}
		for _, cs := range s.Stmts {
			ns.Stmts = append(ns.Stmts, c.stmt(cs))
		}
		c.record(ns, s)
		return ns
	case *AssignStmt:
		ns := &AssignStmt{Lhs: c.expr(s.Lhs), Rhs: c.expr(s.Rhs)}
		c.record(ns, s)
		return ns
	case *CallStmt:
		ns := &CallStmt{CallPos: s.CallPos, Name: s.Name, Args: c.exprs(s.Args)}
		c.record(ns, s)
		return ns
	case *IfStmt:
		ns := &IfStmt{IfPos: s.IfPos, Cond: c.expr(s.Cond), Then: c.stmt(s.Then), Else: c.stmt(s.Else)}
		c.record(ns, s)
		return ns
	case *WhileStmt:
		ns := &WhileStmt{WhilePos: s.WhilePos, Cond: c.expr(s.Cond), Body: c.stmt(s.Body)}
		c.record(ns, s)
		return ns
	case *RepeatStmt:
		ns := &RepeatStmt{RepeatPos: s.RepeatPos, Cond: c.expr(s.Cond)}
		for _, cs := range s.Stmts {
			ns.Stmts = append(ns.Stmts, c.stmt(cs))
		}
		c.record(ns, s)
		return ns
	case *ForStmt:
		ns := &ForStmt{ForPos: s.ForPos, Var: c.expr(s.Var).(*Ident), From: c.expr(s.From), Limit: c.expr(s.Limit), Down: s.Down, Body: c.stmt(s.Body)}
		c.record(ns, s)
		return ns
	case *CaseStmt:
		ns := &CaseStmt{CasePos: s.CasePos, Expr: c.expr(s.Expr), Else: c.stmt(s.Else)}
		for _, arm := range s.Arms {
			na := &CaseArm{ArmPos: arm.ArmPos, Consts: c.exprs(arm.Consts), Body: c.stmt(arm.Body)}
			c.record(na, arm)
			ns.Arms = append(ns.Arms, na)
		}
		c.record(ns, s)
		return ns
	case *GotoStmt:
		ns := &GotoStmt{GotoPos: s.GotoPos, Label: s.Label}
		c.record(ns, s)
		return ns
	case *LabeledStmt:
		ns := &LabeledStmt{LabelPos: s.LabelPos, Label: s.Label, Stmt: c.stmt(s.Stmt)}
		c.record(ns, s)
		return ns
	case *EmptyStmt:
		ns := &EmptyStmt{SemiPos: s.SemiPos}
		c.record(ns, s)
		return ns
	}
	panic("ast.Clone: unknown statement")
}

func (c *cloner) exprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c *cloner) expr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Ident:
		ne := &Ident{NamePos: e.NamePos, Name: e.Name}
		c.record(ne, e)
		return ne
	case *IntLit:
		ne := &IntLit{LitPos: e.LitPos, Value: e.Value}
		c.record(ne, e)
		return ne
	case *RealLit:
		ne := &RealLit{LitPos: e.LitPos, Value: e.Value, Text: e.Text}
		c.record(ne, e)
		return ne
	case *StringLit:
		ne := &StringLit{LitPos: e.LitPos, Value: e.Value}
		c.record(ne, e)
		return ne
	case *BinaryExpr:
		ne := &BinaryExpr{Op: e.Op, X: c.expr(e.X), Y: c.expr(e.Y)}
		c.record(ne, e)
		return ne
	case *UnaryExpr:
		ne := &UnaryExpr{OpPos: e.OpPos, Op: e.Op, X: c.expr(e.X)}
		c.record(ne, e)
		return ne
	case *IndexExpr:
		ne := &IndexExpr{X: c.expr(e.X), Indices: c.exprs(e.Indices)}
		c.record(ne, e)
		return ne
	case *FieldExpr:
		ne := &FieldExpr{X: c.expr(e.X), Field: e.Field}
		c.record(ne, e)
		return ne
	case *CallExpr:
		ne := &CallExpr{CallPos: e.CallPos, Name: e.Name, Args: c.exprs(e.Args)}
		c.record(ne, e)
		return ne
	case *SetLit:
		ne := &SetLit{LitPos: e.LitPos, Elems: c.exprs(e.Elems)}
		c.record(ne, e)
		return ne
	}
	panic("ast.Clone: unknown expression")
}
