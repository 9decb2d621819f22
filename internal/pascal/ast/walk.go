package ast

// A Visitor's Visit method is invoked for each node encountered by Walk.
// If the result visitor w is non-nil, Walk visits each child of the node
// with w, followed by a call of w.Visit(nil).
type Visitor interface {
	Visit(n Node) Visitor
}

// Walk traverses an AST in depth-first order, visiting structural nodes
// (declarations, statements, expressions and type expressions).
func Walk(v Visitor, n Node) {
	if n == nil {
		return
	}
	if v = v.Visit(n); v == nil {
		return
	}
	switch n := n.(type) {
	case *Program:
		Walk(v, n.Block)
	case *Block:
		for _, d := range n.Consts {
			Walk(v, d)
		}
		for _, d := range n.Types {
			Walk(v, d)
		}
		for _, d := range n.Vars {
			Walk(v, d)
		}
		for _, r := range n.Routines {
			Walk(v, r)
		}
		Walk(v, n.Body)
	case *ConstDecl:
		Walk(v, n.Value)
	case *TypeDecl:
		Walk(v, n.Type)
	case *VarDecl:
		Walk(v, n.Type)
	case *Routine:
		for _, p := range n.Params {
			Walk(v, p)
		}
		if n.Result != nil {
			Walk(v, n.Result)
		}
		Walk(v, n.Block)
	case *Param:
		Walk(v, n.Type)
	case *ArrayType:
		Walk(v, n.Lo)
		Walk(v, n.Hi)
		Walk(v, n.Elem)
	case *RecordType:
		for _, f := range n.Fields {
			Walk(v, f.Type)
		}
	case *CompoundStmt:
		for _, s := range n.Stmts {
			Walk(v, s)
		}
	case *AssignStmt:
		Walk(v, n.Lhs)
		Walk(v, n.Rhs)
	case *CallStmt:
		for _, a := range n.Args {
			Walk(v, a)
		}
	case *IfStmt:
		Walk(v, n.Cond)
		Walk(v, n.Then)
		if n.Else != nil {
			Walk(v, n.Else)
		}
	case *WhileStmt:
		Walk(v, n.Cond)
		Walk(v, n.Body)
	case *RepeatStmt:
		for _, s := range n.Stmts {
			Walk(v, s)
		}
		Walk(v, n.Cond)
	case *ForStmt:
		Walk(v, n.Var)
		Walk(v, n.From)
		Walk(v, n.Limit)
		Walk(v, n.Body)
	case *CaseStmt:
		Walk(v, n.Expr)
		for _, arm := range n.Arms {
			for _, c := range arm.Consts {
				Walk(v, c)
			}
			Walk(v, arm.Body)
		}
		if n.Else != nil {
			Walk(v, n.Else)
		}
	case *LabeledStmt:
		Walk(v, n.Stmt)
	case *BinaryExpr:
		Walk(v, n.X)
		Walk(v, n.Y)
	case *UnaryExpr:
		Walk(v, n.X)
	case *IndexExpr:
		Walk(v, n.X)
		for _, i := range n.Indices {
			Walk(v, i)
		}
	case *FieldExpr:
		Walk(v, n.X)
	case *CallExpr:
		for _, a := range n.Args {
			Walk(v, a)
		}
	case *SetLit:
		for _, e := range n.Elems {
			Walk(v, e)
		}
	case *NamedType, *Ident, *IntLit, *RealLit, *StringLit,
		*GotoStmt, *EmptyStmt, *LabelDecl, *RecordField, *CaseArm:
		// leaves
	}
	v.Visit(nil)
}

type inspector func(Node) bool

func (f inspector) Visit(n Node) Visitor {
	if f(n) {
		return f
	}
	return nil
}

// Inspect traverses the AST, calling f for each node. If f returns false
// for a node, the node's children are skipped.
func Inspect(n Node, f func(Node) bool) {
	Walk(inspector(f), n)
}

// Stmts calls f with the address of each immediate child statement of
// s, in source order (then before else, arms before else). Readers use
// *slot; rewriters assign through it. The transformation passes, the
// side-effect and lint walks and the pdiff shrinker all walk statements
// with it.
func Stmts(s Stmt, f func(slot *Stmt)) {
	switch s := s.(type) {
	case *CompoundStmt:
		for i := range s.Stmts {
			f(&s.Stmts[i])
		}
	case *IfStmt:
		f(&s.Then)
		if s.Else != nil {
			f(&s.Else)
		}
	case *WhileStmt:
		f(&s.Body)
	case *RepeatStmt:
		for i := range s.Stmts {
			f(&s.Stmts[i])
		}
	case *ForStmt:
		f(&s.Body)
	case *CaseStmt:
		for _, arm := range s.Arms {
			f(&arm.Body)
		}
		if s.Else != nil {
			f(&s.Else)
		}
	case *LabeledStmt:
		f(&s.Stmt)
	}
}
