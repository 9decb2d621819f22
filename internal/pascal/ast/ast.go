// Package ast declares the abstract syntax tree for the GADT Pascal
// subset.
//
// Nodes are identified by pointer; the semantic analyzer and the program
// transformer attach information to nodes through side tables keyed by
// these pointers rather than by mutating the tree. The one exception is
// the UID that sem.Analyze gives expressions and call statements, which
// indexes its resolution and type tables. Clone produces a deep
// copy together with an old→new node map so that the transformer can
// maintain the paper's "construct map" between the original and the
// transformed program (Section 5.1).
package ast

import "gadt/internal/pascal/token"

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// TypeExpr is implemented by all type denotation nodes.
type TypeExpr interface {
	Node
	typeExprNode()
}

// ---------------------------------------------------------------------------
// Program structure

// Program is the root node: `program name; <block>.`
type Program struct {
	ProgPos token.Pos
	Name    string
	Block   *Block
	// UIDs counts the UIDs sem.Analyze has given this program's
	// expression and CallStmt nodes; it only grows. A node belongs to one
	// program: copy it into another with Clone, which leaves the copy
	// unnumbered.
	UIDs int
}

func (p *Program) Pos() token.Pos { return p.ProgPos }

// Block is a declaration part plus a body, shared by programs and
// routines: labels, constants, types, variables, nested routines, body.
type Block struct {
	BlockPos token.Pos
	Labels   []*LabelDecl
	Consts   []*ConstDecl
	Types    []*TypeDecl
	Vars     []*VarDecl
	Routines []*Routine
	Body     *CompoundStmt
}

func (b *Block) Pos() token.Pos { return b.BlockPos }

// LabelDecl declares a single numeric label.
type LabelDecl struct {
	DeclPos token.Pos
	Name    string // Pascal labels are unsigned integers; kept as spelling
}

func (d *LabelDecl) Pos() token.Pos { return d.DeclPos }

// ConstDecl declares one named constant.
type ConstDecl struct {
	DeclPos token.Pos
	Name    string
	Value   Expr
}

func (d *ConstDecl) Pos() token.Pos { return d.DeclPos }

// TypeDecl declares one named type.
type TypeDecl struct {
	DeclPos token.Pos
	Name    string
	Type    TypeExpr
}

func (d *TypeDecl) Pos() token.Pos { return d.DeclPos }

// VarDecl declares a group of variables sharing one type:
// `x, y: integer;`
type VarDecl struct {
	DeclPos token.Pos
	Names   []string
	Type    TypeExpr
}

func (d *VarDecl) Pos() token.Pos { return d.DeclPos }

// RoutineKind distinguishes procedures from functions.
type RoutineKind int

const (
	ProcKind RoutineKind = iota
	FuncKind
)

func (k RoutineKind) String() string {
	if k == FuncKind {
		return "function"
	}
	return "procedure"
}

// Routine is a procedure or function declaration, possibly nested.
type Routine struct {
	DeclPos token.Pos
	Kind    RoutineKind
	Name    string
	Params  []*Param
	Result  TypeExpr // non-nil iff Kind == FuncKind
	Block   *Block

	// Synthetic marks routines generated by the transformer (loop units
	// etc.); they are presented to the user through the construct map
	// rather than as source.
	Synthetic bool
}

func (r *Routine) Pos() token.Pos { return r.DeclPos }

// ParamMode is the passing mode of a formal parameter. Source programs
// use Value ("in") and VarMode ("var"); the transformer additionally
// introduces Out parameters for returned global side-effects, mirroring
// the paper's `in x; out z` notation.
type ParamMode int

const (
	Value ParamMode = iota
	VarMode
	Out
)

func (m ParamMode) String() string {
	switch m {
	case VarMode:
		return "var"
	case Out:
		return "out"
	}
	return "in"
}

// Param is a formal-parameter group: `var a, b: integer`.
type Param struct {
	DeclPos token.Pos
	Mode    ParamMode
	Names   []string
	Type    TypeExpr
}

func (p *Param) Pos() token.Pos { return p.DeclPos }

// ---------------------------------------------------------------------------
// Type expressions

// NamedType is a reference to a declared or predeclared type.
type NamedType struct {
	NamePos token.Pos
	Name    string
}

func (t *NamedType) Pos() token.Pos { return t.NamePos }
func (*NamedType) typeExprNode()    {}

// ArrayType is `array [lo .. hi] of elem` (constant bounds).
type ArrayType struct {
	ArrayPos token.Pos
	Lo, Hi   Expr
	Elem     TypeExpr
}

func (t *ArrayType) Pos() token.Pos { return t.ArrayPos }
func (*ArrayType) typeExprNode()    {}

// RecordField is one field group of a record type.
type RecordField struct {
	FieldPos token.Pos
	Names    []string
	Type     TypeExpr
}

func (f *RecordField) Pos() token.Pos { return f.FieldPos }

// RecordType is `record f1: t1; ... end`.
type RecordType struct {
	RecordPos token.Pos
	Fields    []*RecordField
}

func (t *RecordType) Pos() token.Pos { return t.RecordPos }
func (*RecordType) typeExprNode()    {}

// ---------------------------------------------------------------------------
// Statements

// CompoundStmt is `begin s1; ...; sn end`.
type CompoundStmt struct {
	BeginPos token.Pos
	Stmts    []Stmt
}

func (s *CompoundStmt) Pos() token.Pos { return s.BeginPos }
func (*CompoundStmt) stmtNode()        {}

// AssignStmt is `lhs := rhs`. In a function body, assigning to the
// function name sets the result value, as in Pascal.
type AssignStmt struct {
	Lhs Expr
	Rhs Expr
}

func (s *AssignStmt) Pos() token.Pos { return s.Lhs.Pos() }
func (*AssignStmt) stmtNode()        {}

// CallStmt is a procedure call statement.
type CallStmt struct {
	CallPos token.Pos
	Name    string
	Args    []Expr
	// UID indexes sem.Info's resolution tables; see Ident.
	UID int
}

func (s *CallStmt) Pos() token.Pos { return s.CallPos }
func (*CallStmt) stmtNode()        {}

// IfStmt is `if cond then s1 [else s2]`.
type IfStmt struct {
	IfPos token.Pos
	Cond  Expr
	Then  Stmt
	Else  Stmt // nil when absent
}

func (s *IfStmt) Pos() token.Pos { return s.IfPos }
func (*IfStmt) stmtNode()        {}

// WhileStmt is `while cond do body`.
type WhileStmt struct {
	WhilePos token.Pos
	Cond     Expr
	Body     Stmt
}

func (s *WhileStmt) Pos() token.Pos { return s.WhilePos }
func (*WhileStmt) stmtNode()        {}

// RepeatStmt is `repeat s1; ...; sn until cond`.
type RepeatStmt struct {
	RepeatPos token.Pos
	Stmts     []Stmt
	Cond      Expr
}

func (s *RepeatStmt) Pos() token.Pos { return s.RepeatPos }
func (*RepeatStmt) stmtNode()        {}

// ForStmt is `for v := from to|downto limit do body`.
type ForStmt struct {
	ForPos token.Pos
	Var    *Ident
	From   Expr
	Limit  Expr
	Down   bool
	Body   Stmt
}

func (s *ForStmt) Pos() token.Pos { return s.ForPos }
func (*ForStmt) stmtNode()        {}

// CaseArm is one arm of a case statement: a list of constant expressions
// and the statement they select.
type CaseArm struct {
	ArmPos token.Pos
	Consts []Expr
	Body   Stmt
}

func (a *CaseArm) Pos() token.Pos { return a.ArmPos }

// CaseStmt is `case e of c1: s1; ... [else s] end`.
type CaseStmt struct {
	CasePos token.Pos
	Expr    Expr
	Arms    []*CaseArm
	Else    Stmt // nil when absent
}

func (s *CaseStmt) Pos() token.Pos { return s.CasePos }
func (*CaseStmt) stmtNode()        {}

// GotoStmt is `goto label`.
type GotoStmt struct {
	GotoPos token.Pos
	Label   string
}

func (s *GotoStmt) Pos() token.Pos { return s.GotoPos }
func (*GotoStmt) stmtNode()        {}

// LabeledStmt is `label: stmt`.
type LabeledStmt struct {
	LabelPos token.Pos
	Label    string
	Stmt     Stmt
}

func (s *LabeledStmt) Pos() token.Pos { return s.LabelPos }
func (*LabeledStmt) stmtNode()        {}

// EmptyStmt is the empty statement.
type EmptyStmt struct {
	SemiPos token.Pos
}

func (s *EmptyStmt) Pos() token.Pos { return s.SemiPos }
func (*EmptyStmt) stmtNode()        {}

// ---------------------------------------------------------------------------
// Expressions

// Ident is a use of a name.
type Ident struct {
	NamePos token.Pos
	Name    string
	// UID indexes sem.Info's resolution and type tables. sem.Analyze
	// numbers the node from its program's counter when it has none (0)
	// and never renumbers it.
	UID int
}

func (e *Ident) Pos() token.Pos { return e.NamePos }
func (*Ident) exprNode()        {}

// IntLit is an integer literal.
type IntLit struct {
	LitPos token.Pos
	Value  int64
	UID    int // indexes sem.Info's tables; see Ident
}

func (e *IntLit) Pos() token.Pos { return e.LitPos }
func (*IntLit) exprNode()        {}

// RealLit is a real literal.
type RealLit struct {
	LitPos token.Pos
	Value  float64
	// Text preserves the source spelling for printing.
	Text string
	UID  int // indexes sem.Info's tables; see Ident
}

func (e *RealLit) Pos() token.Pos { return e.LitPos }
func (*RealLit) exprNode()        {}

// StringLit is a string (or char) literal; Value is the decoded text.
type StringLit struct {
	LitPos token.Pos
	Value  string
	UID    int // indexes sem.Info's tables; see Ident
}

func (e *StringLit) Pos() token.Pos { return e.LitPos }
func (*StringLit) exprNode()        {}

// BinaryExpr is `x op y`.
type BinaryExpr struct {
	Op   token.Kind
	X, Y Expr
	UID  int // indexes sem.Info's tables; see Ident
}

func (e *BinaryExpr) Pos() token.Pos { return e.X.Pos() }
func (*BinaryExpr) exprNode()        {}

// UnaryExpr is `op x` where op is +, - or not.
type UnaryExpr struct {
	OpPos token.Pos
	Op    token.Kind
	X     Expr
	UID   int // indexes sem.Info's tables; see Ident
}

func (e *UnaryExpr) Pos() token.Pos { return e.OpPos }
func (*UnaryExpr) exprNode()        {}

// IndexExpr is `x[i1, ..., in]`.
type IndexExpr struct {
	X       Expr
	Indices []Expr
	UID     int // indexes sem.Info's tables; see Ident
}

func (e *IndexExpr) Pos() token.Pos { return e.X.Pos() }
func (*IndexExpr) exprNode()        {}

// FieldExpr is `x.f`.
type FieldExpr struct {
	X     Expr
	Field string
	UID   int // indexes sem.Info's tables; see Ident
}

func (e *FieldExpr) Pos() token.Pos { return e.X.Pos() }
func (*FieldExpr) exprNode()        {}

// CallExpr is a function call in expression position.
type CallExpr struct {
	CallPos token.Pos
	Name    string
	Args    []Expr
	// UID indexes sem.Info's tables; see Ident.
	UID int
}

func (e *CallExpr) Pos() token.Pos { return e.CallPos }
func (*CallExpr) exprNode()        {}

// SetLit is an array/set display `[e1, ..., en]`, used by GADT drivers to
// denote array values in argument position (an extension over ISO Pascal
// mirroring the paper's `sqrtest([1,2], 2, isok)` call).
type SetLit struct {
	LitPos token.Pos
	Elems  []Expr
	UID    int // indexes sem.Info's tables; see Ident
}

func (e *SetLit) Pos() token.Pos { return e.LitPos }
func (*SetLit) exprNode()        {}
