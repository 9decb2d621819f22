// Package sem implements name resolution and type checking for the GADT
// Pascal subset.
//
// Analyze produces an Info value: symbol tables, use/def resolution of
// identifiers, call targets, expression types and goto targets. All
// downstream phases (interpreter, flow analysis, side-effect analysis,
// slicing, transformation) consume Info rather than re-deriving scope
// information.
package sem

import (
	"fmt"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/token"
	"gadt/internal/pascal/types"
)

// Symbol is the interface implemented by all named program entities.
type Symbol interface {
	SymName() string
	SymPos() token.Pos
}

// VarKind classifies variable symbols.
type VarKind int

const (
	LocalVar  VarKind = iota // declared in a routine's (or the program's) var part
	ParamVar                 // formal parameter
	ResultVar                // implicit function-result variable
)

func (k VarKind) String() string {
	switch k {
	case ParamVar:
		return "param"
	case ResultVar:
		return "result"
	}
	return "var"
}

// VarSym is a variable, formal parameter, or function-result symbol.
type VarSym struct {
	Name  string
	Type  types.Type
	Kind  VarKind
	Mode  ast.ParamMode // meaningful for ParamVar
	Owner *Routine      // routine whose scope declares the symbol
	Decl  ast.Node      // *ast.VarDecl, *ast.Param or *ast.Routine (result)
	Pos   token.Pos
	// Index is the position among the owner's params (ParamVar) or
	// locals (LocalVar), assigned in declaration order.
	Index int
	// Slot is the dense frame-slot index assigned by LayoutRoutine:
	// the interpreter stores this variable at Owner's frame slot Slot
	// (params first, then the result variable, then locals — AllVars
	// order).
	Slot int
	// ID is the variable's dense index in the analysis that declared it:
	// 0 to Info.NumVars-1, in the order Analyze declares variables.
	// Analyses index per-variable state by it; the IDs of two analyses
	// overlap.
	ID int
}

func (v *VarSym) SymName() string   { return v.Name }
func (v *VarSym) SymPos() token.Pos { return v.Pos }
func (v *VarSym) String() string    { return fmt.Sprintf("%s %s: %s", v.Kind, v.Name, v.Type) }
func (v *VarSym) IsByRef() bool     { return v.Kind == ParamVar && v.Mode != ast.Value }

// ConstSym is a named constant.
type ConstSym struct {
	Name  string
	Type  types.Type
	Value any // int64, float64, bool or string
	Pos   token.Pos
}

func (c *ConstSym) SymName() string   { return c.Name }
func (c *ConstSym) SymPos() token.Pos { return c.Pos }

// TypeSym is a named type.
type TypeSym struct {
	Name string
	Type types.Type
	Pos  token.Pos
}

func (t *TypeSym) SymName() string   { return t.Name }
func (t *TypeSym) SymPos() token.Pos { return t.Pos }

// Routine is the symbol for a procedure, function, or the program block
// itself (the pseudo-routine Main, which behaves as an outermost
// parameterless procedure).
type Routine struct {
	Name   string
	Kind   ast.RoutineKind
	Decl   *ast.Routine // nil for the program pseudo-routine
	Block  *ast.Block
	Parent *Routine
	Level  int // nesting depth; program block is 0
	Nested []*Routine

	Params []*VarSym // flattened, in declaration order
	Locals []*VarSym
	Result *VarSym // non-nil iff Kind == FuncKind

	Labels map[string]*LabelInfo // labels declared by this routine

	// Synthetic marks transformer-generated routines (loop units).
	Synthetic bool

	// Frame is the precomputed activation-record layout (slot count and
	// the variable owning each slot), filled in by LayoutRoutine at the
	// end of Analyze. The interpreter sizes its slot-addressed
	// frames from it instead of probing per-variable maps.
	Frame FrameLayout
}

// FrameLayout is the activation-record layout of one routine: Vars[i] is
// the variable stored in frame slot i (and Vars[i].Slot == i).
type FrameLayout struct {
	Vars []*VarSym
}

func (r *Routine) SymName() string { return r.Name }
func (r *Routine) SymPos() token.Pos {
	if r.Decl != nil {
		return r.Decl.Pos()
	}
	return r.Block.Pos()
}

// IsProgram reports whether r is the program pseudo-routine.
func (r *Routine) IsProgram() bool { return r.Decl == nil }

// AllVars returns the routine's parameters, result variable (if any) and
// locals, in that order.
func (r *Routine) AllVars() []*VarSym {
	out := make([]*VarSym, 0, len(r.Params)+len(r.Locals)+1)
	out = append(out, r.Params...)
	if r.Result != nil {
		out = append(out, r.Result)
	}
	out = append(out, r.Locals...)
	return out
}

// LabelInfo describes one declared label.
type LabelInfo struct {
	Name    string
	Routine *Routine
	// Placement is the labeled statement carrying the label, when found.
	Placement *ast.LabeledStmt
}

// BuiltinOp enumerates the predeclared routines, so the interpreter
// dispatches on a small integer instead of the routine name.
type BuiltinOp uint8

const (
	BuiltinNone BuiltinOp = iota
	BuiltinRead
	BuiltinReadln
	BuiltinWrite
	BuiltinWriteln
	BuiltinAbs
	BuiltinSqr
	BuiltinOdd
	BuiltinTrunc
	BuiltinRound
)

// Builtin identifies a predeclared routine.
type Builtin struct {
	Name string
	Code BuiltinOp
	Proc bool // procedure (write/read family) vs function
}

func (b *Builtin) SymName() string   { return b.Name }
func (b *Builtin) SymPos() token.Pos { return token.Pos{} }

// The predeclared routines.
var builtins = map[string]*Builtin{
	"read":    {Name: "read", Code: BuiltinRead, Proc: true},
	"readln":  {Name: "readln", Code: BuiltinReadln, Proc: true},
	"write":   {Name: "write", Code: BuiltinWrite, Proc: true},
	"writeln": {Name: "writeln", Code: BuiltinWriteln, Proc: true},
	"abs":     {Name: "abs", Code: BuiltinAbs},
	"sqr":     {Name: "sqr", Code: BuiltinSqr},
	"odd":     {Name: "odd", Code: BuiltinOdd},
	"trunc":   {Name: "trunc", Code: BuiltinTrunc},
	"round":   {Name: "round", Code: BuiltinRound},
}

// scope is one lexical scope level.
type scope struct {
	parent *scope
	names  map[string]Symbol
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: make(map[string]Symbol)}
}

func (s *scope) declare(name string, sym Symbol) Symbol {
	if prev, ok := s.names[name]; ok {
		return prev
	}
	s.names[name] = sym
	return nil
}

func (s *scope) lookup(name string) Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.names[name]; ok {
			return sym
		}
	}
	return nil
}
