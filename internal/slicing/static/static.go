// Package static provides interprocedural static program slicing on top
// of the system dependence graph, reproducing the paper's Section 4: a
// slice at program point p on variable v contains all statements and
// predicates that might affect the value of v at p. Slices are backward
// only: each entry point seeds the SDG's two-phase backward walk.
package static

import (
	"fmt"
	"strings"

	"gadt/internal/analysis/cfg"
	"gadt/internal/analysis/pdg"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/render"
)

// Slicer wraps an SDG with slicing entry points.
type Slicer struct {
	Info *sem.Info
	SDG  *pdg.SDG
}

// New builds the SDG for an analyzed program.
func New(info *sem.Info) *Slicer {
	return &Slicer{Info: info, SDG: pdg.Build(info)}
}

// Slice is the result of a slicing request.
type Slice struct {
	Info  *sem.Info
	Nodes map[*pdg.Node]bool

	// stmts holds the original-AST statements retained by the slice.
	stmts map[ast.Stmt]bool
	// conds holds structured statements whose condition is in the slice.
	conds map[ast.Stmt]bool
	// routines holds routines with at least one retained node.
	routines map[*sem.Routine]bool
}

// OnVarAtEnd slices on the value of variable v at the end of routine r
// (the common criterion "v at the last line", as in Figure 2).
func (s *Slicer) OnVarAtEnd(r *sem.Routine, v *sem.VarSym) *Slice {
	g := s.SDG.CFGs[r]
	seeds := s.SDG.ReachingDefNodes(r, g.Exit, v)
	return s.run(seeds)
}

// OnVarAtStmt slices on the value of v immediately before statement
// stmt in routine r.
func (s *Slicer) OnVarAtStmt(r *sem.Routine, stmt ast.Stmt, v *sem.VarSym) (*Slice, error) {
	g := s.SDG.CFGs[r]
	c := g.NodeOf[stmt]
	if c == nil {
		if cs := g.CondOf[stmt]; len(cs) > 0 {
			c = cs[0]
		}
	}
	if c == nil {
		return nil, fmt.Errorf("static: statement at %s has no CFG node in %s", stmt.Pos(), r.Name)
	}
	return s.run(s.SDG.ReachingDefNodes(r, c, v)), nil
}

// OnOutput slices on an output of routine r: a var/out parameter, the
// function result, or a modified global. This is the criterion the
// debugger uses when the user flags an output value as wrong.
func (s *Slicer) OnOutput(r *sem.Routine, v *sem.VarSym) (*Slice, error) {
	fo := s.SDG.FormalOutOf(r, v)
	if fo == nil {
		return nil, fmt.Errorf("static: %s has no output %s", r.Name, v.Name)
	}
	return s.run([]*pdg.Node{fo}), nil
}

func (s *Slicer) run(seeds []*pdg.Node) *Slice {
	nodes := s.SDG.BackwardSlice(seeds)
	sl := &Slice{
		Info:     s.Info,
		Nodes:    nodes,
		stmts:    make(map[ast.Stmt]bool),
		conds:    make(map[ast.Stmt]bool),
		routines: make(map[*sem.Routine]bool),
	}
	for n := range nodes {
		sl.routines[n.Routine] = true
		if n.Kind != pdg.StmtKind || n.CFG == nil {
			continue
		}
		c := n.CFG
		switch c.Kind {
		case cfg.Stmt:
			sl.stmts[c.Stmt] = true
		case cfg.Cond:
			sl.conds[c.Stmt] = true
		case cfg.ForInit, cfg.ForCond, cfg.ForIncr:
			sl.conds[c.Stmt] = true
		}
	}
	return sl
}

// IncludesStmt reports whether an atomic statement is in the slice.
func (sl *Slice) IncludesStmt(s ast.Stmt) bool { return sl.stmts[s] }

// IncludesRoutine reports whether any part of r is in the slice.
func (sl *Slice) IncludesRoutine(r *sem.Routine) bool { return sl.routines[r] }

// filter builds the shared subset renderer for this slice.
func (sl *Slice) filter() *render.Filter {
	return &render.Filter{
		Info:        sl.Info,
		KeepStmt:    func(s ast.Stmt) bool { return sl.stmts[s] },
		KeepCond:    func(s ast.Stmt) bool { return sl.conds[s] },
		KeepRoutine: func(r *sem.Routine) bool { return sl.routines[r] },
	}
}

// StmtCount returns the number of atomic statements and predicates
// retained (the paper's measure of slice size).
func (sl *Slice) StmtCount() int { return len(sl.stmts) + len(sl.conds) }

// Render prints the sliced program.
func (sl *Slice) Render() string {
	return sl.filter().Render()
}

// Describe returns a one-line summary useful in logs and experiments.
func (sl *Slice) Describe() string {
	var names []string
	for r := range sl.routines {
		names = append(names, r.Name)
	}
	return fmt.Sprintf("%d statements across %d routines (%s)",
		sl.StmtCount(), len(sl.routines), strings.Join(names, ", "))
}

// LookupVar finds a variable named name visible in routine r (its own
// params/locals/result first, then enclosing routines). Helper for CLIs
// and tests.
func LookupVar(info *sem.Info, r *sem.Routine, name string) *sem.VarSym {
	for ; r != nil; r = r.Parent {
		for _, v := range r.AllVars() {
			if v.Name == name {
				return v
			}
		}
	}
	return nil
}
