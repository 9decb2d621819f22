// Package render turns a statement subset back into a printable program:
// given predicates for the atomic statements (and optionally the
// conditions) to retain, it clones the original AST, drops everything
// else, and removes routines that end up empty. The static slicer and
// the Weiser baseline use it (Weiser's "slice is an independent
// program").
package render

import (
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
)

// Filter selects the parts of a program to keep.
type Filter struct {
	Info *sem.Info

	// KeepStmt decides atomic statements (assignments, calls, gotos).
	KeepStmt func(ast.Stmt) bool

	// KeepCond decides whether a structured statement's condition is
	// itself relevant (nil: only keep structure around kept children).
	KeepCond func(ast.Stmt) bool

	// KeepRoutine decides which routines survive; nil keeps routines
	// containing at least one kept statement or condition.
	KeepRoutine func(*sem.Routine) bool
}

func (f *Filter) cond(s ast.Stmt) bool {
	return f.KeepCond != nil && f.KeepCond(s)
}

// keep reports whether statement s (possibly structured) is retained.
func (f *Filter) keep(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.CompoundStmt:
		for _, c := range s.Stmts {
			if f.keep(c) {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		return f.cond(s) || f.keep(s.Then) || f.keep(s.Else)
	case *ast.WhileStmt:
		return f.cond(s) || f.keep(s.Body)
	case *ast.RepeatStmt:
		if f.cond(s) || f.KeepStmt(s) {
			return true
		}
		for _, c := range s.Stmts {
			if f.keep(c) {
				return true
			}
		}
		return false
	case *ast.ForStmt:
		return f.cond(s) || f.KeepStmt(s) || f.keep(s.Body)
	case *ast.CaseStmt:
		if f.cond(s) {
			return true
		}
		for _, arm := range s.Arms {
			if f.keep(arm.Body) {
				return true
			}
		}
		return f.keep(s.Else)
	case *ast.LabeledStmt:
		return f.KeepStmt(s) || f.keep(s.Stmt)
	case *ast.EmptyStmt:
		return false
	default:
		return f.KeepStmt(s)
	}
}

// routineHasKept reports whether any statement of r survives.
func (f *Filter) routineHasKept(r *sem.Routine) bool {
	if f.KeepRoutine != nil {
		return f.KeepRoutine(r)
	}
	return f.keep(r.Block.Body)
}

// Program builds the filtered program as a fresh AST; the original is
// not modified.
func (f *Filter) Program() *ast.Program {
	clone, cm := ast.Clone(f.Info.Program)
	orig := func(n ast.Node) ast.Node { return cm[n] }
	var filterBlock func(b *ast.Block, r *sem.Routine)
	filterBlock = func(b *ast.Block, r *sem.Routine) {
		var kept []*ast.Routine
		for _, rd := range b.Routines {
			ro, _ := orig(rd).(*ast.Routine)
			rsym := f.Info.RoutineOf[ro]
			if rsym != nil && f.routineHasKept(rsym) {
				filterBlock(rd.Block, rsym)
				kept = append(kept, rd)
			}
		}
		b.Routines = kept
		b.Body = f.filterStmt(b.Body, orig).(*ast.CompoundStmt)
	}
	filterBlock(clone.Block, f.Info.Main)
	return clone
}

// Render prints the filtered program.
func (f *Filter) Render() string {
	return printer.Print(f.Program())
}

// filterStmt rebuilds statement s (a clone) keeping only retained parts.
func (f *Filter) filterStmt(s ast.Stmt, orig func(ast.Node) ast.Node) ast.Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *ast.CompoundStmt:
		var kept []ast.Stmt
		for _, c := range s.Stmts {
			oc, _ := orig(c).(ast.Stmt)
			if oc == nil || !f.keep(oc) {
				continue
			}
			kept = append(kept, f.filterStmt(c, orig))
		}
		s.Stmts = kept
		return s
	case *ast.IfStmt:
		s.Then = f.filterBranch(s.Then, orig)
		if s.Else != nil {
			oe, _ := orig(s.Else).(ast.Stmt)
			if oe != nil && f.keep(oe) {
				s.Else = f.filterStmt(s.Else, orig)
			} else {
				s.Else = nil
			}
		}
		return s
	case *ast.WhileStmt:
		s.Body = f.filterBranch(s.Body, orig)
		return s
	case *ast.RepeatStmt:
		var kept []ast.Stmt
		for _, c := range s.Stmts {
			oc, _ := orig(c).(ast.Stmt)
			if oc != nil && f.keep(oc) {
				kept = append(kept, f.filterStmt(c, orig))
			}
		}
		s.Stmts = kept
		return s
	case *ast.ForStmt:
		s.Body = f.filterBranch(s.Body, orig)
		return s
	case *ast.CaseStmt:
		for _, arm := range s.Arms {
			arm.Body = f.filterBranch(arm.Body, orig)
		}
		if s.Else != nil {
			s.Else = f.filterBranch(s.Else, orig)
		}
		return s
	case *ast.LabeledStmt:
		s.Stmt = f.filterBranch(s.Stmt, orig)
		return s
	default:
		return s
	}
}

func (f *Filter) filterBranch(s ast.Stmt, orig func(ast.Node) ast.Node) ast.Stmt {
	os, _ := orig(s).(ast.Stmt)
	if os == nil || !f.keep(os) {
		return &ast.EmptyStmt{SemiPos: s.Pos()}
	}
	return f.filterStmt(s, orig)
}
