package absint

import (
	"slices"

	"gadt/internal/pascal/sem"
)

// Env is the abstract store at one program point: the values of the
// tracked variables, plus a reachability flag. An unreachable Env maps
// every variable to ⊥; in a reachable Env a missing variable is ⊤
// (untracked).
//
// The values sit in a slice sorted by sem.VarSym.ID that holds no ⊤
// entry. An Env is immutable: an update returns a new Env on a fresh
// slice, or the Env itself when nothing changes, so the stores of
// program points that a statement leaves alone share one slice.
type Env struct {
	vals      []binding
	reachable bool
}

// binding is one variable's value in an Env, the Val's fields laid
// out flat beside the ID so an entry takes 24 bytes instead of 40.
type binding struct {
	lo, hi     int64
	id         int32 // sem.VarSym.ID
	kind       valKind
	mayT, mayF bool
}

func bind(id int, v Val) binding {
	return binding{lo: v.lo, hi: v.hi, id: int32(id), kind: v.kind, mayT: v.mayT, mayF: v.mayF}
}

func (b binding) val() Val {
	return Val{kind: b.kind, lo: b.lo, hi: b.hi, mayT: b.mayT, mayF: b.mayF}
}

// Reachable reports whether the program point can execute at all.
func (e Env) Reachable() bool { return e.reachable }

// Lookup returns the abstract value of v at this point.
func (e Env) Lookup(v *sem.VarSym) Val {
	if !e.reachable {
		return Bot()
	}
	if val, ok := e.get(v); ok {
		return val
	}
	return Top()
}

func botEnv() Env { return Env{} }

// find returns the position of the variable numbered id in e.vals, or
// where it would be inserted.
func (e Env) find(id int) (int, bool) {
	return slices.BinarySearchFunc(e.vals, int32(id), func(b binding, id int32) int { return int(b.id - id) })
}

// get returns v's stored value; ok is false when v is not stored (⊤).
func (e Env) get(v *sem.VarSym) (Val, bool) {
	if i, ok := e.find(v.ID); ok {
		return e.vals[i].val(), true
	}
	return Val{}, false
}

// with returns e with v set to val (⊤ removes v), or e itself when v
// already holds val.
func (e Env) with(v *sem.VarSym, val Val) Env {
	w := edit{env: e}
	w.set(v, val)
	return w.env
}

// edit updates a store in several steps: the first change copies the
// store's slice, the later ones update that copy in place. The edited
// Env must not be kept anywhere until the edit is done.
type edit struct {
	env   Env
	owned bool // env.vals is the edit's own copy
}

// set sets v to val (⊤ removes v).
func (w *edit) set(v *sem.VarSym, val Val) {
	i, ok := w.env.find(v.ID)
	switch {
	case val.IsTop() && !ok, ok && w.env.vals[i].val() == val:
		return
	case !w.owned:
		w.env.vals = append(make([]binding, 0, len(w.env.vals)+1), w.env.vals...)
		w.owned = true
	}
	switch {
	case val.IsTop():
		w.env.vals = slices.Delete(w.env.vals, i, i+1)
	case ok:
		w.env.vals[i] = bind(v.ID, val)
	default:
		w.env.vals = slices.Insert(w.env.vals, i, bind(v.ID, val))
	}
}

// newEnv returns the reachable store holding bs, which bind distinct
// variables; ⊤ values are dropped. The store takes over bs.
func newEnv(bs []binding) Env {
	bs = slices.DeleteFunc(bs, func(b binding) bool { return b.kind == topVal })
	slices.SortFunc(bs, func(a, b binding) int { return int(a.id - b.id) })
	return Env{vals: bs, reachable: true}
}

// join returns the pointwise least upper bound.
func (e Env) join(o Env) Env {
	if !e.reachable {
		return o
	}
	if !o.reachable {
		return e
	}
	return e.merge(o, Val.Join)
}

// widen extrapolates o relative to the previous iterate e.
func (e Env) widen(o Env) Env {
	if !e.reachable || !o.reachable {
		return e.join(o)
	}
	return e.merge(o, Val.Widen)
}

// merge combines two reachable stores pointwise with f over the
// variables both hold, dropping ⊤ results. f must be idempotent (v f v
// is v), as Join and Widen are. When the result equals e, merge returns
// e itself.
func (e Env) merge(o Env, f func(Val, Val) Val) Env {
	if sameSlice(e.vals, o.vals) {
		return e
	}
	// First pass: does every binding of e survive unchanged?
	keep, j := true, 0
	for _, a := range e.vals {
		for j < len(o.vals) && o.vals[j].id < a.id {
			j++
		}
		if j == len(o.vals) || o.vals[j].id != a.id || bind(int(a.id), f(a.val(), o.vals[j].val())) != a {
			keep = false
			break
		}
	}
	if keep {
		return e
	}
	out := make([]binding, 0, min(len(e.vals), len(o.vals)))
	j = 0
	for _, a := range e.vals {
		for j < len(o.vals) && o.vals[j].id < a.id {
			j++
		}
		if j == len(o.vals) {
			break
		}
		if o.vals[j].id == a.id {
			if v := f(a.val(), o.vals[j].val()); !v.IsTop() {
				out = append(out, bind(int(a.id), v))
			}
		}
	}
	return Env{vals: out, reachable: true}
}

func (e Env) equal(o Env) bool {
	if e.reachable != o.reachable || len(e.vals) != len(o.vals) {
		return false
	}
	return sameSlice(e.vals, o.vals) || slices.Equal(e.vals, o.vals)
}

// sameSlice reports whether a and b are the same slice of one array.
func sameSlice(a, b []binding) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
