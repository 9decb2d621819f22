package interp

import (
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
)

// CallUnit invokes a single routine with the given argument values,
// outside any program run: lexical ancestor frames are fabricated with
// zero-initialized slots so that name resolution works. This supports
// the debugger's intended-semantics oracle, which re-executes a unit of
// a reference implementation on a recorded call's inputs. It is only
// meaningful for routines that do not read their enclosing scopes (in
// particular, any routine of a transformed program).
//
// An Undef argument leaves the parameter at its type's zero value.
//
// The returned CallInfo carries the input snapshot, the var/out outputs
// and the function result, exactly as a traced call would.
func (it *Interp) CallUnit(target *sem.Routine, args []Value) (*CallInfo, error) {
	if len(args) != len(target.Params) {
		return nil, &RuntimeError{Msg: "CallUnit: argument count mismatch"}
	}
	// Fabricate the static chain root → target.Parent.
	var chain []*sem.Routine
	for r := target.Parent; r != nil; r = r.Parent {
		chain = append([]*sem.Routine{r}, chain...)
	}
	var f *frame
	frames := make([]*frame, 0, len(chain)+1)
	for _, r := range chain {
		nf := it.newFrame(r, f, f)
		for _, v := range r.Frame.Vars {
			nf.zeroSlot(v)
		}
		frames = append(frames, nf)
		f = nf
	}

	nf := it.newFrame(target, f, f)
	frames = append(frames, nf)
	ci := &CallInfo{
		ID:        it.nextID,
		Routine:   target,
		Depth:     1,
		ParamLocs: make([]Loc, len(args)),
	}
	it.nextID++
	it.calls++
	for i, p := range target.Params {
		c := nf.slots[p.Slot]
		if args[i].IsUndef() {
			c.val = ZeroValue(p.Type)
		} else {
			c.val = CopyValue(args[i])
		}
		ci.ParamLocs[i] = c.loc
		ci.Ins = append(ci.Ins, Binding{Name: p.Name, Mode: p.Mode, Value: CopyValue(c.val), Sym: p})
	}
	for _, v := range target.Locals {
		nf.zeroSlot(v)
	}
	var resultCell *cell
	if target.Result != nil {
		resultCell = nf.slots[target.Result.Slot]
		resultCell.val = ZeroValue(target.Result.Type)
		ci.ResultLoc = resultCell.loc
	}

	prev, prevDepth := it.frame, it.depth
	it.frame, it.depth = nf, 1
	if it.depth > it.maxDepth {
		it.maxDepth = it.depth
	}
	defer it.recordMetrics()
	it.sink.EnterCall(ci)
	ctrl, err := it.execStmt(target.Block.Body)
	for _, p := range target.Params {
		if p.Mode == ast.Value {
			continue
		}
		ci.Outs = append(ci.Outs, Binding{Name: p.Name, Mode: p.Mode, Value: CopyValue(nf.slots[p.Slot].val), Sym: p})
	}
	if resultCell != nil {
		ci.Result = CopyValue(resultCell.val)
	}
	it.sink.ExitCall(ci)
	it.frame, it.depth = prev, prevDepth
	for i := len(frames) - 1; i >= 0; i-- {
		it.freeFrame(frames[i])
	}
	if err != nil {
		return ci, err
	}
	if ctrl != nil {
		return ci, &RuntimeError{Msg: "CallUnit: goto escaped the unit"}
	}
	return ci, nil
}
