package interp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gadt/internal/obs"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
	"gadt/internal/pascal/types"
)

// Loc is a unique identifier for a memory location (one per variable
// cell; arrays and records are single locations, the granularity at
// which the paper's slicing treats composite variables).
type Loc int64

// Binding is one named value in a call snapshot.
type Binding struct {
	Name  string
	Mode  ast.ParamMode
	Value Value // deep copy taken at snapshot time
	Sym   *sem.VarSym
}

func (b Binding) String() string { return fmt.Sprintf("%s: %s", b.Name, FormatValue(b.Value)) }

// CallInfo describes one routine invocation for the event sink. The same
// CallInfo pointer is passed to EnterCall and ExitCall; Outs and Result
// are populated at exit. Each call gets fresh Ins and Outs slices, filled
// only before EnterCall and ExitCall respectively, so a sink may keep
// either slice and the bindings in it.
type CallInfo struct {
	ID       int64
	Routine  *sem.Routine
	CallSite ast.Node // *ast.CallStmt, *ast.CallExpr, *ast.Ident, or nil for the program block
	Depth    int

	Ins  []Binding // value snapshot of every parameter at entry
	Outs []Binding // snapshot of var/out parameters at exit

	Result Value // function result, Undef for procedures

	// ParamLocs holds the location bound to each formal, in parameter
	// order: a var/out formal's is its argument's.
	ParamLocs []Loc
	ResultLoc Loc
}

// EventSink receives execution events. Implementations must not retain
// the Value snapshots' composite internals across mutation points; all
// snapshot values are deep copies, so retaining the Binding is safe.
type EventSink interface {
	EnterCall(c *CallInfo)
	ExitCall(c *CallInfo)
	Read(loc Loc, v *sem.VarSym)
	Write(loc Loc, v *sem.VarSym)
	Stmt(s ast.Stmt, r *sem.Routine)
}

// MultiSink fans events out to several sinks in order.
type MultiSink []EventSink

func (m MultiSink) EnterCall(c *CallInfo) {
	for _, s := range m {
		s.EnterCall(c)
	}
}
func (m MultiSink) ExitCall(c *CallInfo) {
	for _, s := range m {
		s.ExitCall(c)
	}
}
func (m MultiSink) Read(l Loc, v *sem.VarSym) {
	for _, s := range m {
		s.Read(l, v)
	}
}
func (m MultiSink) Write(l Loc, v *sem.VarSym) {
	for _, s := range m {
		s.Write(l, v)
	}
}
func (m MultiSink) Stmt(st ast.Stmt, r *sem.Routine) {
	for _, s := range m {
		s.Stmt(st, r)
	}
}

var _ EventSink = MultiSink{}

// NopSink is an EventSink that ignores all events.
type NopSink struct{}

func (NopSink) EnterCall(*CallInfo)         {}
func (NopSink) ExitCall(*CallInfo)          {}
func (NopSink) Read(Loc, *sem.VarSym)       {}
func (NopSink) Write(Loc, *sem.VarSym)      {}
func (NopSink) Stmt(ast.Stmt, *sem.Routine) {}

var _ EventSink = NopSink{}

// ErrFuelExhausted marks step-budget (fuel) exhaustion: the program
// executed Config.MaxSteps statements without terminating. Callers that
// run untrusted or generated programs (the mutation campaign, fuzzing)
// match it with errors.Is to separate "probably an infinite loop" from
// genuine runtime faults.
var ErrFuelExhausted = errors.New("step budget exhausted")

// ErrDepthExhausted marks call-depth budget exhaustion. Transformed
// programs express loops as recursive loop units, so a planted infinite
// loop usually trips this limit rather than the statement budget;
// campaign classification treats both as non-termination.
var ErrDepthExhausted = errors.New("call depth budget exhausted")

// RuntimeError is an error raised during execution, with the source
// position of the failing construct and the active call stack.
type RuntimeError struct {
	Pos   token.Pos
	Msg   string
	Stack []string
	// Cause, when non-nil, is a sentinel classifying the failure
	// (currently only ErrFuelExhausted); exposed via Unwrap.
	Cause error
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// Unwrap exposes the classifying sentinel for errors.Is.
func (e *RuntimeError) Unwrap() error { return e.Cause }

// Config controls resource limits and I/O of a run.
type Config struct {
	Input  io.Reader // program input for read/readln; nil means empty
	Output io.Writer // program output for write/writeln; nil discards

	MaxSteps int // statement budget; <= 0 means the 5e6 default
	MaxDepth int // call depth budget; <= 0 means the 10000 default

	Sink EventSink // nil means NopSink

	// Metrics, when non-nil, receives the run's execution counters
	// (interp.statements, interp.calls, interp.depth.max) when Run or
	// CallUnit returns.
	Metrics *obs.Registry
}

const (
	defaultMaxSteps = 5_000_000
	defaultMaxDepth = 10_000
)

// Interp executes an analyzed program.
type Interp struct {
	info *sem.Info
	cfg  Config

	in   *bufio.Reader
	out  io.Writer
	sink EventSink
	// trace is false when the sink is a NopSink: the hot path then skips
	// event dispatch and call-snapshot construction entirely.
	trace bool

	steps    int
	depth    int
	maxDepth int
	calls    int64
	nextID   int64
	nextLoc  Loc

	// flushedSteps/flushedCalls mark what recordMetrics already exported.
	flushedSteps int
	flushedCalls int64

	// Instrument handles resolved once in New: recordMetrics touches no
	// registry lock and allocates nothing, so instrumented runs keep the
	// interpreter's zero-alloc guarantee. All nil when cfg.Metrics is nil.
	mStatements *obs.Counter
	mCalls      *obs.Counter
	mDepthMax   *obs.Gauge

	frame *frame // current frame

	// free is the head of the frame free list. Completed activations
	// return their frame (slot vector and cell storage included) here,
	// so call-heavy programs reuse a handful of allocations instead of
	// churning the garbage collector.
	free *frame
}

type cell struct {
	loc Loc
	val Value
}

// frame is one routine activation. Variable storage is a dense slot
// vector laid out by the layout pass (sem.Routine.Frame): slots[i]
// addresses the cell of the variable with Slot == i. Owned cells live
// contiguously in storage; by-reference parameter slots are repointed at
// the caller's cells instead.
type frame struct {
	routine *sem.Routine
	static  *frame // frame of the lexically enclosing routine
	caller  *frame // dynamic link, for error stack capture
	level   int    // == routine.Level (static-chain walk counter)
	slots   []*cell
	storage []cell
	next    *frame // free-list link
}

// control models non-local transfer: nil for normal completion, or a
// pending goto that unwinds until its label is found.
type control struct {
	label  string
	target *sem.Routine
}

// New prepares an interpreter for an analyzed program.
func New(info *sem.Info, cfg Config) *Interp {
	it := &Interp{info: info, cfg: cfg, sink: cfg.Sink}
	if it.sink == nil {
		it.sink = NopSink{}
	}
	if _, nop := it.sink.(NopSink); !nop {
		it.trace = true
	}
	if cfg.Input != nil {
		it.in = bufio.NewReader(cfg.Input)
	}
	it.out = cfg.Output
	if it.out == nil {
		it.out = io.Discard
	}
	if it.cfg.MaxSteps <= 0 {
		it.cfg.MaxSteps = defaultMaxSteps
	}
	if it.cfg.MaxDepth <= 0 {
		it.cfg.MaxDepth = defaultMaxDepth
	}
	if m := cfg.Metrics; m != nil {
		it.mStatements = m.Counter("interp.statements")
		it.mCalls = m.Counter("interp.calls")
		it.mDepthMax = m.Gauge("interp.depth.max")
	}
	return it
}

// recordMetrics flushes the counters accumulated since the previous
// flush into the configured registry (a no-op when none is configured).
// Deltas keep repeated CallUnit invocations on one interpreter from
// double-counting; the depth gauge is a high-water mark.
func (it *Interp) recordMetrics() {
	if it.mStatements == nil {
		return
	}
	it.mStatements.Add(int64(it.steps - it.flushedSteps))
	it.mCalls.Add(it.calls - it.flushedCalls)
	it.mDepthMax.SetMax(int64(it.maxDepth))
	it.flushedSteps, it.flushedCalls = it.steps, it.calls
}

// ---------------------------------------------------------------------------
// Frames

// newFrame acquires a frame for r (recycled from the free list when
// possible) with every slot pointing at the frame's own storage under a
// fresh location. Cell values start Undef; callers zero-initialize the
// slots they own (parameters are bound explicitly, so their zero init
// would be wasted work).
func (it *Interp) newFrame(r *sem.Routine, static, caller *frame) *frame {
	n := len(r.Frame.Vars)
	f := it.free
	if f != nil {
		it.free = f.next
		f.next = nil
	} else {
		f = &frame{}
	}
	f.routine, f.static, f.caller, f.level = r, static, caller, r.Level
	if cap(f.storage) < n {
		f.storage = make([]cell, n)
		f.slots = make([]*cell, n)
	} else {
		f.storage = f.storage[:n]
		f.slots = f.slots[:n]
	}
	for i := 0; i < n; i++ {
		it.nextLoc++
		f.storage[i] = cell{loc: it.nextLoc}
		f.slots[i] = &f.storage[i]
	}
	return f
}

// freeFrame returns a completed activation to the free list. The caller
// must guarantee no live pointers into the frame's storage remain (all
// sink snapshots are deep copies; results are copied out by value).
func (it *Interp) freeFrame(f *frame) {
	f.routine, f.static, f.caller = nil, nil, nil
	f.next = it.free
	it.free = f
}

// zeroSlot installs the zero value of v's type in the frame's own cell.
func (f *frame) zeroSlot(v *sem.VarSym) {
	f.storage[v.Slot].val = ZeroValue(v.Type)
}

// Run executes the program from the start of the program block. The
// program block itself is reported as call ID 0 to the sink.
func (it *Interp) Run() error {
	defer it.recordMetrics()
	main := it.info.Main
	it.frame = it.newFrame(main, nil, nil)
	for _, v := range main.Frame.Vars {
		it.frame.zeroSlot(v)
	}
	it.calls++
	var ci *CallInfo
	if it.trace {
		ci = &CallInfo{ID: it.nextID, Routine: main, Depth: 0}
		it.nextID++
		it.sink.EnterCall(ci)
	}
	ctrl, err := it.execStmt(it.frame.routine.Block.Body)
	if it.trace {
		it.sink.ExitCall(ci)
	}
	if err != nil {
		return err
	}
	if ctrl != nil {
		return &RuntimeError{Msg: fmt.Sprintf("goto %s did not reach its label (jump into a structured statement is not supported)", ctrl.label)}
	}
	return nil
}

// maxErrStack bounds how many frame names an error captures; deeper
// stacks are summarized. Capture cost on the error path is thus O(depth)
// pointer hops but O(1) allocations, and the hot path never pays it.
const maxErrStack = 32

// callStack captures the dynamic call stack (innermost first), bounded
// to maxErrStack named frames plus a summary line for the rest.
func (it *Interp) callStack() []string {
	if it.frame == nil {
		return nil
	}
	stack := make([]string, 0, maxErrStack)
	n := 0
	for f := it.frame; f != nil; f = f.caller {
		if n == maxErrStack {
			rest := 0
			for ; f != nil; f = f.caller {
				rest++
			}
			stack = append(stack, fmt.Sprintf("... (%d more frames)", rest))
			break
		}
		stack = append(stack, f.routine.Name)
		n++
	}
	return stack
}

func (it *Interp) errorf(pos token.Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...), Stack: it.callStack()}
}

// cellOf resolves v's cell without constructing an error: it walks the
// static chain exactly (current level − owner level) links and indexes
// the owner frame's slot vector directly. Returns nil when no active
// frame holds v (probe paths swallow that silently; lookupCell wraps it
// in a RuntimeError).
func (it *Interp) cellOf(v *sem.VarSym) *cell {
	f := it.frame
	if f == nil {
		return nil
	}
	owner := v.Owner
	for d := f.level - owner.Level; d > 0; d-- {
		f = f.static
		if f == nil {
			return nil
		}
	}
	if f.routine != owner || v.Slot >= len(f.slots) {
		return nil
	}
	return f.slots[v.Slot]
}

// lookupCell finds the cell of v on the static chain, as a checked
// operation that reports a runtime error when v is not in scope.
func (it *Interp) lookupCell(v *sem.VarSym, pos token.Pos) (*cell, error) {
	if c := it.cellOf(v); c != nil {
		return c, nil
	}
	return nil, it.errorf(pos, "no active frame holds %s", v.Name)
}

// Peek returns the current value of v, resolved on the active static
// chain, without raising an error when no frame holds it. Read-only
// observation hook: EventSink clients (the absint soundness harness)
// compare concrete values against static predictions mid-run.
func (it *Interp) Peek(v *sem.VarSym) (Value, bool) {
	if c := it.cellOf(v); c != nil {
		return c.val, true
	}
	return Value{}, false
}

// ---------------------------------------------------------------------------
// Statements

func (it *Interp) execStmt(s ast.Stmt) (*control, error) {
	if s == nil {
		return nil, nil
	}
	it.steps++
	if it.steps > it.cfg.MaxSteps {
		err := it.errorf(s.Pos(), "step budget exhausted (%d statements); possible infinite loop", it.cfg.MaxSteps)
		err.(*RuntimeError).Cause = ErrFuelExhausted
		return nil, err
	}
	if it.trace {
		it.sink.Stmt(s, it.frame.routine)
	}
	switch s := s.(type) {
	case *ast.CompoundStmt:
		return it.execList(s.Stmts)
	case *ast.AssignStmt:
		return nil, it.execAssign(s)
	case *ast.CallStmt:
		return it.execCallStmt(s)
	case *ast.IfStmt:
		cond, err := it.evalBool(s.Cond)
		if err != nil {
			return nil, err
		}
		if cond {
			return it.execStmt(s.Then)
		}
		return it.execStmt(s.Else)
	case *ast.WhileStmt:
		for {
			cond, err := it.evalBool(s.Cond)
			if err != nil {
				return nil, err
			}
			if !cond {
				return nil, nil
			}
			ctrl, err := it.execStmt(s.Body)
			if ctrl != nil || err != nil {
				return ctrl, err
			}
		}
	case *ast.RepeatStmt:
		for {
			ctrl, err := it.execList(s.Stmts)
			if ctrl != nil || err != nil {
				return ctrl, err
			}
			cond, err := it.evalBool(s.Cond)
			if err != nil {
				return nil, err
			}
			if cond {
				return nil, nil
			}
		}
	case *ast.ForStmt:
		return it.execFor(s)
	case *ast.CaseStmt:
		return it.execCase(s)
	case *ast.GotoStmt:
		li := it.info.GotoTgt[s]
		if li == nil {
			return nil, it.errorf(s.Pos(), "unresolved goto %s", s.Label)
		}
		return &control{label: s.Label, target: li.Routine}, nil
	case *ast.LabeledStmt:
		return it.execStmt(s.Stmt)
	case *ast.EmptyStmt:
		return nil, nil
	}
	return nil, it.errorf(s.Pos(), "cannot execute %T", s)
}

// execList runs a statement list, resolving pending gotos whose label is
// placed at this level (possibly jumping backward or forward).
func (it *Interp) execList(stmts []ast.Stmt) (*control, error) {
	i := 0
	for i < len(stmts) {
		ctrl, err := it.execStmt(stmts[i])
		if err != nil {
			return nil, err
		}
		if ctrl == nil {
			i++
			continue
		}
		// A goto is pending: does this list place the label, and is the
		// label owned by the routine we are currently in?
		if ctrl.target != it.frame.routine {
			return ctrl, nil // unwind further (global goto)
		}
		found := -1
		for j, c := range stmts {
			if ls, ok := c.(*ast.LabeledStmt); ok && ls.Label == ctrl.label {
				found = j
				break
			}
		}
		if found < 0 {
			return ctrl, nil // unwind to an outer list of the same routine
		}
		i = found
	}
	return nil, nil
}

func (it *Interp) execAssign(s *ast.AssignStmt) error {
	val, err := it.evalExpr(s.Rhs)
	if err != nil {
		return err
	}
	return it.assignTo(s.Lhs, val, s.Pos())
}

// assignTo stores val into the designator lhs, firing Write (and, for
// partial updates of composites, Read) events on the base variable.
func (it *Interp) assignTo(lhs ast.Expr, val Value, pos token.Pos) error {
	// Whole-variable scalar store: resolve the cell directly, no
	// partial-update bookkeeping.
	if id, ok := lhs.(*ast.Ident); ok {
		v, ok := it.info.UseOf(id).(*sem.VarSym)
		if !ok {
			return it.errorf(id.Pos(), "%s is not a variable", id.Name)
		}
		c := it.cellOf(v)
		if c == nil {
			return it.errorf(id.Pos(), "no active frame holds %s", v.Name)
		}
		if c.val.kind == val.kind && val.kind <= KindStr {
			c.val = val
		} else {
			stored, err := it.prepareStore(&c.val, val, pos)
			if err != nil {
				return err
			}
			c.val = stored
		}
		if it.trace {
			it.sink.Write(c.loc, v)
		}
		return nil
	}
	addr, base, partial, err := it.lvalue(lhs)
	if err != nil {
		return err
	}
	val, err = it.prepareStore(addr, val, pos)
	if err != nil {
		return err
	}
	if partial && it.trace {
		// Partial update: the new whole-variable value also depends on
		// the old one.
		it.sink.Read(base.loc, it.baseVar(lhs))
	}
	*addr = val
	if it.trace {
		it.sink.Write(base.loc, it.baseVar(lhs))
	}
	return nil
}

// prepareStore adapts val for storage into the slot at dst: integers
// coerce into real targets, array displays are refitted to the target's
// bounds, and composite values are deep-copied so the slot never aliases
// the source.
func (it *Interp) prepareStore(dst *Value, val Value, pos token.Pos) (Value, error) {
	if dst.kind == KindReal && val.kind == KindInt {
		return RealV(float64(val.num)), nil
	}
	if val.kind == KindArray {
		// Array display into array target: fill from the low bound.
		if target, ok := dst.AsArray(); ok {
			src := val.arr()
			if src.Lo != target.Lo || src.Hi != target.Hi {
				if int64(len(src.Elems)) > int64(len(target.Elems)) {
					return Undef, it.errorf(pos, "array value of %d elements does not fit target of %d", len(src.Elems), len(target.Elems))
				}
				fresh := &ArrayVal{Lo: target.Lo, Hi: target.Hi, Elems: make([]Value, len(target.Elems))}
				for i := range fresh.Elems {
					if i < len(src.Elems) {
						fresh.Elems[i] = CopyValue(src.Elems[i])
					} else {
						fresh.Elems[i] = zeroLike(target.Elems[i])
					}
				}
				return ArrV(fresh), nil
			}
		}
	}
	return CopyValue(val), nil
}

func zeroLike(v Value) Value {
	switch v.kind {
	case KindReal:
		return RealV(0)
	case KindBool:
		return BoolV(false)
	case KindStr:
		return StrV("")
	case KindArray, KindRecord:
		return CopyValue(v) // keep shape; contents already zeroed at alloc
	}
	return IntV(0)
}

func (it *Interp) baseVar(e ast.Expr) *sem.VarSym {
	return it.info.VarOf(e)
}

// lvalue resolves a designator to the address of its storage slot, the
// base cell (whole-variable location for events) and whether the slot is
// a proper part of the base (partial update).
func (it *Interp) lvalue(e ast.Expr) (addr *Value, base *cell, partial bool, err error) {
	switch e := e.(type) {
	case *ast.Ident:
		sym := it.info.UseOf(e)
		v, ok := sym.(*sem.VarSym)
		if !ok {
			return nil, nil, false, it.errorf(e.Pos(), "%s is not a variable", e.Name)
		}
		c, err := it.lookupCell(v, e.Pos())
		if err != nil {
			return nil, nil, false, err
		}
		return &c.val, c, false, nil
	case *ast.IndexExpr:
		addr, base, _, err := it.lvalue(e.X)
		if err != nil {
			return nil, nil, false, err
		}
		for _, ie := range e.Indices {
			iv, err := it.evalInt(ie)
			if err != nil {
				return nil, nil, false, err
			}
			arr, ok := addr.AsArray()
			if !ok {
				return nil, nil, false, it.errorf(e.Pos(), "indexing non-array value")
			}
			addr, err = arr.At(iv)
			if err != nil {
				return nil, nil, false, it.errorf(ie.Pos(), "%v", err)
			}
		}
		return addr, base, true, nil
	case *ast.FieldExpr:
		addr, base, _, err := it.lvalue(e.X)
		if err != nil {
			return nil, nil, false, err
		}
		rec, ok := addr.AsRecord()
		if !ok {
			return nil, nil, false, it.errorf(e.Pos(), "selecting field of non-record value")
		}
		fa, ferr := rec.FieldAddr(e.Field)
		if ferr != nil {
			return nil, nil, false, it.errorf(e.Pos(), "%v", ferr)
		}
		return fa, base, true, nil
	}
	return nil, nil, false, it.errorf(e.Pos(), "expression is not assignable")
}

func (it *Interp) execFor(s *ast.ForStmt) (*control, error) {
	from, err := it.evalInt(s.From)
	if err != nil {
		return nil, err
	}
	limit, err := it.evalInt(s.Limit)
	if err != nil {
		return nil, err
	}
	// The control variable is a whole scalar variable (sem checks this),
	// so its cell is resolved once and written directly per iteration.
	var lc *cell
	var lv *sem.VarSym
	if v, ok := it.info.UseOf(s.Var).(*sem.VarSym); ok {
		lv = v
		lc = it.cellOf(v)
	}
	setVar := func(i int64) error {
		if lc != nil {
			lc.val = IntV(i)
			if it.trace {
				it.sink.Write(lc.loc, lv)
			}
			return nil
		}
		return it.assignTo(s.Var, IntV(i), s.Pos())
	}
	if err := setVar(from); err != nil {
		return nil, err
	}
	for i := from; ; {
		if s.Down && i < limit || !s.Down && i > limit {
			return nil, nil
		}
		if err := setVar(i); err != nil {
			return nil, err
		}
		ctrl, err := it.execStmt(s.Body)
		if ctrl != nil || err != nil {
			return ctrl, err
		}
		if s.Down {
			i--
		} else {
			i++
		}
	}
}

func (it *Interp) execCase(s *ast.CaseStmt) (*control, error) {
	sel, err := it.evalExpr(s.Expr)
	if err != nil {
		return nil, err
	}
	for _, arm := range s.Arms {
		for _, ce := range arm.Consts {
			cv, err := it.evalExpr(ce)
			if err != nil {
				return nil, err
			}
			if ValuesEqual(sel, cv) {
				return it.execStmt(arm.Body)
			}
		}
	}
	if s.Else != nil {
		return it.execStmt(s.Else)
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// Calls

func (it *Interp) execCallStmt(s *ast.CallStmt) (*control, error) {
	if b := it.info.BuiltinOf(s); b != nil {
		return nil, it.execBuiltinProc(b, s)
	}
	target := it.info.CallOf(s)
	if target == nil {
		return nil, it.errorf(s.Pos(), "call to unresolved routine %s", s.Name)
	}
	_, ctrl, err := it.call(target, s, s.Args, s.Pos())
	return ctrl, err
}

// call invokes a user routine and returns its result value (functions),
// a pending goto control (global gotos unwinding through the call) and
// an error.
func (it *Interp) call(target *sem.Routine, site ast.Node, args []ast.Expr, pos token.Pos) (Value, *control, error) {
	if it.depth >= it.cfg.MaxDepth {
		err := it.errorf(pos, "call depth budget exhausted (%d); runaway recursion?", it.cfg.MaxDepth)
		err.(*RuntimeError).Cause = ErrDepthExhausted
		return Undef, nil, err
	}
	if len(args) != len(target.Params) {
		return Undef, nil, it.errorf(pos, "%s expects %d arguments, got %d", target.Name, len(target.Params), len(args))
	}

	// Locate the static link: the active frame of the routine lexically
	// enclosing the target, reached by walking exactly
	// (current level − parent level) static links.
	static := it.frame
	if parent := target.Parent; parent != nil {
		for d := static.level - parent.Level; d > 0 && static != nil; d-- {
			static = static.static
		}
		if static == nil || static.routine != parent {
			return Undef, nil, it.errorf(pos, "no enclosing frame for %s", target.Name)
		}
	} else {
		return Undef, nil, it.errorf(pos, "no enclosing frame for %s", target.Name)
	}

	nf := it.newFrame(target, static, it.frame)
	it.calls++
	var ci *CallInfo
	if it.trace {
		ci = &CallInfo{
			ID:        it.nextID,
			Routine:   target,
			CallSite:  site,
			Depth:     it.depth + 1,
			ParamLocs: make([]Loc, len(target.Params)),
		}
		it.nextID++
	}

	// Bind parameters (argument evaluation happens in the caller frame).
	for i, p := range target.Params {
		a := args[i]
		if p.Mode == ast.Value {
			av, err := it.evalExpr(a)
			if err != nil {
				it.freeFrame(nf)
				return Undef, nil, err
			}
			// Array displays adapt to the parameter's array type.
			if at, ok := p.Type.(*types.Array); ok {
				if src, ok := av.AsArray(); ok && (src.Lo != at.Lo || src.Hi != at.Hi) {
					adapted := NewArray(at)
					if int64(len(src.Elems)) > int64(len(adapted.Elems)) {
						it.freeFrame(nf)
						return Undef, nil, it.errorf(a.Pos(), "array argument of %d elements does not fit %s", len(src.Elems), at)
					}
					for j, e := range src.Elems {
						adapted.Elems[j] = CopyValue(e)
					}
					av = ArrV(adapted)
				}
			}
			c := nf.slots[p.Slot]
			c.val = CopyValue(av)
			if ci != nil {
				ci.Ins = append(ci.Ins, Binding{Name: p.Name, Mode: p.Mode, Value: CopyValue(av), Sym: p})
				ci.ParamLocs[i] = c.loc
			}
			continue
		}
		// var / out: bind the formal to the argument's base cell. The
		// argument must be a whole-variable designator for aliasing to
		// be sound at our location granularity; element designators
		// alias the whole base variable (conservative, documented).
		addr, base, partialSlot, err := it.lvalue(a)
		if err != nil {
			it.freeFrame(nf)
			return Undef, nil, err
		}
		if partialSlot {
			// Alias the element slot but account events to the base.
			// Formals alias *addr via a forwarding cell; the deferred
			// writeback propagates the final value to the element.
			bound := &cell{loc: base.loc, val: *addr}
			nf.slots[p.Slot] = bound
			defer func(slot *Value, c *cell) { *slot = c.val }(addr, bound)
		} else {
			nf.slots[p.Slot] = base
		}
		if ci != nil {
			ci.Ins = append(ci.Ins, Binding{Name: p.Name, Mode: p.Mode, Value: CopyValue(*addr), Sym: p})
			ci.ParamLocs[i] = base.loc
		}
	}

	// Locals and function result.
	for _, v := range target.Locals {
		nf.zeroSlot(v)
	}
	var resultCell *cell
	if target.Result != nil {
		resultCell = nf.slots[target.Result.Slot]
		resultCell.val = ZeroValue(target.Result.Type)
		if ci != nil {
			ci.ResultLoc = resultCell.loc
		}
	}

	// Execute the body.
	prev := it.frame
	it.frame = nf
	it.depth++
	if it.depth > it.maxDepth {
		it.maxDepth = it.depth
	}
	if ci != nil {
		it.sink.EnterCall(ci)
	}

	ctrl, err := it.execStmt(target.Block.Body)

	// A pending goto that targets this routine but was not resolved by
	// any list is an error (jump into structure).
	if err == nil && ctrl != nil && ctrl.target == target {
		err = it.errorf(pos, "goto %s in %s did not reach its label", ctrl.label, target.Name)
		ctrl = nil
	}

	if ci != nil {
		// Snapshot outputs.
		for _, p := range target.Params {
			if p.Mode == ast.Value {
				continue
			}
			c := nf.slots[p.Slot]
			ci.Outs = append(ci.Outs, Binding{Name: p.Name, Mode: p.Mode, Value: CopyValue(c.val), Sym: p})
		}
		if resultCell != nil {
			ci.Result = CopyValue(resultCell.val)
		}
		it.sink.ExitCall(ci)
	}
	it.depth--
	it.frame = prev
	var result Value
	var resultLoc Loc
	if resultCell != nil {
		result = resultCell.val
		resultLoc = resultCell.loc
	}
	it.freeFrame(nf)
	if err != nil {
		return Undef, nil, err
	}
	if resultCell != nil && it.trace {
		it.sink.Read(resultLoc, target.Result)
	}
	return result, ctrl, nil
}

// ---------------------------------------------------------------------------
// Builtins

func (it *Interp) execBuiltinProc(b *sem.Builtin, s *ast.CallStmt) error {
	switch b.Code {
	case sem.BuiltinWrite, sem.BuiltinWriteln:
		var parts []string
		for _, a := range s.Args {
			v, err := it.evalExpr(a)
			if err != nil {
				return err
			}
			parts = append(parts, formatForOutput(v))
		}
		line := strings.Join(parts, " ")
		if b.Code == sem.BuiltinWriteln {
			line += "\n"
		}
		if _, err := io.WriteString(it.out, line); err != nil {
			return it.errorf(s.Pos(), "write failed: %v", err)
		}
		return nil
	case sem.BuiltinRead, sem.BuiltinReadln:
		for _, a := range s.Args {
			tok, err := it.readToken()
			if err != nil {
				return it.errorf(a.Pos(), "read: %v", err)
			}
			t := it.info.TypeOf(a)
			var v Value
			switch {
			case t != nil && t.Equal(types.RealT):
				f, perr := strconv.ParseFloat(tok, 64)
				if perr != nil {
					return it.errorf(a.Pos(), "read: %q is not a real", tok)
				}
				v = RealV(f)
			case t != nil && t.Equal(types.String):
				v = StrV(tok)
			case t != nil && t.Equal(types.Boolean):
				switch strings.ToLower(tok) {
				case "true":
					v = BoolV(true)
				case "false":
					v = BoolV(false)
				default:
					return it.errorf(a.Pos(), "read: %q is not a boolean", tok)
				}
			default:
				n, perr := strconv.ParseInt(tok, 10, 64)
				if perr != nil {
					return it.errorf(a.Pos(), "read: %q is not an integer", tok)
				}
				v = IntV(n)
			}
			if err := it.assignTo(a, v, a.Pos()); err != nil {
				return err
			}
		}
		return nil
	}
	return it.errorf(s.Pos(), "builtin %s cannot be called as a procedure", b.Name)
}

func formatForOutput(v Value) string {
	if s, ok := v.AsStr(); ok {
		return s // no quotes on program output
	}
	return FormatValue(v)
}

func (it *Interp) readToken() (string, error) {
	if it.in == nil {
		return "", fmt.Errorf("no input available")
	}
	var b strings.Builder
	// Skip whitespace.
	for {
		ch, err := it.in.ReadByte()
		if err != nil {
			return "", fmt.Errorf("end of input")
		}
		if ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r' {
			continue
		}
		b.WriteByte(ch)
		break
	}
	for {
		ch, err := it.in.ReadByte()
		if err != nil {
			break
		}
		if ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r' {
			break
		}
		b.WriteByte(ch)
	}
	return b.String(), nil
}

func (it *Interp) evalBuiltinFunc(b *sem.Builtin, e *ast.CallExpr) (Value, error) {
	if len(e.Args) != 1 {
		return Undef, it.errorf(e.Pos(), "%s expects 1 argument", b.Name)
	}
	v, err := it.evalExpr(e.Args[0])
	if err != nil {
		return Undef, err
	}
	switch b.Code {
	case sem.BuiltinAbs:
		switch v.kind {
		case KindInt:
			if v.num < 0 {
				return IntV(-v.num), nil
			}
			return v, nil
		case KindReal:
			if f := v.realv(); f < 0 {
				return RealV(-f), nil
			}
			return v, nil
		}
	case sem.BuiltinSqr:
		switch v.kind {
		case KindInt:
			return IntV(v.num * v.num), nil
		case KindReal:
			f := v.realv()
			return RealV(f * f), nil
		}
	case sem.BuiltinOdd:
		if v.kind == KindInt {
			return BoolV(v.num%2 != 0), nil
		}
	case sem.BuiltinTrunc:
		switch v.kind {
		case KindInt:
			return v, nil
		case KindReal:
			return IntV(int64(v.realv())), nil
		}
	case sem.BuiltinRound:
		switch v.kind {
		case KindInt:
			return v, nil
		case KindReal:
			f := v.realv()
			if f >= 0 {
				return IntV(int64(f + 0.5)), nil
			}
			return IntV(int64(f - 0.5)), nil
		}
	}
	return Undef, it.errorf(e.Pos(), "invalid argument to %s", b.Name)
}

// ---------------------------------------------------------------------------
// Expressions

func (it *Interp) evalBool(e ast.Expr) (bool, error) {
	v, err := it.evalExpr(e)
	if err != nil {
		return false, err
	}
	if v.kind != KindBool {
		return false, it.errorf(e.Pos(), "boolean expected, have %s", FormatValue(v))
	}
	return v.boolv(), nil
}

func (it *Interp) evalInt(e ast.Expr) (int64, error) {
	v, err := it.evalExpr(e)
	if err != nil {
		return 0, err
	}
	if v.kind != KindInt {
		return 0, it.errorf(e.Pos(), "integer expected, have %s", FormatValue(v))
	}
	return v.num, nil
}

func (it *Interp) evalExpr(e ast.Expr) (Value, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return IntV(e.Value), nil
	case *ast.RealLit:
		return RealV(e.Value), nil
	case *ast.StringLit:
		return StrV(e.Value), nil
	case *ast.Ident:
		switch sym := it.info.UseOf(e).(type) {
		case *sem.VarSym:
			c, err := it.lookupCell(sym, e.Pos())
			if err != nil {
				return Undef, err
			}
			if it.trace {
				it.sink.Read(c.loc, sym)
			}
			return c.val, nil
		case *sem.ConstSym:
			return constToValue(sym.Value), nil
		}
		// Parameterless function call.
		if target := it.info.CallOf(e); target != nil {
			v, ctrl, err := it.call(target, e, nil, e.Pos())
			if err != nil {
				return Undef, err
			}
			if ctrl != nil {
				return Undef, it.errorf(e.Pos(), "goto %s escaped function %s", ctrl.label, target.Name)
			}
			return v, nil
		}
		return Undef, it.errorf(e.Pos(), "unresolved identifier %s", e.Name)
	case *ast.BinaryExpr:
		return it.evalBinary(e)
	case *ast.UnaryExpr:
		v, err := it.evalExpr(e.X)
		if err != nil {
			return Undef, err
		}
		switch e.Op {
		case token.Minus:
			switch v.kind {
			case KindInt:
				return IntV(-v.num), nil
			case KindReal:
				return RealV(-v.realv()), nil
			}
		case token.Plus:
			return v, nil
		case token.Not:
			if v.kind == KindBool {
				return BoolV(!v.boolv()), nil
			}
		}
		return Undef, it.errorf(e.Pos(), "invalid unary operand %s", FormatValue(v))
	case *ast.IndexExpr:
		addr, base, _, err := it.lvalue(e)
		if err != nil {
			return Undef, err
		}
		if it.trace {
			it.sink.Read(base.loc, it.baseVar(e))
		}
		return *addr, nil
	case *ast.FieldExpr:
		addr, base, _, err := it.lvalue(e)
		if err != nil {
			return Undef, err
		}
		if it.trace {
			it.sink.Read(base.loc, it.baseVar(e))
		}
		return *addr, nil
	case *ast.CallExpr:
		if b := it.info.BuiltinOf(e); b != nil {
			return it.evalBuiltinFunc(b, e)
		}
		target := it.info.CallOf(e)
		if target == nil {
			return Undef, it.errorf(e.Pos(), "call to unresolved function %s", e.Name)
		}
		v, ctrl, err := it.call(target, e, e.Args, e.Pos())
		if err != nil {
			return Undef, err
		}
		if ctrl != nil {
			return Undef, it.errorf(e.Pos(), "goto %s escaped function %s", ctrl.label, target.Name)
		}
		return v, nil
	case *ast.SetLit:
		t, _ := it.info.TypeOf(e).(*types.Array)
		var arr *ArrayVal
		if t != nil {
			arr = NewArray(t)
		} else {
			arr = &ArrayVal{Lo: 1, Hi: int64(len(e.Elems)), Elems: make([]Value, len(e.Elems))}
		}
		for i, el := range e.Elems {
			v, err := it.evalExpr(el)
			if err != nil {
				return Undef, err
			}
			if i >= len(arr.Elems) {
				return Undef, it.errorf(el.Pos(), "array display longer than target array")
			}
			arr.Elems[i] = CopyValue(v)
		}
		return ArrV(arr), nil
	}
	return Undef, it.errorf(e.Pos(), "cannot evaluate %T", e)
}

func constToValue(v any) Value {
	switch v := v.(type) {
	case int64:
		return IntV(v)
	case float64:
		return RealV(v)
	case bool:
		return BoolV(v)
	case string:
		return StrV(v)
	}
	return IntV(0)
}

func (it *Interp) evalBinary(e *ast.BinaryExpr) (Value, error) {
	x, err := it.evalExpr(e.X)
	if err != nil {
		return Undef, err
	}
	// No short-circuit: ISO Pascal leaves evaluation order unspecified;
	// classic compilers evaluate both operands, and the paper's subject
	// programs rely on nothing else.
	y, err := it.evalExpr(e.Y)
	if err != nil {
		return Undef, err
	}
	// Integer-integer fast path: the overwhelmingly common case in the
	// paper's subject programs; dispatch inline without re-checking kinds
	// per operator or copying operands into helper calls.
	if x.kind == KindInt && y.kind == KindInt {
		a, b := x.num, y.num
		switch e.Op {
		case token.Plus:
			return IntV(a + b), nil
		case token.Minus:
			return IntV(a - b), nil
		case token.Star:
			return IntV(a * b), nil
		case token.Div:
			if b == 0 {
				return Undef, it.errorf(e.Pos(), "division by zero")
			}
			return IntV(a / b), nil
		case token.Mod:
			if b == 0 {
				return Undef, it.errorf(e.Pos(), "division by zero")
			}
			return IntV(a % b), nil
		case token.Slash:
			if b == 0 {
				return Undef, it.errorf(e.Pos(), "division by zero")
			}
			return RealV(float64(a) / float64(b)), nil
		case token.Eq:
			return BoolV(a == b), nil
		case token.NotEq:
			return BoolV(a != b), nil
		case token.Less:
			return BoolV(a < b), nil
		case token.LessEq:
			return BoolV(a <= b), nil
		case token.Greater:
			return BoolV(a > b), nil
		case token.GreatEq:
			return BoolV(a >= b), nil
		}
	}
	switch e.Op {
	case token.And:
		if x.kind == KindBool && y.kind == KindBool {
			return BoolV(x.boolv() && y.boolv()), nil
		}
	case token.Or:
		if x.kind == KindBool && y.kind == KindBool {
			return BoolV(x.boolv() || y.boolv()), nil
		}
	case token.Plus, token.Minus, token.Star, token.Slash:
		return it.arith(e, x, y)
	case token.Div, token.Mod:
		if x.kind == KindInt && y.kind == KindInt {
			if y.num == 0 {
				return Undef, it.errorf(e.Pos(), "division by zero")
			}
			if e.Op == token.Div {
				return IntV(x.num / y.num), nil
			}
			return IntV(x.num % y.num), nil
		}
	case token.Eq:
		return BoolV(ValuesEqual(x, y)), nil
	case token.NotEq:
		return BoolV(!ValuesEqual(x, y)), nil
	case token.Less, token.LessEq, token.Greater, token.GreatEq:
		return it.compare(e, x, y)
	}
	return Undef, it.errorf(e.Pos(), "invalid operands %s %s %s", FormatValue(x), e.Op, FormatValue(y))
}

func (it *Interp) arith(e *ast.BinaryExpr, x, y Value) (Value, error) {
	if x.kind == KindInt && y.kind == KindInt {
		switch e.Op {
		case token.Plus:
			return IntV(x.num + y.num), nil
		case token.Minus:
			return IntV(x.num - y.num), nil
		case token.Star:
			return IntV(x.num * y.num), nil
		case token.Slash:
			if y.num == 0 {
				return Undef, it.errorf(e.Pos(), "division by zero")
			}
			return RealV(float64(x.num) / float64(y.num)), nil
		}
	}
	if x.numeric() && y.numeric() {
		xf, yf := x.asFloat(), y.asFloat()
		switch e.Op {
		case token.Plus:
			return RealV(xf + yf), nil
		case token.Minus:
			return RealV(xf - yf), nil
		case token.Star:
			return RealV(xf * yf), nil
		case token.Slash:
			if yf == 0 {
				return Undef, it.errorf(e.Pos(), "division by zero")
			}
			return RealV(xf / yf), nil
		}
	}
	// String concatenation with + (common Pascal dialect extension).
	if x.kind == KindStr && y.kind == KindStr && e.Op == token.Plus {
		return StrV(x.strv() + y.strv()), nil
	}
	return Undef, it.errorf(e.Pos(), "invalid operands %s %s %s", FormatValue(x), e.Op, FormatValue(y))
}

func (it *Interp) compare(e *ast.BinaryExpr, x, y Value) (Value, error) {
	if x.kind == KindStr && y.kind == KindStr {
		xs, ys := x.strv(), y.strv()
		switch e.Op {
		case token.Less:
			return BoolV(xs < ys), nil
		case token.LessEq:
			return BoolV(xs <= ys), nil
		case token.Greater:
			return BoolV(xs > ys), nil
		case token.GreatEq:
			return BoolV(xs >= ys), nil
		}
	}
	if x.kind == KindInt && y.kind == KindInt {
		switch e.Op {
		case token.Less:
			return BoolV(x.num < y.num), nil
		case token.LessEq:
			return BoolV(x.num <= y.num), nil
		case token.Greater:
			return BoolV(x.num > y.num), nil
		case token.GreatEq:
			return BoolV(x.num >= y.num), nil
		}
	}
	if x.numeric() && y.numeric() {
		xf, yf := x.asFloat(), y.asFloat()
		switch e.Op {
		case token.Less:
			return BoolV(xf < yf), nil
		case token.LessEq:
			return BoolV(xf <= yf), nil
		case token.Greater:
			return BoolV(xf > yf), nil
		case token.GreatEq:
			return BoolV(xf >= yf), nil
		}
	}
	return Undef, it.errorf(e.Pos(), "cannot order %s against %s", FormatValue(x), FormatValue(y))
}

// Steps reports the number of statements executed so far.
func (it *Interp) Steps() int { return it.steps }

// Globals snapshots the program-level variables after (or during) a run,
// in declaration order. The differential harness compares these
// snapshots across transformation pipelines: the transformation phase
// may add fresh program-level variables but must not change the final
// value of any original one. Values are deep copies.
func (it *Interp) Globals() []Binding {
	main := it.info.Main
	f := it.frame
	for f != nil && f.routine != main {
		f = f.static
	}
	if f == nil {
		return nil
	}
	var out []Binding
	for _, v := range main.Locals {
		if v.Slot >= len(f.slots) {
			continue
		}
		c := f.slots[v.Slot]
		out = append(out, Binding{Name: v.Name, Value: CopyValue(c.val), Sym: v})
	}
	return out
}
