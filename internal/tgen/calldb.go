package tgen

import (
	"strings"
	"sync"

	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/interp"
)

// CallDB is a harvested test database: exact unit invocations observed
// to behave correctly — typically every completed call in a campaign's
// reference run — keyed by unit name and entry values. Where the
// spec-driven Lookup answers by frame classification, CallDB answers by
// literal recall: a later call with the same unit and inputs is Correct
// iff it produced the same outputs, with no extrapolation at all.
//
// It implements debugger.TestLookup and is safe for concurrent use
// (campaign workers share one database per subject). Judge only reads
// it; the sessions count the answers it gives.
type CallDB struct {
	mu    sync.RWMutex
	calls map[string]string // unit + rendered inputs -> rendered outputs
}

// NewCallDB returns an empty database.
func NewCallDB() *CallDB {
	return &CallDB{calls: make(map[string]string)}
}

var _ debugger.TestLookup = (*CallDB)(nil)

// callKey renders the invocation's identity: unit name plus entry
// values in parameter order.
func callKey(n *exectree.Node) string {
	var b strings.Builder
	b.WriteString(n.Unit.Name)
	b.WriteByte('(')
	for i, in := range n.Ins {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(interp.FormatValue(in.Value))
	}
	b.WriteByte(')')
	return b.String()
}

// callOuts renders the invocation's observable behavior: exit values in
// parameter order plus the function result.
func callOuts(n *exectree.Node) string {
	var b strings.Builder
	for i, out := range n.Outs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(interp.FormatValue(out.Value))
	}
	if n.Unit.Kind == ast.FuncKind {
		b.WriteByte('=')
		b.WriteString(interp.FormatValue(n.Result))
	}
	return b.String()
}

// AddPassing records one completed invocation as intended behavior.
// Re-adding the same call is a no-op (first writer wins; the reference
// is deterministic, so duplicates agree anyway).
func (db *CallDB) AddPassing(n *exectree.Node) {
	if n == nil || n.Incomplete || n.IsRoot() {
		return
	}
	key := callKey(n)
	db.mu.Lock()
	if _, ok := db.calls[key]; !ok {
		db.calls[key] = callOuts(n)
	}
	db.mu.Unlock()
}

// HarvestTree records every completed non-root invocation of a
// known-good execution tree and returns the database for chaining.
func (db *CallDB) HarvestTree(t *exectree.Tree) *CallDB {
	if t == nil {
		return db
	}
	t.Walk(func(n *exectree.Node) bool {
		db.AddPassing(n)
		return true
	})
	return db
}

// Len reports the number of distinct harvested calls.
func (db *CallDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.calls)
}

// Judge implements debugger.TestLookup: Correct when the call matches a
// harvested invocation exactly, Incorrect when the inputs match but the
// outputs differ, DontKnow for never-harvested inputs.
func (db *CallDB) Judge(n *exectree.Node) debugger.Verdict {
	if n == nil || n.Incomplete || n.IsRoot() {
		return debugger.DontKnow
	}
	key := callKey(n)
	db.mu.RLock()
	want, ok := db.calls[key]
	db.mu.RUnlock()
	if !ok {
		return debugger.DontKnow
	}
	if callOuts(n) == want {
		return debugger.Correct
	}
	return debugger.Incorrect
}
