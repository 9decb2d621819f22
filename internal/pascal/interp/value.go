// Package interp is a tree-walking interpreter for the GADT Pascal
// subset with instrumentation hooks.
//
// The interpreter is the substrate of the paper's tracing phase
// (Section 5.2): an EventSink receives call enter/exit events carrying
// deep-copied parameter snapshots, plus location-level read/write events
// that the dynamic slicer turns into a dynamic dependence graph.
package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gadt/internal/pascal/types"
)

// Kind discriminates the payload of a Value.
type Kind uint8

const (
	KindUndef Kind = iota // zero Value; "no value" (procedure results)
	KindInt
	KindReal
	KindBool
	KindStr
	KindArray
	KindRecord
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "integer"
	case KindReal:
		return "real"
	case KindBool:
		return "boolean"
	case KindStr:
		return "string"
	case KindArray:
		return "array"
	case KindRecord:
		return "record"
	}
	return "undefined"
}

// Value is a runtime value in unboxed form: a small tagged struct whose
// scalar payloads (integer, boolean, real) live in the num field, so
// scalar assignment, arithmetic and comparison allocate nothing. Strings,
// arrays and records escape to the heap behind agg. Keeping the struct at
// three words (32 bytes) matters: every expression evaluation returns a
// Value by value, and the copy cost is on the interpreter's hottest path.
//
// The zero Value is KindUndef ("no value"). Scalar values are immutable;
// composite values are mutated in place and must be deep-copied when
// snapshotted.
type Value struct {
	kind Kind
	num  int64 // KindInt payload; KindBool 0/1; KindReal float bits
	agg  any   // string, *ArrayVal or *RecordVal
}

// Undef is the "no value" Value (same as the zero Value).
var Undef = Value{}

// IntV returns an integer value.
func IntV(i int64) Value { return Value{kind: KindInt, num: i} }

// RealV returns a real value.
func RealV(f float64) Value { return Value{kind: KindReal, num: int64(math.Float64bits(f))} }

// BoolV returns a boolean value.
func BoolV(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// StrV returns a string value.
func StrV(s string) Value { return Value{kind: KindStr, agg: s} }

// ArrV wraps an array value.
func ArrV(a *ArrayVal) Value { return Value{kind: KindArray, agg: a} }

// RecV wraps a record value.
func RecV(r *RecordVal) Value { return Value{kind: KindRecord, agg: r} }

// MakeValue converts a Go scalar or composite (int, int64, float64,
// bool, string, *ArrayVal, *RecordVal) into a Value; any other input
// yields Undef. Convenience for tests and table-driven callers.
func MakeValue(x any) Value {
	switch x := x.(type) {
	case Value:
		return x
	case int:
		return IntV(int64(x))
	case int64:
		return IntV(x)
	case float64:
		return RealV(x)
	case bool:
		return BoolV(x)
	case string:
		return StrV(x)
	case *ArrayVal:
		return ArrV(x)
	case *RecordVal:
		return RecV(x)
	}
	return Undef
}

// Kind reports the value's kind tag.
func (v Value) Kind() Kind { return v.kind }

// IsUndef reports whether v carries no value.
func (v Value) IsUndef() bool { return v.kind == KindUndef }

// IsScalar reports whether v is an integer, real, boolean or string.
func (v Value) IsScalar() bool {
	return v.kind == KindInt || v.kind == KindReal || v.kind == KindBool || v.kind == KindStr
}

// AsInt returns the integer payload, when v is an integer.
func (v Value) AsInt() (int64, bool) { return v.num, v.kind == KindInt }

// AsReal returns the real payload, when v is a real (no int widening).
func (v Value) AsReal() (float64, bool) {
	return math.Float64frombits(uint64(v.num)), v.kind == KindReal
}

// AsBool returns the boolean payload, when v is a boolean.
func (v Value) AsBool() (bool, bool) { return v.num != 0, v.kind == KindBool }

// AsStr returns the string payload, when v is a string.
func (v Value) AsStr() (string, bool) {
	if v.kind != KindStr {
		return "", false
	}
	return v.agg.(string), true
}

// AsArray returns the array payload, when v is an array.
func (v Value) AsArray() (*ArrayVal, bool) {
	a, ok := v.agg.(*ArrayVal)
	return a, ok && v.kind == KindArray
}

// AsRecord returns the record payload, when v is a record.
func (v Value) AsRecord() (*RecordVal, bool) {
	r, ok := v.agg.(*RecordVal)
	return r, ok && v.kind == KindRecord
}

// unchecked accessors for post-kind-check hot paths.
func (v Value) realv() float64  { return math.Float64frombits(uint64(v.num)) }
func (v Value) boolv() bool     { return v.num != 0 }
func (v Value) strv() string    { return v.agg.(string) }
func (v Value) arr() *ArrayVal  { return v.agg.(*ArrayVal) }
func (v Value) rec() *RecordVal { return v.agg.(*RecordVal) }
func (v Value) numeric() bool   { return v.kind == KindInt || v.kind == KindReal }
func (v Value) asFloat() float64 { // numeric() callers only
	if v.kind == KindInt {
		return float64(v.num)
	}
	return v.realv()
}

// ArrayVal is an array value with the bounds of its type.
type ArrayVal struct {
	Lo, Hi int64
	Elems  []Value
}

// NewArray allocates an array of the given type with zero elements.
func NewArray(t *types.Array) *ArrayVal {
	a := &ArrayVal{Lo: t.Lo, Hi: t.Hi, Elems: make([]Value, t.Len())}
	zero := ZeroValue(t.Elem)
	if zero.kind == KindArray || zero.kind == KindRecord {
		a.Elems[0] = zero
		for i := 1; i < len(a.Elems); i++ {
			a.Elems[i] = CopyValue(zero)
		}
	} else {
		for i := range a.Elems {
			a.Elems[i] = zero
		}
	}
	return a
}

// At returns the address of the element for source index i (checked).
func (a *ArrayVal) At(i int64) (*Value, error) {
	if i < a.Lo || i > a.Hi {
		return nil, fmt.Errorf("index %d out of bounds [%d .. %d]", i, a.Lo, a.Hi)
	}
	return &a.Elems[i-a.Lo], nil
}

func (a *ArrayVal) String() string { return FormatValue(ArrV(a)) }

// RecordVal is a record value; field order follows the record type.
type RecordVal struct {
	Names  []string
	Fields []Value
}

// NewRecord allocates a record of the given type with zero fields.
func NewRecord(t *types.Record) *RecordVal {
	r := &RecordVal{Names: make([]string, len(t.Fields)), Fields: make([]Value, len(t.Fields))}
	for i, f := range t.Fields {
		r.Names[i] = f.Name
		r.Fields[i] = ZeroValue(f.Type)
	}
	return r
}

// FieldAddr returns the address of the named field.
func (r *RecordVal) FieldAddr(name string) (*Value, error) {
	for i, n := range r.Names {
		if n == name {
			return &r.Fields[i], nil
		}
	}
	return nil, fmt.Errorf("record has no field %s", name)
}

func (r *RecordVal) String() string { return FormatValue(RecV(r)) }

// ZeroValue returns the zero value of a semantic type (Pascal leaves
// variables undefined; zero-initialization keeps runs deterministic,
// like many safe Pascal implementations).
func ZeroValue(t types.Type) Value {
	switch t := t.(type) {
	case *types.Basic:
		switch t.Kind {
		case types.Int:
			return IntV(0)
		case types.Real:
			return RealV(0)
		case types.Bool:
			return BoolV(false)
		case types.Str:
			return StrV("")
		}
	case *types.Array:
		return ArrV(NewArray(t))
	case *types.Record:
		return RecV(NewRecord(t))
	}
	return IntV(0)
}

// CopyValue deep-copies a value. Scalars copy by value (free); arrays
// and records are cloned.
func CopyValue(v Value) Value {
	switch v.kind {
	case KindArray:
		src := v.arr()
		c := &ArrayVal{Lo: src.Lo, Hi: src.Hi, Elems: make([]Value, len(src.Elems))}
		for i, e := range src.Elems {
			c.Elems[i] = CopyValue(e)
		}
		return ArrV(c)
	case KindRecord:
		src := v.rec()
		c := &RecordVal{Names: append([]string(nil), src.Names...), Fields: make([]Value, len(src.Fields))}
		for i, e := range src.Fields {
			c.Fields[i] = CopyValue(e)
		}
		return RecV(c)
	default:
		return v
	}
}

// ValuesEqual compares two values structurally, widening integers to
// reals when mixed.
func ValuesEqual(a, b Value) bool {
	switch a.kind {
	case KindInt:
		switch b.kind {
		case KindInt:
			return a.num == b.num
		case KindReal:
			return float64(a.num) == b.realv()
		}
		return false
	case KindReal:
		switch b.kind {
		case KindInt:
			return a.realv() == float64(b.num)
		case KindReal:
			return a.realv() == b.realv()
		}
		return false
	case KindBool:
		return b.kind == KindBool && a.num == b.num
	case KindStr:
		return b.kind == KindStr && a.strv() == b.strv()
	case KindArray:
		ba, ok := b.AsArray()
		aa := a.arr()
		if !ok || ba.Lo != aa.Lo || ba.Hi != aa.Hi {
			return false
		}
		for i := range aa.Elems {
			if !ValuesEqual(aa.Elems[i], ba.Elems[i]) {
				return false
			}
		}
		return true
	case KindRecord:
		br, ok := b.AsRecord()
		ar := a.rec()
		if !ok || len(br.Fields) != len(ar.Fields) {
			return false
		}
		for i := range ar.Fields {
			if ar.Names[i] != br.Names[i] || !ValuesEqual(ar.Fields[i], br.Fields[i]) {
				return false
			}
		}
		return true
	}
	return b.kind == KindUndef
}

// FormatValue renders a value the way the debugger presents it to the
// user: `[1, 2]` for arrays (trailing zero elements of large arrays are
// elided as `, ...`), `(f: v, ...)` for records.
func FormatValue(v Value) string {
	switch v.kind {
	case KindUndef:
		return "<undef>"
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindReal:
		s := fmt.Sprintf("%g", v.realv())
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case KindBool:
		if v.boolv() {
			return "true"
		}
		return "false"
	case KindStr:
		return fmt.Sprintf("'%s'", v.strv())
	case KindArray:
		// Elide the maximal all-zero tail to keep queries readable: the
		// paper prints sqrtest's 10-element parameter array as [1, 2].
		a := v.arr()
		n := len(a.Elems)
		for n > 0 && isZeroScalar(a.Elems[n-1]) {
			n--
		}
		parts := make([]string, 0, n)
		for i := 0; i < n; i++ {
			parts = append(parts, FormatValue(a.Elems[i]))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindRecord:
		r := v.rec()
		parts := make([]string, len(r.Fields))
		for i := range r.Fields {
			parts[i] = fmt.Sprintf("%s: %s", r.Names[i], FormatValue(r.Fields[i]))
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("<%s>", v.kind)
}

func isZeroScalar(v Value) bool {
	switch v.kind {
	case KindInt:
		return v.num == 0
	case KindReal:
		return v.realv() == 0
	case KindBool:
		return !v.boolv()
	case KindStr:
		return v.strv() == ""
	}
	return false
}
