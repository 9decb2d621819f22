package defuse_test

import (
	"testing"
	"testing/quick"

	"gadt/internal/analysis/defuse"
)

// TestQuickBitSet checks BitSet operations against a map-based model.
func TestQuickBitSet(t *testing.T) {
	const n = 130 // cross the word boundary
	clone := func(b defuse.BitSet) defuse.BitSet {
		c := defuse.NewBitSet(n)
		c.CopyFrom(b)
		return c
	}
	prop := func(aBits, bBits []uint8) bool {
		a, b := defuse.NewBitSet(n), defuse.NewBitSet(n)
		am, bm := map[int]bool{}, map[int]bool{}
		for _, x := range aBits {
			i := int(x) % n
			a.Set(i)
			am[i] = true
		}
		for _, x := range bBits {
			i := int(x) % n
			b.Set(i)
			bm[i] = true
		}
		u := clone(a)
		u.UnionWith(b)
		d := clone(a)
		d.DiffWith(b)
		for i := 0; i < n; i++ {
			if u.Has(i) != (am[i] || bm[i]) {
				return false
			}
			if d.Has(i) != (am[i] && !bm[i]) {
				return false
			}
			if a.Has(i) != am[i] { // a copy must not share storage
				return false
			}
		}
		if !a.Equal(clone(a)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitSetInPlace checks the in-place operations on sets that
// share one allocation (NewBitSets) against a map-based model.
func TestQuickBitSetInPlace(t *testing.T) {
	const n = 130
	prop := func(aBits, bBits, drop []uint8) bool {
		sets := defuse.NewBitSets(3, n)
		a, b, c := sets.At(0), sets.At(1), sets.At(2)
		am, bm := map[int]bool{}, map[int]bool{}
		for _, x := range aBits {
			a.Set(int(x) % n)
			am[int(x)%n] = true
		}
		for _, x := range bBits {
			b.Set(int(x) % n)
			bm[int(x)%n] = true
		}
		for _, x := range drop {
			a.Unset(int(x) % n)
			delete(am, int(x)%n)
		}
		c.CopyFrom(a)
		grew := c.UnionWith(b)
		wantGrew := false
		for i := range bm {
			if !am[i] {
				wantGrew = true
			}
		}
		if grew != wantGrew || c.UnionWith(b) {
			return false
		}
		for i := 0; i < n; i++ {
			if a.Has(i) != am[i] || b.Has(i) != bm[i] || c.Has(i) != (am[i] || bm[i]) {
				return false // a neighbour in the shared allocation was touched
			}
		}
		// Sets of different capacities compare by their elements.
		wide := defuse.NewBitSet(4 * n)
		wide.CopyFrom(a)
		if !wide.Equal(a) || !a.Equal(wide) {
			return false
		}
		c.Reset()
		return c.Equal(defuse.NewBitSet(0)) && a.Has(0) == am[0]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
