package defuse

// BitSet is a set of small non-negative integers, one bit each: the
// dense indices the analyses key their state by (sem.VarSym.ID,
// cfg.Node.ID, a definition's ID). The zero value is empty, and Set
// grows a set to fit. CopyFrom and UnionWith do not grow: the receiver
// must have room for the other set's elements.
type BitSet []uint64

// NewBitSet returns an empty set with room for the integers 0 to n-1.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set adds i, growing the set when i is beyond its capacity.
func (b *BitSet) Set(i int) {
	if w := i >> 6; w >= len(*b) {
		*b = append(*b, make(BitSet, w+1-len(*b))...)
	}
	(*b)[i>>6] |= 1 << (uint(i) & 63)
}

// Unset removes i.
func (b BitSet) Unset(i int) {
	if w := i >> 6; w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// Has reports whether i is in the set.
func (b BitSet) Has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// Reset empties the set, keeping its storage.
func (b BitSet) Reset() { clear(b) }

// CopyFrom makes b hold exactly o's elements.
func (b BitSet) CopyFrom(o BitSet) {
	clear(b[copy(b, o):])
}

// UnionWith adds o's elements to b and reports whether b grew.
func (b BitSet) UnionWith(o BitSet) bool {
	changed := false
	for i, w := range o {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

// DiffWith removes o's elements from b.
func (b BitSet) DiffWith(o BitSet) {
	for i := range min(len(b), len(o)) {
		b[i] &^= o[i]
	}
}

// Equal reports whether b and o hold the same elements.
func (b BitSet) Equal(o BitSet) bool {
	short, long := b, o
	if len(short) > len(long) {
		short, long = long, short
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// BitSets is count bit sets of one capacity in one array: the per-node
// facts of one graph. Its sets do not grow.
type BitSets struct {
	words []uint64
	w     int // words per set
}

// NewBitSets returns count empty sets with room for 0 to n-1 each.
func NewBitSets(count, n int) BitSets {
	w := (n + 63) / 64
	return BitSets{words: make([]uint64, count*w), w: w}
}

// At returns set i. It is a view of s's array: changing it changes s.
func (s BitSets) At(i int) BitSet {
	return BitSet(s.words[i*s.w : (i+1)*s.w : (i+1)*s.w])
}
