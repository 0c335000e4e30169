package query

import "math/bits"

// AttrSet is a set of attribute indices stored as a dense bitset: bit a%64
// of word a/64 is set iff a is a member. Sets built from a schema width
// (DirectImpact) never grow; Add and Union extend the word array when a
// member lies beyond it, so there is no cap on the attribute count.
// Trailing zero words carry no meaning: sets of different lengths compare
// by their members.
type AttrSet []uint64

const wordBits = 64

// attrSetFor returns an empty set with room for attributes [0, width).
func attrSetFor(width int) AttrSet {
	return make(AttrSet, (width+wordBits-1)/wordBits)
}

// NewAttrSet builds a set from a list of indices. The result is never nil.
func NewAttrSet(attrs ...int) AttrSet {
	s := AttrSet{}
	s.Add(attrs...)
	return s
}

// grow extends the word array to at least n words.
func (s *AttrSet) grow(n int) {
	if n > len(*s) {
		*s = append(*s, make(AttrSet, n-len(*s))...)
	}
}

// Add inserts all given attributes.
func (s *AttrSet) Add(attrs ...int) {
	for _, a := range attrs {
		s.grow(a/wordBits + 1)
		(*s)[a/wordBits] |= 1 << (a % wordBits)
	}
}

// Has reports whether a is a member.
func (s AttrSet) Has(a int) bool {
	w := a / wordBits
	return a >= 0 && w < len(s) && s[w]&(1<<(a%wordBits)) != 0
}

// Len returns the number of members.
func (s AttrSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union merges o into s.
func (s *AttrSet) Union(o AttrSet) {
	s.grow(len(o))
	for i, w := range o {
		(*s)[i] |= w
	}
}

// Intersects reports whether the sets share an element.
func (s AttrSet) Intersects(o AttrSet) bool {
	if len(o) < len(s) {
		s = s[:len(o)]
	}
	for i, w := range s {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether s is a superset of o.
func (s AttrSet) ContainsAll(o AttrSet) bool {
	for i, w := range o {
		if i >= len(s) {
			if w != 0 {
				return false
			}
		} else if w&^s[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the sets have the same members.
func (s AttrSet) Equal(o AttrSet) bool {
	return s.ContainsAll(o) && o.ContainsAll(s)
}

// Sorted returns the elements in increasing order.
func (s AttrSet) Sorted() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, i*wordBits+bits.TrailingZeros64(w))
		}
	}
	return out
}

// Clone returns a copy of the set.
func (s AttrSet) Clone() AttrSet {
	return append(AttrSet{}, s...)
}

// FullAttrSet returns the set of every attribute of a width-wide schema.
func FullAttrSet(width int) AttrSet {
	s := attrSetFor(width)
	for i := range s {
		s[i] = ^uint64(0)
	}
	if r := width % wordBits; r != 0 {
		s[len(s)-1] = 1<<r - 1
	}
	return s
}

// DirectImpact returns I(q), the attributes a query writes (Definition 7).
// INSERT and DELETE touch every attribute of the affected tuples: an
// insert determines all values of the new tuple, a delete removes them.
func DirectImpact(q Query, width int) AttrSet {
	switch v := q.(type) {
	case *Update:
		s := attrSetFor(width)
		for _, sc := range v.Set {
			s.Add(sc.Attr)
		}
		return s
	case *Insert, *Delete:
		return FullAttrSet(width)
	}
	return attrSetFor(width)
}

// Dependency returns P(q), the attributes a query's condition reads
// (Definition 7). SET-clause expression inputs are also included: an
// error in a query can propagate through "SET a = b + 5" reads as well,
// and treating them as dependencies keeps the causal read-write chain of
// §5.2 sound for relative SET clauses. The result is never nil.
func Dependency(q Query) AttrSet {
	s := AttrSet{}
	switch v := q.(type) {
	case *Update:
		s.Add(CondAttrs(v.Where, nil)...)
		for _, sc := range v.Set {
			s.Add(sc.Expr.Attrs(nil)...)
		}
	case *Delete:
		s.Add(CondAttrs(v.Where, nil)...)
	}
	return s
}
