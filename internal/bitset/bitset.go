// Package bitset provides dense, fixed-capacity bitmaps used as the
// counting substrate for subspace cube queries.
//
// A Set is a slice of 64-bit words. All sets participating in a binary
// operation must have been created with the same capacity; this is the
// invariant maintained by the grid index, which owns one Set per
// (dimension, range) pair over a fixed number of records.
//
// The performance-critical operations are IntersectCount (cardinality
// of an AND without materializing it) and IntersectCountWith (the same
// against a scratch accumulator), because the sparsity coefficient of a
// k-dimensional cube is computed as the cardinality of the intersection
// of k per-range bitmaps.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitmap. The zero value is an empty set of
// capacity zero; use New to create a set with room for n bits.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for bits 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewMany returns count empty sets with capacity for bits 0..n-1 each,
// all backed by one array, so a family of same-sized bitmaps costs two
// allocations instead of two per set.
func NewMany(n, count int) []Set {
	if n < 0 || count < 0 {
		panic("bitset: negative capacity")
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, w*count)
	sets := make([]Set, count)
	for k := range sets {
		sets[k] = Set{words: words[k*w : (k+1)*w : (k+1)*w], n: n}
	}
	return sets
}

// FromIndices returns a set of capacity n with the given bits set.
// Indices out of range cause a panic.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Set(i)
	}
	return s
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Set(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// SetWord stores w as bits 64·i .. 64·i+63, the word-at-a-time form of
// Set for callers that assemble a whole word first. Bits at or past
// the capacity are dropped. It panics if word i is out of range.
func (s *Set) SetWord(i int, w uint64) {
	if i == len(s.words)-1 {
		if rem := s.n % wordBits; rem != 0 {
			w &= 1<<uint(rem) - 1
		}
	}
	s.words[i] = w
}

// Clear clears bit i. It panics if i is out of range.
func (s *Set) Clear(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Clear(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Test(%d) out of range [0,%d)", i, s.n))
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears every bit, keeping the capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in 0..n-1.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim clears the unused bits of the last word so Count stays exact.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o. The capacities must match.
func (s *Set) CopyFrom(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// And replaces s with s AND o.
func (s *Set) And(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// Or replaces s with s OR o.
func (s *Set) Or(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// AndNot replaces s with s AND NOT o.
func (s *Set) AndNot(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Xor replaces s with s XOR o.
func (s *Set) Xor(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] ^= w
	}
}

// AndFrom stores a AND b into s and returns the resulting
// cardinality, in a single pass over the words — the fused form of
// CopyFrom + And + Count used at the interior levels of the
// brute-force enumeration, where the count feeds the coverage-pruning
// decision. All three sets must share a capacity; s may alias a or b.
func (s *Set) AndFrom(a, b *Set) int {
	s.mustMatch(a)
	s.mustMatch(b)
	c := 0
	for i, w := range a.words {
		w &= b.words[i]
		s.words[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectCount returns |s AND o| without allocating.
func (s *Set) IntersectCount(o *Set) int {
	s.mustMatch(o)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// Equal reports whether s and o have the same capacity and contents.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the positions of all set bits in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn with the index of every set bit in increasing order.
// It stops early if fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1
// if there is none.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as a compact list of indices, for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// IntersectCountMany returns the cardinality of the intersection of all
// the given sets. With zero sets it returns 0. All sets must share a
// capacity. The loop is arranged word-major so each 64-record block is
// resolved with one pass over the sets, which keeps the working set in
// cache for large N.
func IntersectCountMany(sets []*Set) int {
	switch len(sets) {
	case 0:
		return 0
	case 1:
		return sets[0].Count()
	case 2:
		return sets[0].IntersectCount(sets[1])
	}
	first := sets[0]
	for _, o := range sets[1:] {
		first.mustMatch(o)
	}
	c := 0
	for wi := range first.words {
		w := first.words[wi]
		if w == 0 {
			continue
		}
		for _, o := range sets[1:] {
			w &= o.words[wi]
			if w == 0 {
				break
			}
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectInto stores the intersection of all sets into dst and
// returns its cardinality. dst must share the sets' capacity and may
// alias one of them. With zero sets, dst is reset and 0 is returned.
func IntersectInto(dst *Set, sets []*Set) int {
	if len(sets) == 0 {
		dst.Reset()
		return 0
	}
	dst.CopyFrom(sets[0])
	for _, o := range sets[1:] {
		dst.And(o)
	}
	return dst.Count()
}
