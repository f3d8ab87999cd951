// Package cube defines the dense encoding of subspace grid cubes —
// the "strings" of the paper's evolutionary algorithm (§2.2).
//
// A Cube has one position per data dimension. Position values are
// DontCare (0, printed as '*') or a grid range 1..φ. The number of
// non-DontCare positions is the cube's dimensionality k; the paper's
// example "*3*9" is a 2-dimensional cube over a 4-dimensional data
// set. Cubes double as GA genomes and as query descriptors for the
// grid index.
package cube

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// DontCare marks a position not constrained by the cube.
const DontCare uint16 = 0

// Cube is a dense subspace descriptor: len(Cube) = data dimensionality
// d; each entry is DontCare or a 1-based grid range.
type Cube []uint16

// New returns an all-DontCare cube over d dimensions.
func New(d int) Cube {
	if d <= 0 {
		panic("cube: New with non-positive dimensionality")
	}
	return make(Cube, d)
}

// FromPairs returns a cube over d dimensions with the given
// (dimension, range) constraints. Ranges are 1-based; dimensions are
// 0-based. Duplicate dimensions or out-of-range values panic.
func FromPairs(d int, pairs ...DimRange) Cube {
	c := New(d)
	for _, p := range pairs {
		if p.Dim < 0 || p.Dim >= d {
			panic(fmt.Sprintf("cube: dimension %d out of range [0,%d)", p.Dim, d))
		}
		if p.Range == DontCare {
			panic("cube: FromPairs with DontCare range")
		}
		if c[p.Dim] != DontCare {
			panic(fmt.Sprintf("cube: duplicate dimension %d", p.Dim))
		}
		c[p.Dim] = p.Range
	}
	return c
}

// DimRange is one (dimension, grid range) constraint.
type DimRange struct {
	Dim   int
	Range uint16 // 1-based
}

// Dims returns the constrained dimensions in increasing order.
func (c Cube) Dims() []int {
	return c.AppendDims(make([]int, 0, 4))
}

// AppendDims appends the constrained dimensions, in increasing order,
// to dst and returns the extended slice.
func (c Cube) AppendDims(dst []int) []int {
	for j, v := range c {
		if v != DontCare {
			dst = append(dst, j)
		}
	}
	return dst
}

// Pairs returns the constraints in dimension order.
func (c Cube) Pairs() []DimRange {
	out := make([]DimRange, 0, 4)
	for j, v := range c {
		if v != DontCare {
			out = append(out, DimRange{Dim: j, Range: v})
		}
	}
	return out
}

// K returns the cube's dimensionality (number of constrained positions).
func (c Cube) K() int {
	k := 0
	for _, v := range c {
		if v != DontCare {
			k++
		}
	}
	return k
}

// Clone returns a copy.
func (c Cube) Clone() Cube {
	out := make(Cube, len(c))
	copy(out, c)
	return out
}

// Equal reports deep equality.
func (c Cube) Equal(o Cube) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every constrained range lies in 1..phi.
func (c Cube) Valid(phi int) bool {
	for _, v := range c {
		if v != DontCare && int(v) > phi {
			return false
		}
	}
	return true
}

// With returns a copy with dimension dim set to rng (may be DontCare
// to release the dimension).
func (c Cube) With(dim int, rng uint16) Cube {
	out := c.Clone()
	out[dim] = rng
	return out
}

// Covers reports whether a record's cell assignment matches every
// constrained position. cells[j] is the record's 1-based range in
// dimension j, or 0 when the attribute is missing; a missing attribute
// never matches, so records lacking a constrained attribute are not
// covered (the conservative reading of §1.2).
func (c Cube) Covers(cells []uint16) bool {
	for j, v := range c {
		if v != DontCare && cells[j] != v {
			return false
		}
	}
	return true
}

// Contains reports whether every constraint of o is also a constraint
// of c (same dimension, same range) — o's region is a superset of
// c's, so any record covered by c is covered by o. An all-DontCare o
// is contained in everything.
func (c Cube) Contains(o Cube) bool {
	if len(c) != len(o) {
		return false
	}
	for j, v := range o {
		if v != DontCare && c[j] != v {
			return false
		}
	}
	return true
}

// Key returns the cube's identity as a compact binary string: the
// constrained (dimension, range) pairs in dimension order, each value
// a uvarint. Uvarints are self-delimiting, so the key is injective over
// the cubes of one dimensionality at any d and φ, and its length grows
// with k, not with d. It is the one map key every memo and best set
// shares; render cubes for people with String.
func (c Cube) Key() string {
	var buf [32]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends the cube's Key bytes to dst and returns the
// extended slice, the allocation-free form for callers that keep a
// buffer.
func (c Cube) AppendKey(dst []byte) []byte {
	for j, v := range c {
		if v != DontCare {
			dst = appendKeyPair(dst, j, v)
		}
	}
	return dst
}

// AppendKeyAt is AppendKey for a caller that holds the cube's
// constrained dimensions in increasing order (AppendDims): it reads
// only those positions, O(k) instead of O(d).
func (c Cube) AppendKeyAt(dst []byte, dims []int) []byte {
	for _, j := range dims {
		dst = appendKeyPair(dst, j, c[j])
	}
	return dst
}

func appendKeyPair(dst []byte, j int, v uint16) []byte {
	dst = binary.AppendUvarint(dst, uint64(j))
	return binary.AppendUvarint(dst, uint64(v))
}

// DecodeKeyPair decodes the first (dimension, range) pair of a Key
// and returns it with the number of key bytes it took. n is 0 when key
// is empty and negative when its first pair is malformed. Decoding a
// whole key is a loop over key[n:] until it is empty.
func DecodeKeyPair(key string) (p DimRange, n int) {
	if key == "" {
		return DimRange{}, 0
	}
	dim, n1 := keyUvarint(key)
	if n1 <= 0 {
		return DimRange{}, -1
	}
	v, n2 := keyUvarint(key[n1:])
	if n2 <= 0 || v == uint64(DontCare) || v > uint64(^uint16(0)) || dim > uint64(^uint(0)>>1) {
		return DimRange{}, -1
	}
	return DimRange{Dim: int(dim), Range: uint16(v)}, n1 + n2
}

// keyUvarint is binary.Uvarint over a string, so a key held as a map
// key decodes without a copy.
func keyUvarint(s string) (uint64, int) {
	var x uint64
	var shift uint
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -1 // overflows 64 bits
			}
			return x | uint64(b)<<shift, i + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, -1
}

// String renders the paper's notation: '*' for DontCare, the range
// number otherwise, one position per dimension separated by dots when
// any range exceeds 9 (so "*3*9" stays readable for small φ).
func (c Cube) String() string {
	wide := false
	for _, v := range c {
		if v > 9 {
			wide = true
			break
		}
	}
	var b strings.Builder
	for i, v := range c {
		if wide && i > 0 {
			b.WriteByte('.')
		}
		if v == DontCare {
			b.WriteByte('*')
		} else {
			b.WriteString(strconv.Itoa(int(v)))
		}
	}
	return b.String()
}

// Parse parses the String form (with or without dots). Dot-free
// strings are read one position per character, the paper's notation;
// consequently a single-position cube whose range exceeds 9 is only
// round-trippable through the dotted form. It returns an error on
// malformed input.
func Parse(s string) (Cube, error) {
	if s == "" {
		return nil, fmt.Errorf("cube: empty string")
	}
	var toks []string
	if strings.Contains(s, ".") {
		toks = strings.Split(s, ".")
	} else {
		toks = make([]string, len(s))
		for i, r := range s {
			toks[i] = string(r)
		}
	}
	c := make(Cube, len(toks))
	for i, tok := range toks {
		if tok == "*" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil || v < 1 || v > int(^uint16(0)) {
			return nil, fmt.Errorf("cube: bad position %q in %q", tok, s)
		}
		c[i] = uint16(v)
	}
	return c, nil
}

// Enumerate calls fn with every cube of dimensionality k over d
// dimensions and phi ranges, in lexicographic order of (dims, ranges).
// fn must not retain the cube across calls. Enumerate stops early if
// fn returns false. This is the brute-force candidate space R_k of
// Figure 2; its size is C(d,k)·phi^k.
func Enumerate(d, k, phi int, fn func(Cube) bool) {
	if k <= 0 || k > d {
		panic(fmt.Sprintf("cube: Enumerate with k=%d, d=%d", k, d))
	}
	if phi < 2 {
		panic("cube: Enumerate with phi < 2")
	}
	c := New(d)
	dims := make([]int, k)
	var rec func(pos, start int) bool
	rec = func(pos, start int) bool {
		if pos == k {
			return fn(c)
		}
		for j := start; j <= d-(k-pos); j++ {
			dims[pos] = j
			for r := 1; r <= phi; r++ {
				c[j] = uint16(r)
				if !rec(pos+1, j+1) {
					c[j] = DontCare
					return false
				}
			}
			c[j] = DontCare
		}
		return true
	}
	rec(0, 0)
}

// SpaceSize returns C(d,k)·phi^k, the number of k-dimensional cubes,
// saturating at MaxInt64 on overflow. §3 of the paper computes
// 7·10⁷ for d=20, k=4, phi=10 to argue brute force is untenable.
func SpaceSize(d, k, phi int) uint64 {
	if k < 0 || k > d {
		return 0
	}
	const max = ^uint64(0)
	// binomial with overflow saturation
	binom := uint64(1)
	for i := 0; i < k; i++ {
		num := uint64(d - i)
		if binom > max/num {
			return max
		}
		binom = binom * num / uint64(i+1)
	}
	out := binom
	for i := 0; i < k; i++ {
		if out > max/uint64(phi) {
			return max
		}
		out *= uint64(phi)
	}
	return out
}
