// Package grid provides the counting engine for subspace cubes: one
// bitmap per (dimension, range) pair, so that the number of records
// inside a k-dimensional cube — the n(D) of Equation 1 — is the
// cardinality of a k-way bitmap intersection, O(k·N/64) with no
// allocation.
//
// The index also supports incremental extension counting (given the
// record set of a partial cube, the count after constraining one more
// dimension), which is the inner loop of the optimized crossover's
// greedy phase (§2.2), and exposes the sparsity coefficient directly.
package grid

import (
	"fmt"

	"hido/internal/bitset"
	"hido/internal/cube"
	"hido/internal/discretize"
	"hido/internal/fanout"
	"hido/internal/stats"
)

// Index is an immutable bitmap index over a fitted grid.
type Index struct {
	N, D, Phi int
	// sets[j·Phi+r-1] holds the records whose dimension-j attribute
	// falls in range r. Records missing attribute j appear in no bitmap
	// of dimension j. All D·Phi bitmaps share one backing array.
	sets []bitset.Set
}

// Build constructs the index from a grid bound to its records (Fit or
// Apply; a FromCuts grid gives an index over no records). It reads the
// values and the cuts directly: rows are split into blocks of whole
// 64-record words, one block per GOMAXPROCS worker, so every bitmap
// word has exactly one writer and the index is identical at every pool
// size. Within a word each value's bit is ORed into a contiguous D·Phi
// word scratch, which is stored into the bitmaps once per word instead
// of touching D·Phi cache lines per record.
func Build(g *discretize.Grid) *Index {
	ix := &Index{N: g.N, D: g.D, Phi: g.Phi, sets: bitset.NewMany(g.N, g.D*g.Phi)}
	if g.N == 0 {
		return ix
	}
	ds, n, phi, nc := g.Data(), g.N, g.Phi, g.Phi-1
	cuts := g.AppendCuts(make([]float64, 0, g.D*nc))
	fanout.Blocks((n+63)/64, fanout.Workers(-1), func(lo, hi int) {
		acc := make([]uint64, g.D*phi)
		for w := lo; w < hi; w++ {
			for i := w * 64; i < min(w*64+64, n); i++ {
				bit := uint64(1) << (uint(i) % 64)
				for j, v := range ds.RowView(i) {
					r := rangeIndex(cuts[j*nc:j*nc+nc], v)
					// A missing value's search ends at Phi-1; its bit is
					// masked off instead of branched around.
					acc[j*phi+r] |= bit & -uint64(b2i(v == v))
				}
			}
			for k, a := range acc {
				ix.sets[k].SetWord(w, a)
				acc[k] = 0
			}
		}
	})
	return ix
}

// rangeIndex returns the 0-based range of v under ascending cuts: the
// number of leading cuts below v. It is a branch-free lower bound whose
// step count depends only on len(cuts), stepping right iff
// !(cuts[m] >= v), so a NaN v lands past every cut (callers mask it
// off). On every ascending cut list that is NaN-free or all NaN it
// equals discretize's per-value bisection minus one; FromCuts and Fit
// produce no other kind.
func rangeIndex(cuts []float64, v float64) int {
	base, n := 0, len(cuts)
	for n > 1 {
		half := n >> 1
		base += half * b2i(!(cuts[base+half] >= v))
		n -= half
	}
	return base + b2i(!(cuts[base] >= v))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RangeSet returns the bitmap of records in range r (1-based) of
// dimension j. The returned set is shared; callers must not mutate it.
func (ix *Index) RangeSet(j int, r uint16) *bitset.Set {
	if j < 0 || j >= ix.D {
		panic(fmt.Sprintf("grid: dimension %d out of range [0,%d)", j, ix.D))
	}
	if r < 1 || int(r) > ix.Phi {
		panic(fmt.Sprintf("grid: range %d out of [1,%d]", r, ix.Phi))
	}
	return &ix.sets[j*ix.Phi+int(r)-1]
}

// gather collects the bitmaps of a cube's constraints into buf.
func (ix *Index) gather(c cube.Cube, buf []*bitset.Set) []*bitset.Set {
	if len(c) != ix.D {
		panic(fmt.Sprintf("grid: cube over %d dims, index over %d", len(c), ix.D))
	}
	for j, r := range c {
		if r != cube.DontCare {
			buf = append(buf, ix.RangeSet(j, r))
		}
	}
	return buf
}

// gatherKey is gather for a cube given by its cube.Key: it reads only
// the key's (dimension, range) pairs.
func (ix *Index) gatherKey(key string, buf []*bitset.Set) []*bitset.Set {
	for key != "" {
		p, n := cube.DecodeKeyPair(key)
		if n <= 0 {
			panic(fmt.Sprintf("grid: malformed cube key %q", key))
		}
		buf = append(buf, ix.RangeSet(p.Dim, p.Range))
		key = key[n:]
	}
	return buf
}

// count is the one counting kernel: the cardinality of the gathered
// bitmaps' intersection, every record when there are none.
func (ix *Index) count(sets []*bitset.Set) int {
	if len(sets) == 0 {
		return ix.N
	}
	return bitset.IntersectCountMany(sets)
}

// Count returns the number of records inside the cube. An
// all-DontCare cube counts every record.
func (ix *Index) Count(c cube.Cube) int {
	var buf [8]*bitset.Set
	return ix.count(ix.gather(c, buf[:0]))
}

// CountKey is Count for the cube whose cube.Key is key, read in O(k)
// from the key's pairs instead of O(d) from a dense cube.
func (ix *Index) CountKey(key string) int {
	var buf [8]*bitset.Set
	return ix.count(ix.gatherKey(key, buf[:0]))
}

// Cover returns the records inside the cube as a fresh bitmap.
func (ix *Index) Cover(c cube.Cube) *bitset.Set {
	var buf [8]*bitset.Set
	sets := ix.gather(c, buf[:0])
	out := bitset.New(ix.N)
	if len(sets) == 0 {
		out.Fill()
		return out
	}
	bitset.IntersectInto(out, sets)
	return out
}

// CoverInto stores the cube's record set into dst (capacity N) and
// returns its cardinality.
func (ix *Index) CoverInto(dst *bitset.Set, c cube.Cube) int {
	var buf [8]*bitset.Set
	sets := ix.gather(c, buf[:0])
	if len(sets) == 0 {
		dst.Fill()
		return ix.N
	}
	return bitset.IntersectInto(dst, sets)
}

// ExtendCount returns |partial ∩ range(j, r)|: the cube count after
// adding one more constraint to a partial cube whose record set is
// already known. This is the greedy-crossover inner loop.
func (ix *Index) ExtendCount(partial *bitset.Set, j int, r uint16) int {
	return partial.IntersectCount(ix.RangeSet(j, r))
}

// Sparsity returns the sparsity coefficient (Equation 1) of the cube,
// treating the cube's own K as the projection dimensionality. An
// all-DontCare cube has no dimensionality; it returns 0.
func (ix *Index) Sparsity(c cube.Cube) float64 {
	k := c.K()
	if k == 0 {
		return 0
	}
	return stats.Sparsity(ix.Count(c), ix.N, k, ix.Phi)
}

// SparsityOf converts a raw count into the sparsity coefficient at
// projection dimensionality k under this index's N and Phi.
func (ix *Index) SparsityOf(n, k int) float64 {
	return stats.Sparsity(n, ix.N, k, ix.Phi)
}

// NaiveCount scans the grid's records directly, without bitmaps,
// assigning each one's constrained positions from its values: O(N·k)
// for a cube with k constraints. It is the correctness oracle for
// Count in tests and the baseline in the counting-backend ablation.
func NaiveCount(g *discretize.Grid, c cube.Cube) int {
	if len(c) != g.D {
		panic(fmt.Sprintf("grid: cube over %d dims, grid over %d", len(c), g.D))
	}
	dims := c.Dims()
	n := 0
	for i := 0; i < g.N; i++ {
		in := true
		for _, j := range dims {
			if g.Cell(i, j) != c[j] {
				in = false
				break
			}
		}
		n += b2i(in)
	}
	return n
}

// MemoryBytes reports the approximate bitmap storage, for capacity
// planning: D·Phi bitmaps of N bits.
func (ix *Index) MemoryBytes() int {
	words := (ix.N + 63) / 64
	return ix.D * ix.Phi * words * 8
}
