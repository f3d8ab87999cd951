// Package discretize builds the grid over which sparse subspace cubes
// are mined (§1.3 of the paper). Each attribute is divided into φ
// ranges; with equi-depth ranges (the paper's choice) each range holds
// a fraction f = 1/φ of the records, so that locality adapts to the
// data's density. Equi-width ranges are provided for the ablation
// study.
//
// A fitted grid is its cut points plus the records it was fitted or
// applied to; no per-record assignment is stored. For record i and
// dimension j, Cell(i, j) is the 1-based range containing the value,
// or 0 when the attribute is missing — missing attributes simply never
// match a constrained cube position, which is what lets the method
// mine data with missing values (§1.2). The bitmap index (package
// grid) is built straight from the records and the cuts.
package discretize

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hido/internal/dataset"
	"hido/internal/fanout"
)

// Method selects the range-construction strategy.
type Method int

const (
	// EquiDepth gives every range an (approximately) equal number of
	// records per dimension — the paper's choice.
	EquiDepth Method = iota
	// EquiWidth gives every range an equal share of the value span.
	EquiWidth
)

func (m Method) String() string {
	switch m {
	case EquiDepth:
		return "equi-depth"
	case EquiWidth:
		return "equi-width"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Grid is a fitted discretization: per-dimension cut points, bound to
// the N records they were fitted or applied to.
type Grid struct {
	Phi    int
	N, D   int
	Method Method
	// cuts[j] holds phi-1 ascending boundaries for dimension j: value v
	// falls in range r (1-based) iff cuts[r-2] < v <= cuts[r-1] with the
	// conventions cuts[-1] = -inf, cuts[phi-1] = +inf.
	cuts [][]float64
	// data holds the records Fit or Apply bound the grid to, nil for
	// FromCuts. Their cells are assigned from the values on demand, so
	// the dataset must not change while the grid is in use.
	data *dataset.Dataset
}

// Fit places phi ranges per dimension over the dataset and binds the
// grid to it. phi must be at least 2 and fit in uint16. Columns are
// independent, so their cuts are placed on a pool of GOMAXPROCS
// workers, each with one column buffer reused across its block of
// dimensions; the grid is identical at every pool size.
func Fit(ds *dataset.Dataset, phi int, method Method) *Grid {
	if phi < 2 || phi > math.MaxUint16 {
		panic(fmt.Sprintf("discretize: phi=%d out of range [2,%d]", phi, math.MaxUint16))
	}
	if ds.N() == 0 || ds.D() == 0 {
		panic("discretize: empty dataset")
	}
	g := &Grid{
		Phi:    phi,
		N:      ds.N(),
		D:      ds.D(),
		Method: method,
		cuts:   make([][]float64, ds.D()),
		data:   ds,
	}
	if method != EquiDepth && method != EquiWidth {
		panic("discretize: unknown method")
	}
	fanout.Blocks(g.D, fanout.Workers(-1), func(lo, hi int) {
		col := make([]float64, 0, g.N)
		for j := lo; j < hi; j++ {
			col = ds.AppendColumn(col[:0], j)
			if method == EquiDepth {
				g.cuts[j] = equiDepthCuts(col, phi)
			} else {
				g.cuts[j] = equiWidthCuts(col, phi)
			}
		}
	})
	return g
}

// equiDepthCuts places boundaries at the q = r/phi quantiles of the
// non-missing values. Ties in the data can make some ranges larger
// than N/phi and others empty; this mirrors how equi-depth histograms
// behave on discrete-valued attributes. It reorders col: the
// non-missing values are moved to its front and partially sorted
// there.
func equiDepthCuts(col []float64, phi int) []float64 {
	clean := col[:0]
	for _, v := range col {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	cuts := make([]float64, phi-1)
	n := len(clean)
	if n == 0 {
		// All missing: boundaries are irrelevant; every cell is 0.
		for i := range cuts {
			cuts[i] = math.Inf(1)
		}
		return finiteCuts(cuts)
	}
	// Boundary r sits at the ceil(r·n/phi)-th order statistic, so each
	// of the phi ranges receives floor-or-ceil of n/phi records. The
	// ranks are non-decreasing in r, so one multi-selection places them
	// all without sorting the column.
	ranks := make([]int, phi-1)
	for r := 1; r < phi; r++ {
		idx := (r*n + phi - 1) / phi // ceil(r·n/phi)
		ranks[r-1] = min(max(idx, 1), n) - 1
	}
	selectRanks(clean, 0, ranks, 2*bits.Len(uint(n)))
	for i, k := range ranks {
		cuts[i] = clean[k]
	}
	return finiteCuts(cuts)
}

// selectRanks reorders xs, a window of a NaN-free column starting at
// rank off, so that the value a full sort would put at each rank in
// ks (ascending, duplicates allowed) lands there: quickselect with a
// three-way partition that descends only into the sides still holding
// a wanted rank. Past depth partitions it sorts the window, which
// bounds the worst case at O(n log n).
func selectRanks(xs []float64, off int, ks []int, depth int) {
	for len(ks) > 0 {
		if len(xs) <= 16 || depth == 0 {
			slices.Sort(xs)
			return
		}
		depth--
		lt, gt := partition3(xs, medianOf3(xs[0], xs[len(xs)/2], xs[len(xs)-1]))
		// xs[:lt] < pivot ≤ xs[lt:gt] ≤ pivot < xs[gt:]: the ranks in the
		// middle band already hold their values.
		i, _ := slices.BinarySearch(ks, off+lt)
		j, _ := slices.BinarySearch(ks, off+gt)
		selectRanks(xs[:lt], off, ks[:i], depth)
		xs, off, ks = xs[gt:], off+gt, ks[j:]
	}
}

// partition3 reorders xs around p into values below, equal to and
// above it, returning the bounds of the equal band. Each pass is a
// branch-free Lomuto sweep: every element is swapped into place and
// the boundary advances by the comparison's outcome, so shuffled data
// costs no branch mispredictions.
func partition3(xs []float64, p float64) (lt, gt int) {
	for i, v := range xs {
		xs[i], xs[lt] = xs[lt], v
		lt += b2i(v < p)
	}
	gt = lt
	for i := lt; i < len(xs); i++ {
		v := xs[i]
		xs[i], xs[gt] = xs[gt], v
		gt += b2i(v <= p)
	}
	return lt, gt
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// finiteCuts clamps cuts into [-MaxFloat64, MaxFloat64] in place and
// returns them. An all-missing column's cuts (+Inf by convention) and
// the order statistics of a column whose tail is ±Inf would otherwise
// be infinite, which model JSON cannot encode and stream.Load rejects.
// Every finite value except -MaxFloat64 itself keeps its range.
func finiteCuts(cuts []float64) []float64 {
	for i, c := range cuts {
		cuts[i] = max(-math.MaxFloat64, min(c, math.MaxFloat64))
	}
	return cuts
}

// equiWidthCuts splits [min, max] into phi equal-width intervals.
func equiWidthCuts(col []float64, phi int) []float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range col {
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	cuts := make([]float64, phi-1)
	if math.IsInf(min, 1) || min == max {
		// All missing or constant: single effective range.
		for i := range cuts {
			cuts[i] = math.Inf(1)
		}
		return cuts
	}
	w := (max - min) / float64(phi)
	for r := 1; r < phi; r++ {
		cuts[r-1] = min + w*float64(r)
	}
	return cuts
}

// Apply binds a dataset to externally fitted cut points. This is the
// shard-side half of a distributed fit — the coordinator computes
// global cuts over the concatenated data, and each shard applies them
// to its rows, so the shards' cells concatenate to exactly what a
// single-node Fit over all rows would have produced. The cuts contract
// matches FromCuts: phi−1 ascending boundaries per dimension.
func Apply(ds *dataset.Dataset, phi int, cuts [][]float64) *Grid {
	if ds.N() == 0 || ds.D() == 0 {
		panic("discretize: empty dataset")
	}
	if len(cuts) != ds.D() {
		panic(fmt.Sprintf("discretize: %d cut dimensions for a %d-dimensional dataset", len(cuts), ds.D()))
	}
	g := FromCuts(phi, cuts)
	g.N, g.data = ds.N(), ds
	return g
}

// FromCuts reconstructs a grid from previously fitted cut points —
// the deserialization path for persisted models. The grid is bound to
// no records (N = 0): Cell and CellsRow are unavailable, but
// AssignValue, AssignRow, RangeBounds and DescribeRange work exactly
// as on the original. Each dimension must supply phi−1 ascending cuts,
// none of them NaN.
func FromCuts(phi int, cuts [][]float64) *Grid {
	if phi < 2 || phi > math.MaxUint16 {
		panic(fmt.Sprintf("discretize: phi=%d out of range [2,%d]", phi, math.MaxUint16))
	}
	if len(cuts) == 0 {
		panic("discretize: FromCuts with no dimensions")
	}
	for j, c := range cuts {
		if len(c) != phi-1 {
			panic(fmt.Sprintf("discretize: dimension %d has %d cuts, want %d", j, len(c), phi-1))
		}
		for i, v := range c {
			if math.IsNaN(v) || i > 0 && v < c[i-1] {
				panic(fmt.Sprintf("discretize: dimension %d cuts not ascending", j))
			}
		}
	}
	g := &Grid{Phi: phi, N: 0, D: len(cuts), Method: EquiDepth}
	g.cuts = copyCuts(cuts)
	return g
}

// copyCuts deep-copies a cut table into one backing array, so a copy
// costs two allocations at any dimensionality.
func copyCuts(cuts [][]float64) [][]float64 {
	n := 0
	for _, c := range cuts {
		n += len(c)
	}
	flat := make([]float64, 0, n)
	out := make([][]float64, len(cuts))
	for j, c := range cuts {
		flat = append(flat, c...)
		out[j] = flat[len(flat)-len(c) : len(flat) : len(flat)]
	}
	return out
}

// AllCuts returns every dimension's boundaries as a deep copy — the
// serialization counterpart of FromCuts.
func (g *Grid) AllCuts() [][]float64 {
	return copyCuts(g.cuts)
}

// AppendCuts appends every dimension's boundaries to dst in dimension
// order, phi−1 per dimension, and returns the extended slice — one
// flat table for callers that search many dimensions' cuts in turn.
func (g *Grid) AppendCuts(dst []float64) []float64 {
	for _, c := range g.cuts {
		dst = append(dst, c...)
	}
	return dst
}

// Data returns the records the grid is bound to: the dataset given to
// Fit or Apply, nil for FromCuts.
func (g *Grid) Data() *dataset.Dataset { return g.data }

// AssignValue maps an arbitrary value (not necessarily from the
// fitted data) to its 1-based range in dimension j, or 0 for NaN.
// This is how records that arrive after fitting — a scoring stream —
// are placed on the existing grid.
func (g *Grid) AssignValue(j int, v float64) uint16 {
	if j < 0 || j >= g.D {
		panic(fmt.Sprintf("discretize: AssignValue(%d) out of range [0,%d)", j, g.D))
	}
	return g.assign(j, v)
}

// AssignRow maps a full record onto the grid, one range per dimension
// (0 where the attribute is missing). The result slice is freshly
// allocated.
func (g *Grid) AssignRow(row []float64) []uint16 {
	return g.AssignRowInto(row, make([]uint16, g.D))
}

// AssignRowInto is AssignRow writing into a caller-owned slice of
// length D — the allocation-free form the serving hot path uses with
// per-worker scratch. It returns out.
func (g *Grid) AssignRowInto(row []float64, out []uint16) []uint16 {
	if len(row) != g.D {
		panic(fmt.Sprintf("discretize: AssignRow with %d values, want %d", len(row), g.D))
	}
	if len(out) != g.D {
		panic(fmt.Sprintf("discretize: AssignRowInto scratch has %d cells, want %d", len(out), g.D))
	}
	for j, v := range row {
		out[j] = g.assign(j, v)
	}
	return out
}

// assign maps value v in dimension j to its 1-based range; 0 for NaN.
func (g *Grid) assign(j int, v float64) uint16 {
	if math.IsNaN(v) {
		return 0
	}
	// First range whose upper boundary is >= v; values above every cut
	// land in range phi. A value exactly equal to a boundary belongs to
	// the lower range, which cuts[h] >= v includes. This is
	// sort.SearchFloat64s inlined, bisection for bisection: with NaN
	// cuts (equi-width over an infinite span) the predicate is not
	// monotone, and only the same predicate and midpoints keep every
	// cell where the sort package put it. The step is branch-free:
	// which half a record falls in is unpredictable, so a branch would
	// mispredict on about every other step.
	cuts := g.cuts[j]
	i, n := 0, len(cuts)
	for i < n {
		h := int(uint(i+n) >> 1)
		ge := b2i(cuts[h] >= v)
		i += (1 - ge) * (h + 1 - i) // cuts[h] < v: i = h+1
		n -= ge * (n - h)           // cuts[h] >= v: n = h
	}
	return uint16(i + 1)
}

// Cell returns the 1-based range of record i in dimension j, or 0 when
// the attribute is missing, assigned from the record's value.
func (g *Grid) Cell(i, j int) uint16 {
	if i < 0 || i >= g.N || j < 0 || j >= g.D {
		panic(fmt.Sprintf("discretize: Cell(%d,%d) out of range %dx%d", i, j, g.N, g.D))
	}
	return g.assign(j, g.data.RowView(i)[j])
}

// CellsRow returns record i's assignment vector as a fresh slice.
func (g *Grid) CellsRow(i int) []uint16 {
	if i < 0 || i >= g.N {
		panic(fmt.Sprintf("discretize: CellsRow(%d) out of range [0,%d)", i, g.N))
	}
	return g.AssignRow(g.data.RowView(i))
}

// Cuts returns dimension j's boundaries (phi-1 ascending values) as a
// copy.
func (g *Grid) Cuts(j int) []float64 {
	if j < 0 || j >= g.D {
		panic(fmt.Sprintf("discretize: Cuts(%d) out of range [0,%d)", j, g.D))
	}
	return append([]float64(nil), g.cuts[j]...)
}

// RangeBounds returns the half-open value interval (lo, hi] covered by
// range r (1-based) of dimension j, using ±inf at the extremes.
func (g *Grid) RangeBounds(j int, r uint16) (lo, hi float64) {
	if r < 1 || int(r) > g.Phi {
		panic(fmt.Sprintf("discretize: RangeBounds range %d out of [1,%d]", r, g.Phi))
	}
	cuts := g.cuts[j]
	if r == 1 {
		lo = math.Inf(-1)
	} else {
		lo = cuts[r-2]
	}
	if int(r) == g.Phi {
		hi = math.Inf(1)
	} else {
		hi = cuts[r-1]
	}
	return lo, hi
}

// RangeCounts returns, for dimension j, the number of records assigned
// to each of the phi ranges (index 0 ↦ range 1) plus the number of
// missing entries.
func (g *Grid) RangeCounts(j int) (counts []int, missing int) {
	counts = make([]int, g.Phi)
	for i := 0; i < g.N; i++ {
		c := g.Cell(i, j)
		if c == 0 {
			missing++
		} else {
			counts[c-1]++
		}
	}
	return counts, missing
}

// DescribeRange renders range r of dimension j with its value bounds,
// e.g. "crime∈(0.25,1.63]"; used to report interpretable projections
// as in the paper's housing study.
func (g *Grid) DescribeRange(name string, j int, r uint16) string {
	lo, hi := g.RangeBounds(j, r)
	return fmt.Sprintf("%s∈(%.4g,%.4g]", name, lo, hi)
}
