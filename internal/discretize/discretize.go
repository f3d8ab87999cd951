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

// CheckPhi reports whether phi is a usable grid resolution: at least
// two ranges per dimension, and few enough that a range number fits
// the uint16 cells of a cube. Every fit, grid and model check of φ
// goes through it.
func CheckPhi(phi int) error {
	if phi < 2 || phi > math.MaxUint16 {
		return fmt.Errorf("discretize: phi=%d out of range [2,%d]", phi, math.MaxUint16)
	}
	return nil
}

// Fit places phi ranges per dimension over the dataset and binds the
// grid to it. phi must pass CheckPhi. Columns are independent, so
// their cuts are placed on a pool of GOMAXPROCS workers, each with one
// column buffer and one set of selection scratch reused across its
// block of dimensions, writing into one flat cut table; the grid is
// identical at every pool size.
func Fit(ds *dataset.Dataset, phi int, method Method) *Grid {
	if err := CheckPhi(phi); err != nil {
		panic(err)
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
	flat := make([]float64, g.D*(phi-1))
	for j := range g.cuts {
		g.cuts[j] = flat[j*(phi-1) : (j+1)*(phi-1) : (j+1)*(phi-1)]
	}
	fanout.Blocks(g.D, fanout.Workers(-1), func(lo, hi int) {
		// The column and the selection's copy buffer share one
		// allocation.
		var s selector
		scratch := make([]float64, 2*g.N)
		col := scratch[:0:g.N]
		s.buf = scratch[g.N:]
		for j := lo; j < hi; j++ {
			col = ds.AppendColumn(col[:0], j)
			if method == EquiDepth {
				s.equiDepthCuts(g.cuts[j], col)
			} else {
				equiWidthCuts(g.cuts[j], col)
			}
		}
	})
	return g
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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

// equiWidthCuts writes into cuts the len(cuts) = phi−1 boundaries
// that split [min, max] into phi equal-width intervals.
func equiWidthCuts(cuts, col []float64) {
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
	if math.IsInf(min, 1) || min == max {
		// All missing or constant: single effective range.
		for i := range cuts {
			cuts[i] = math.Inf(1)
		}
		return
	}
	phi := len(cuts) + 1
	w := (max - min) / float64(phi)
	for r := 1; r < phi; r++ {
		cuts[r-1] = min + w*float64(r)
	}
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
	if err := CheckPhi(phi); err != nil {
		panic(err)
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
