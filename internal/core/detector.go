// Package core implements the paper's contribution: outlier detection
// in high-dimensional data by mining abnormally sparse low-dimensional
// grid projections (Aggarwal & Yu, SIGMOD 2001).
//
// A Detector wraps a data set with its grid discretization (§1.3) and
// bitmap index, and exposes the two search algorithms over the space
// of k-dimensional cubes:
//
//   - BruteForce — Figure 2's exhaustive bottom-up enumeration of
//     R_k = R_{k−1} ⊕ Q_1, feasible only for modest d and k.
//   - Evolutionary — Figure 3's genetic search with rank-roulette
//     selection (Figure 4), the problem-specific optimized crossover
//     (Figure 5) or the unbiased two-point baseline, and the two
//     mutation types of Figure 6, terminated by the De Jong
//     convergence criterion.
//
// Both return the m projections with the most negative sparsity
// coefficients (Equation 1) and, per §2.3's postprocessing, the set of
// data points covered by those projections — the outliers.
package core

import (
	"fmt"

	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/grid"
)

// Detector binds a data set to a fitted grid and its bitmap index.
// It is immutable after construction and safe for concurrent searches.
type Detector struct {
	Data  *dataset.Dataset
	Grid  *discretize.Grid
	Index *grid.Index
}

// NewDetector discretizes the data set into phi equi-depth ranges per
// attribute (the paper's construction) and builds the counting index.
func NewDetector(ds *dataset.Dataset, phi int) *Detector {
	return NewDetectorMethod(ds, phi, discretize.EquiDepth)
}

// NewDetectorMethod is NewDetector with an explicit discretization
// method (equi-width exists for the ablation study).
func NewDetectorMethod(ds *dataset.Dataset, phi int, method discretize.Method) *Detector {
	g := discretize.Fit(ds, phi, method)
	return &Detector{Data: ds, Grid: g, Index: grid.Build(g)}
}

// NewDetectorFromGrid binds a dataset to an externally built grid — the
// streaming refit path, where the boundaries come from online quantile
// sketches (discretize.Apply over Sketch.Cuts) instead of the full
// sorted pass Fit performs. The grid must be bound to the dataset
// itself: build it with discretize.Apply, not FromCuts.
func NewDetectorFromGrid(ds *dataset.Dataset, g *discretize.Grid) *Detector {
	if g.N != ds.N() || g.D != ds.D() {
		panic(fmt.Sprintf("core: grid is %dx%d, dataset is %dx%d", g.N, g.D, ds.N(), ds.D()))
	}
	if g.Data() != ds {
		panic("core: grid is bound to another dataset")
	}
	return &Detector{Data: ds, Grid: g, Index: grid.Build(g)}
}

// N returns the number of records.
func (d *Detector) N() int { return d.Grid.N }

// D returns the data dimensionality.
func (d *Detector) D() int { return d.Grid.D }

// Phi returns the grid resolution.
func (d *Detector) Phi() int { return d.Grid.Phi }

func (d *Detector) validateKM(k, m int) error {
	return validateKM(d.D(), k, m)
}

// validateKM is the Detector-free form, used when a search runs over
// an arbitrary CountSource.
func validateKM(dimCount, k, m int) error {
	switch {
	case k < 1 || k > dimCount:
		return fmt.Errorf("core: projection dimensionality k=%d outside [1,%d]", k, dimCount)
	case m < 1:
		return fmt.Errorf("core: number of projections m=%d must be positive", m)
	default:
		return nil
	}
}
