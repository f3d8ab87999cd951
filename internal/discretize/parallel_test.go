package discretize

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hido/internal/dataset"
	"hido/internal/xrand"
)

// sweepDS builds an n×d dataset that exercises every column kind the
// cut placement distinguishes: column 1 entirely missing, heavy ties on
// every third column, scattered NaNs and the odd ±Inf elsewhere.
func sweepDS(n, d int, seed uint64) *dataset.Dataset {
	r := xrand.New(seed)
	names := make([]string, d)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	ds := dataset.New(names, n)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			v := r.Float64()
			switch {
			case j == 1 || r.Bernoulli(0.1):
				v = math.NaN()
			case j%3 == 2:
				v = math.Round(v * 4)
			case r.Bernoulli(0.01):
				v = math.Inf(1 - 2*r.Intn(2))
			}
			row[j] = v
		}
		ds.AppendRow(row, "")
	}
	return ds
}

// serialCuts is the reference cut placement: one column at a time, in
// dimension order, through one buffer, on the calling goroutine.
func serialCuts(ds *dataset.Dataset, phi int, method Method) [][]float64 {
	cuts := make([][]float64, ds.D())
	var col []float64
	for j := range cuts {
		col = ds.AppendColumn(col[:0], j)
		if method == EquiDepth {
			cuts[j] = equiDepthCuts(col, phi)
		} else {
			cuts[j] = equiWidthCuts(col, phi)
		}
	}
	return cuts
}

// checkCuts compares g's cuts against the reference, bit for bit (NaN
// cuts included).
func checkCuts(t *testing.T, label string, g *Grid, cuts [][]float64) {
	t.Helper()
	for j := range cuts {
		for r := range cuts[j] {
			if math.Float64bits(g.cuts[j][r]) != math.Float64bits(cuts[j][r]) {
				t.Fatalf("%s: dim %d cut %d = %v, serial %v", label, j, r, g.cuts[j][r], cuts[j][r])
			}
		}
	}
}

// TestFitApplyGOMAXPROCS holds the parallel Fit's cuts to the serial
// reference at several pool sizes, including more workers than
// columns, and checks that Fit and Apply bind the grid to the dataset.
// Fit and Apply assign no cells; grid.TestBuildGOMAXPROCS holds the
// index built from these shapes to a per-value reference.
func TestFitApplyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ n, d int }{{5, 3}, {1003, 3}, {1003, 13}, {257, 40}}
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for _, sh := range shapes {
			ds := sweepDS(sh.n, sh.d, uint64(sh.n*sh.d))
			for _, method := range []Method{EquiDepth, EquiWidth} {
				const phi = 7
				label := fmt.Sprintf("GOMAXPROCS=%d %dx%d %v", procs, sh.n, sh.d, method)
				g := Fit(ds, phi, method)
				checkCuts(t, label+" Fit", g, serialCuts(ds, phi, method))
				// Apply the cuts of another window, as a shard applies the
				// coordinator's global cuts to its own rows.
				other := serialCuts(sweepDS(sh.n+11, sh.d, 99), phi, EquiDepth)
				a := Apply(ds, phi, other)
				checkCuts(t, label+" Apply", a, other)
				for _, bound := range []*Grid{g, a} {
					if bound.N != sh.n || bound.Data() != ds {
						t.Fatalf("%s: grid bound to N=%d, want the %d-row dataset", label, bound.N, sh.n)
					}
				}
			}
		}
	}
}
