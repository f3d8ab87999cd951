package grid

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"hido/internal/bitset"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/xrand"
)

// sweepDS builds an n×d dataset with every column kind the cut
// placement distinguishes, as discretize's TestFitApplyGOMAXPROCS
// sweeps them: column 1 entirely missing, heavy ties on every third
// column, scattered NaNs and the odd ±Inf elsewhere.
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

// serialBits is the reference index: every record's cells assigned
// value by value (CellsRow) and set in record order on the calling
// goroutine.
func serialBits(g *discretize.Grid) [][]*bitset.Set {
	bits := make([][]*bitset.Set, g.D)
	for j := range bits {
		bits[j] = make([]*bitset.Set, g.Phi)
		for r := range bits[j] {
			bits[j][r] = bitset.New(g.N)
		}
	}
	for i := 0; i < g.N; i++ {
		for j, r := range g.CellsRow(i) {
			if r != 0 {
				bits[j][r-1].Set(i)
			}
		}
	}
	return bits
}

// TestBuildGOMAXPROCS holds the parallel Build to the per-value serial
// reference bit for bit at several pool sizes, over every column kind
// (all missing, heavy ties, NaN, ±Inf), both methods, and another
// window's cuts applied, with record counts that are not multiples of
// 64 and fewer dimensions than workers.
func TestBuildGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ n, d int }{{5, 3}, {1003, 3}, {1003, 13}, {257, 40}}
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for _, sh := range shapes {
			ds := sweepDS(sh.n, sh.d, uint64(sh.n*sh.d))
			const phi = 7
			grids := map[string]*discretize.Grid{
				"equi-depth": discretize.Fit(ds, phi, discretize.EquiDepth),
				"equi-width": discretize.Fit(ds, phi, discretize.EquiWidth),
				// Another window's cuts, as a shard applies the
				// coordinator's global cuts to its own rows.
				"apply": discretize.Apply(ds, phi,
					discretize.Fit(sweepDS(sh.n+11, sh.d, 99), phi, discretize.EquiDepth).AllCuts()),
			}
			for name, g := range grids {
				ix := Build(g)
				want := serialBits(g)
				for j := 0; j < g.D; j++ {
					for r := 1; r <= g.Phi; r++ {
						if !ix.RangeSet(j, uint16(r)).Equal(want[j][r-1]) {
							t.Fatalf("GOMAXPROCS=%d %dx%d %s: bitmap (%d,%d) differs from the serial build",
								procs, sh.n, sh.d, name, j, r)
						}
					}
				}
			}
		}
	}
}

// TestRangeIndexMatchesAssign is the differential for Build's range
// search: on every kind of cut list the program produces it must place
// each value where discretize's per-value bisection does.
func TestRangeIndexMatchesAssign(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	column := func(vals ...float64) *dataset.Dataset {
		ds := dataset.New([]string{"x"}, len(vals))
		for _, v := range vals {
			ds.AppendRow([]float64{v}, "")
		}
		return ds
	}
	r := xrand.New(41)
	for _, phi := range []int{2, 3, 9, 17, 300} {
		ties := make([]float64, 500)
		for i := range ties {
			ties[i] = float64(r.Intn(5)) - 2
		}
		ascending := make([]float64, phi-1)
		for i := range ascending {
			ascending[i] = r.Norm()
		}
		slices.Sort(ascending)
		grids := map[string]*discretize.Grid{
			"equi-depth ties":  discretize.Fit(column(ties...), phi, discretize.EquiDepth),
			"equi-depth ±Inf":  discretize.Fit(column(-inf, 1, 2, inf, inf, nan), phi, discretize.EquiDepth),
			"ascending":        discretize.FromCuts(phi, [][]float64{ascending}),
			"equi-width":       discretize.Fit(column(-3, 0.25, 7, nan), phi, discretize.EquiWidth),
			"equi-width +Inf":  discretize.Fit(column(1, inf), phi, discretize.EquiWidth),
			"equi-width NaN":   discretize.Fit(column(-inf, 1), phi, discretize.EquiWidth),
			"equi-width const": discretize.Fit(column(4, 4), phi, discretize.EquiWidth),
		}
		for name, kind := range map[string]func(float64) bool{
			"equi-width +Inf": func(c float64) bool { return math.IsInf(c, 1) },
			"equi-width NaN":  math.IsNaN,
		} {
			for _, c := range grids[name].Cuts(0) {
				if !kind(c) {
					t.Fatalf("phi=%d %s: cut %v", phi, name, c)
				}
			}
		}
		for name, g := range grids {
			cuts := g.Cuts(0)
			values := []float64{0, math.Copysign(0, -1), inf, -inf, math.MaxFloat64, -math.MaxFloat64,
				math.SmallestNonzeroFloat64, nan}
			for _, c := range cuts {
				values = append(values, c, math.Nextafter(c, inf), math.Nextafter(c, -inf))
			}
			for i := 0; i < 200; i++ {
				values = append(values, 8*r.Float64()-4, float64(r.Intn(7)-3))
			}
			for _, v := range values {
				want := g.AssignValue(0, v)
				got := rangeIndex(cuts, v) + 1
				if math.IsNaN(v) {
					got = 0
				}
				if got != int(want) {
					t.Fatalf("phi=%d %s cuts %v value %v: rangeIndex gives range %d, assign %d",
						phi, name, cuts, v, got, want)
				}
			}
		}
	}
}
