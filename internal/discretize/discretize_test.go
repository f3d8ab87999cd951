package discretize

import (
	"math"
	"testing"
	"testing/quick"

	"hido/internal/dataset"
	"hido/internal/xrand"
)

func uniformDS(n, d int, seed uint64) *dataset.Dataset {
	r := xrand.New(seed)
	names := make([]string, d)
	for j := range names {
		names[j] = "x"
	}
	ds := dataset.New(names, n)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = r.Float64()
		}
		ds.AppendRow(row, "")
	}
	return ds
}

func TestEquiDepthBalanced(t *testing.T) {
	// With distinct continuous values, each of the phi ranges must hold
	// floor(n/phi) or ceil(n/phi) records.
	ds := uniformDS(1000, 3, 1)
	g := Fit(ds, 10, EquiDepth)
	for j := 0; j < 3; j++ {
		counts, missing := g.RangeCounts(j)
		if missing != 0 {
			t.Fatalf("dim %d: %d missing", j, missing)
		}
		for r, c := range counts {
			if c != 100 {
				t.Errorf("dim %d range %d: count %d, want 100", j, r+1, c)
			}
		}
	}
}

func TestEquiDepthUnevenN(t *testing.T) {
	ds := uniformDS(103, 1, 2)
	g := Fit(ds, 10, EquiDepth)
	counts, _ := g.RangeCounts(0)
	total := 0
	for r, c := range counts {
		if c < 10 || c > 11 {
			t.Errorf("range %d count %d, want 10 or 11", r+1, c)
		}
		total += c
	}
	if total != 103 {
		t.Errorf("counts sum to %d", total)
	}
}

func TestEquiDepthWithHeavyTies(t *testing.T) {
	// A discrete attribute where one value holds half the mass: that
	// value's range absorbs the excess; counts still sum to N and every
	// record is assigned.
	ds := dataset.New([]string{"x"}, 0)
	for i := 0; i < 50; i++ {
		ds.AppendRow([]float64{7}, "")
	}
	for i := 0; i < 50; i++ {
		ds.AppendRow([]float64{float64(i)}, "")
	}
	g := Fit(ds, 5, EquiDepth)
	counts, missing := g.RangeCounts(0)
	if missing != 0 {
		t.Fatalf("missing = %d", missing)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 100 {
		t.Errorf("counts sum to %d, want 100", total)
	}
	// All copies of the tied value land in one range.
	r := g.Cell(0, 0)
	for i := 1; i < 50; i++ {
		if g.Cell(i, 0) != r {
			t.Fatal("tied values split across ranges")
		}
	}
}

func TestEquiWidthBounds(t *testing.T) {
	ds := dataset.New([]string{"x"}, 0)
	for i := 0; i <= 100; i++ {
		ds.AppendRow([]float64{float64(i)}, "") // 0..100
	}
	g := Fit(ds, 4, EquiWidth)
	cuts := g.Cuts(0)
	want := []float64{25, 50, 75}
	for i, c := range cuts {
		if math.Abs(c-want[i]) > 1e-9 {
			t.Errorf("cut %d = %v, want %v", i, c, want[i])
		}
	}
	if g.Cell(0, 0) != 1 {
		t.Errorf("value 0 in range %d", g.Cell(0, 0))
	}
	if g.Cell(100, 0) != 4 {
		t.Errorf("value 100 in range %d", g.Cell(100, 0))
	}
	// Boundary value belongs to the lower range.
	if g.Cell(25, 0) != 1 {
		t.Errorf("value 25 in range %d, want 1", g.Cell(25, 0))
	}
	if g.Cell(26, 0) != 2 {
		t.Errorf("value 26 in range %d, want 2", g.Cell(26, 0))
	}
}

func TestMissingValuesGetCellZero(t *testing.T) {
	ds := dataset.New([]string{"x", "y"}, 0)
	ds.AppendRow([]float64{1, math.NaN()}, "")
	ds.AppendRow([]float64{2, 5}, "")
	ds.AppendRow([]float64{3, 6}, "")
	g := Fit(ds, 2, EquiDepth)
	if g.Cell(0, 1) != 0 {
		t.Errorf("missing cell = %d, want 0", g.Cell(0, 1))
	}
	if g.Cell(0, 0) == 0 {
		t.Error("present value assigned missing cell")
	}
	counts, missing := g.RangeCounts(1)
	if missing != 1 {
		t.Errorf("missing count = %d", missing)
	}
	if counts[0]+counts[1] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestAllMissingColumn(t *testing.T) {
	ds := dataset.New([]string{"x", "y"}, 0)
	ds.AppendRow([]float64{1, math.NaN()}, "")
	ds.AppendRow([]float64{2, math.NaN()}, "")
	for _, m := range []Method{EquiDepth, EquiWidth} {
		g := Fit(ds, 3, m)
		if g.Cell(0, 1) != 0 || g.Cell(1, 1) != 0 {
			t.Errorf("%v: all-missing column produced non-zero cells", m)
		}
	}
}

func TestConstantColumnEquiWidth(t *testing.T) {
	ds := dataset.New([]string{"x"}, 0)
	ds.AppendRow([]float64{5}, "")
	ds.AppendRow([]float64{5}, "")
	g := Fit(ds, 3, EquiWidth)
	if g.Cell(0, 0) != g.Cell(1, 0) || g.Cell(0, 0) == 0 {
		t.Errorf("constant column cells: %d %d", g.Cell(0, 0), g.Cell(1, 0))
	}
}

func TestCellsRowMatchesCell(t *testing.T) {
	ds := uniformDS(50, 4, 3)
	g := Fit(ds, 5, EquiDepth)
	for i := 0; i < 50; i++ {
		row := g.CellsRow(i)
		for j := 0; j < 4; j++ {
			if row[j] != g.Cell(i, j) {
				t.Fatalf("CellsRow(%d)[%d] = %d != Cell = %d", i, j, row[j], g.Cell(i, j))
			}
		}
	}
}

func TestRangeBounds(t *testing.T) {
	ds := uniformDS(100, 1, 4)
	g := Fit(ds, 4, EquiDepth)
	lo, hi := g.RangeBounds(0, 1)
	if !math.IsInf(lo, -1) {
		t.Errorf("range 1 lo = %v, want -inf", lo)
	}
	lo2, hi2 := g.RangeBounds(0, 4)
	if !math.IsInf(hi2, 1) {
		t.Errorf("range 4 hi = %v, want +inf", hi2)
	}
	if hi != g.Cuts(0)[0] || lo2 != g.Cuts(0)[2] {
		t.Error("interior bounds do not match cuts")
	}
	// Each record's value lies inside its range's bounds.
	for i := 0; i < 100; i++ {
		r := g.Cell(i, 0)
		lo, hi := g.RangeBounds(0, r)
		v := ds.At(i, 0)
		if !(v > lo && v <= hi) {
			t.Fatalf("record %d value %v outside (%v,%v] of range %d", i, v, lo, hi, r)
		}
	}
}

func TestRangeBoundsPanics(t *testing.T) {
	ds := uniformDS(10, 1, 5)
	g := Fit(ds, 3, EquiDepth)
	for _, r := range []uint16{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RangeBounds(%d) did not panic", r)
				}
			}()
			g.RangeBounds(0, r)
		}()
	}
}

// TestCheckPhi pins the one φ bound every fit, grid and model check
// uses: [2, 65 535], the most ranges a uint16 cell can name.
func TestCheckPhi(t *testing.T) {
	for _, phi := range []int{math.MinInt, -1, 0, 1, math.MaxUint16 + 1, math.MaxInt} {
		if CheckPhi(phi) == nil {
			t.Errorf("phi=%d accepted", phi)
		}
	}
	for _, phi := range []int{2, 3, 100, math.MaxUint16} {
		if err := CheckPhi(phi); err != nil {
			t.Errorf("phi=%d: %v", phi, err)
		}
	}
	// The constructors panic on exactly what CheckPhi rejects.
	ds := uniformDS(10, 2, 6)
	for _, phi := range []int{1, math.MaxUint16 + 1} {
		for name, fn := range map[string]func(){
			"Fit":      func() { Fit(ds, phi, EquiDepth) },
			"FromCuts": func() { FromCuts(phi, [][]float64{{}}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at phi=%d did not panic", name, phi)
					}
				}()
				fn()
			}()
		}
	}
}

func TestFitPanics(t *testing.T) {
	ds := uniformDS(10, 2, 6)
	for name, fn := range map[string]func(){
		"phi=1":  func() { Fit(ds, 1, EquiDepth) },
		"method": func() { Fit(ds, 3, Method(99)) },
		"empty":  func() { Fit(dataset.New([]string{"x"}, 0), 3, EquiDepth) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAccessorPanics(t *testing.T) {
	g := Fit(uniformDS(10, 2, 7), 3, EquiDepth)
	for name, fn := range map[string]func(){
		"Cell row": func() { g.Cell(10, 0) },
		"Cell col": func() { g.Cell(0, 2) },
		"CellsRow": func() { g.CellsRow(-1) },
		"Cuts":     func() { g.Cuts(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMethodString(t *testing.T) {
	if EquiDepth.String() != "equi-depth" || EquiWidth.String() != "equi-width" {
		t.Error("Method.String wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown Method empty string")
	}
}

func TestDescribeRange(t *testing.T) {
	g := Fit(uniformDS(100, 1, 8), 4, EquiDepth)
	s := g.DescribeRange("crime", 0, 2)
	if s == "" || s[0:5] != "crime" {
		t.Errorf("DescribeRange = %q", s)
	}
}

// Property: every non-missing value is assigned a range in 1..phi, and
// assignment is monotone in the value.
func TestQuickAssignmentValidAndMonotone(t *testing.T) {
	f := func(seed uint64, phiRaw uint8) bool {
		phi := int(phiRaw)%9 + 2
		ds := uniformDS(200, 1, seed)
		g := Fit(ds, phi, EquiDepth)
		type pair struct {
			v float64
			r uint16
		}
		ps := make([]pair, 200)
		for i := range ps {
			r := g.Cell(i, 0)
			if r < 1 || int(r) > phi {
				return false
			}
			ps[i] = pair{ds.At(i, 0), r}
		}
		for a := range ps {
			for b := range ps {
				if ps[a].v < ps[b].v && ps[a].r > ps[b].r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: equi-depth range sizes never differ by more than 1 on
// tie-free data.
func TestQuickEquiDepthBalance(t *testing.T) {
	f := func(seed uint64, nRaw uint16, phiRaw uint8) bool {
		n := int(nRaw)%500 + 20
		phi := int(phiRaw)%8 + 2
		if phi > n {
			return true
		}
		g := Fit(uniformDS(n, 1, seed), phi, EquiDepth)
		counts, _ := g.RangeCounts(0)
		min, max := n, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFitEquiDepth(b *testing.B) {
	ds := uniformDS(2000, 50, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Fit(ds, 10, EquiDepth)
	}
}

func TestFromCutsRoundTrip(t *testing.T) {
	ds := uniformDS(300, 4, 9)
	orig := Fit(ds, 5, EquiDepth)
	re := FromCuts(5, orig.AllCuts())
	if re.D != 4 || re.Phi != 5 || re.N != 0 {
		t.Fatalf("reconstructed grid shape wrong: %+v", re)
	}
	// Assignment agrees on every fitted value and on fresh values.
	for i := 0; i < 300; i++ {
		for j := 0; j < 4; j++ {
			v := ds.At(i, j)
			if orig.AssignValue(j, v) != re.AssignValue(j, v) {
				t.Fatalf("assignment diverges at (%d,%d)", i, j)
			}
		}
	}
	for j := 0; j < 4; j++ {
		for _, v := range []float64{-100, 0.5, 100, math.NaN()} {
			if orig.AssignValue(j, v) != re.AssignValue(j, v) {
				t.Fatalf("fresh-value assignment diverges at dim %d value %v", j, v)
			}
		}
		lo1, hi1 := orig.RangeBounds(j, 2)
		lo2, hi2 := re.RangeBounds(j, 2)
		if lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("bounds diverge at dim %d", j)
		}
	}
}

func TestFromCutsValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"phi":        func() { FromCuts(1, [][]float64{{}}) },
		"empty":      func() { FromCuts(3, nil) },
		"wrong cuts": func() { FromCuts(3, [][]float64{{0.5}}) },
		"descending": func() { FromCuts(3, [][]float64{{0.9, 0.1}}) },
		"NaN first":  func() { FromCuts(3, [][]float64{{math.NaN(), 0.1}}) },
		"NaN last":   func() { FromCuts(3, [][]float64{{0.1, math.NaN()}}) },
		"all NaN":    func() { FromCuts(3, [][]float64{{math.NaN(), math.NaN()}}) },
		"Apply NaN":  func() { Apply(uniformDS(10, 1, 1), 3, [][]float64{{0.1, math.NaN()}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAssignRow(t *testing.T) {
	ds := uniformDS(100, 3, 10)
	g := Fit(ds, 4, EquiDepth)
	row := []float64{0.5, math.NaN(), 0.99}
	cells := g.AssignRow(row)
	if len(cells) != 3 || cells[1] != 0 {
		t.Fatalf("AssignRow = %v", cells)
	}
	for j, v := range row {
		if !math.IsNaN(v) && cells[j] != g.AssignValue(j, v) {
			t.Fatal("AssignRow disagrees with AssignValue")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-width AssignRow did not panic")
		}
	}()
	g.AssignRow([]float64{1})
}

func TestAssignValuePanics(t *testing.T) {
	g := Fit(uniformDS(10, 2, 11), 3, EquiDepth)
	defer func() {
		if recover() == nil {
			t.Error("AssignValue out-of-range dim did not panic")
		}
	}()
	g.AssignValue(5, 0.5)
}
