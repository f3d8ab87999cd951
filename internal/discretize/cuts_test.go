package discretize

import (
	"math"
	"sort"
	"testing"

	"hido/internal/xrand"
)

// sortedEquiDepthCuts is the oracle for equiDepthCuts and the sketch's
// exact mode: the full-sort placement the package used before
// multi-selection, with the shared finite clamp as its one change.
func sortedEquiDepthCuts(col []float64, phi int) []float64 {
	clean := make([]float64, 0, len(col))
	for _, v := range col {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	cuts := make([]float64, phi-1)
	if len(clean) == 0 {
		for i := range cuts {
			cuts[i] = math.Inf(1)
		}
		return finiteCuts(cuts)
	}
	sort.Float64s(clean)
	n := len(clean)
	for r := 1; r < phi; r++ {
		idx := (r*n + phi - 1) / phi // ceil(r·n/phi)
		if idx < 1 {
			idx = 1
		}
		if idx > n {
			idx = n
		}
		cuts[r-1] = clean[idx-1]
	}
	return finiteCuts(cuts)
}

// sameCuts compares cut lists bit for bit, or by value when the column
// mixes −0 and +0: those compare equal, so which of them a sort or a
// selection leaves at a rank is unspecified.
func sameCuts(got, want []float64, mixedZeros bool) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(mixedZeros && got[i] == want[i]) {
			return false
		}
	}
	return true
}

func mixesZeros(col []float64) bool {
	neg, pos := false, false
	for _, v := range col {
		if v == 0 {
			if math.Signbit(v) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return neg && pos
}

// randomColumn draws one column of the differential's four shapes.
func randomColumn(r *xrand.RNG, n, shape int) []float64 {
	col := make([]float64, n)
	for i := range col {
		switch shape {
		case 0: // smooth
			col[i] = r.NormMS(0, 100)
		case 1: // tie-heavy, with signed zeros among the ties
			col[i] = float64(r.Intn(5) - 2)
			if col[i] == 0 && r.Bernoulli(0.5) {
				col[i] = math.Copysign(0, -1)
			}
		case 2: // NaN-heavy
			if r.Bernoulli(0.7) {
				col[i] = math.NaN()
			} else {
				col[i] = r.Exp()
			}
		case 3: // ±Inf tails around finite extremes
			switch u := r.Float64(); {
			case u < 0.2:
				col[i] = math.Inf(1)
			case u < 0.35:
				col[i] = math.Inf(-1)
			case u < 0.4:
				col[i] = math.MaxFloat64
			case u < 0.45:
				col[i] = math.NaN()
			default:
				col[i] = r.NormMS(0, 1)
			}
		}
	}
	return col
}

func TestEquiDepthSelectionMatchesSort(t *testing.T) {
	r := xrand.New(12)
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(2000)
		if trial%4 == 0 {
			n = 1 + r.Intn(40) // small columns: the sort-the-window cutoff
		}
		phi := 2 + r.Intn(63)
		shape := trial % 4
		col := randomColumn(r, n, shape)
		want := sortedEquiDepthCuts(col, phi)
		got := equiDepthCuts(append([]float64(nil), col...), phi)
		if !sameCuts(got, want, mixesZeros(col)) {
			t.Fatalf("trial %d (n=%d phi=%d shape %d): selection cuts %v, sorted cuts %v",
				trial, n, phi, shape, got, want)
		}
		for i, c := range got {
			if math.IsInf(c, 0) || math.IsNaN(c) || (i > 0 && c < got[i-1]) {
				t.Fatalf("trial %d: cuts %v not finite and ascending", trial, got)
			}
		}
	}
}

func TestEquiDepthSelectionAdversarial(t *testing.T) {
	// Sorted, reversed, organ-pipe and constant columns are the classic
	// quickselect worst cases; the depth limit must keep them exact.
	const n = 5000
	shapes := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"constant":   func(int) float64 { return 7 },
		"sawtooth":   func(i int) float64 { return float64(i % 17) },
	}
	for name, f := range shapes {
		col := make([]float64, n)
		for i := range col {
			col[i] = f(i)
		}
		for _, phi := range []int{2, 9, 64} {
			want := sortedEquiDepthCuts(col, phi)
			got := equiDepthCuts(append([]float64(nil), col...), phi)
			if !sameCuts(got, want, false) {
				t.Fatalf("%s phi=%d: selection cuts %v, sorted cuts %v", name, phi, got, want)
			}
		}
	}
}

func TestAssignMatchesSearchFloat64s(t *testing.T) {
	// The inlined search must place every value exactly where
	// sort.SearchFloat64s does, NaN cuts (equi-width over an infinite
	// span) included.
	r := xrand.New(13)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64}
	for trial := 0; trial < 2000; trial++ {
		cuts := make([]float64, 1+r.Intn(12))
		for i := range cuts {
			if r.Bernoulli(0.3) {
				cuts[i] = specials[r.Intn(len(specials))]
			} else {
				cuts[i] = float64(r.Intn(7))
			}
		}
		g := &Grid{Phi: len(cuts) + 1, D: 1, cuts: [][]float64{cuts}}
		for v := 0; v < 20; v++ {
			x := float64(r.Intn(9) - 1)
			if r.Bernoulli(0.2) {
				x = specials[r.Intn(len(specials))]
			}
			want := uint16(sort.SearchFloat64s(cuts, x) + 1)
			if math.IsNaN(x) {
				want = 0
			}
			if got := g.assign(0, x); got != want {
				t.Fatalf("cuts %v value %v: assigned %d, sort.SearchFloat64s gives %d", cuts, x, got, want)
			}
		}
	}
}
