package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/grid"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// The paper's definitions fix how the path from data to outliers must
// respond to two transformations of the input, whatever the data:
//
//   - Equi-depth cuts depend only on the multiset of a column's values
//     and cube counts not at all on record order, so permuting the
//     records permutes the index and the outliers and changes nothing
//     else (TestMetamorphicRowOrder).
//   - An equi-depth range holds the same records after any strictly
//     increasing map of its attribute that keeps the values distinct
//     (§1.3), so every cell, count, sparsity and search is unchanged
//     (TestMetamorphicMonotoneMap).
//   - Under fixed cuts, every record twice doubles every count n(D)
//     and N, so Eq. 1 scales every S(D) by exactly √2: at one k the
//     ranking of cubes is the same, and so is every search
//     (TestMetamorphicRowDuplication).
//   - Nothing in Eq. 1 or Figure 2 depends on the order of the
//     attributes, so permuting the columns permutes the brute-force
//     projections wherever their sparsities do not tie
//     (TestMetamorphicDimensionOrder).
//
// All run over random Table 1 profiles, data seeds and search seeds.

// metamorphicProfiles are the Table 1 shapes small enough for a
// brute-force search in a unit test.
var metamorphicProfiles = []string{"BreastCancer", "Ionosphere", "Segmentation", "Machine"}

// metamorphicSearches runs a 2-dimensional brute-force search and a
// k-dimensional evolutionary search from the given seed.
func metamorphicSearches(t *testing.T, det *Detector, k int, seed uint64) (brute, evo *Result) {
	t.Helper()
	brute, err := det.BruteForce(BruteForceOptions{K: 2, M: 10})
	if err != nil {
		t.Fatal(err)
	}
	evo, err = det.Evolutionary(EvoOptions{K: k, M: 10, Seed: seed, MaxGenerations: 40})
	if err != nil {
		t.Fatal(err)
	}
	return brute, evo
}

// sameProjections requires identical projections: cubes, counts and
// sparsities bit for bit, in order, and the same evaluation count.
func sameProjections(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Projections) != len(b.Projections) {
		t.Fatalf("%s: %d projections, transformed %d", label, len(a.Projections), len(b.Projections))
	}
	for i := range a.Projections {
		pa, pb := a.Projections[i], b.Projections[i]
		if !pa.Cube.Equal(pb.Cube) || pa.Count != pb.Count ||
			math.Float64bits(pa.Sparsity) != math.Float64bits(pb.Sparsity) {
			t.Fatalf("%s: projection %d is %v, transformed %v", label, i, pa, pb)
		}
	}
	if a.Evaluations != b.Evaluations {
		t.Fatalf("%s: %d evaluations, transformed %d", label, a.Evaluations, b.Evaluations)
	}
}

func metamorphicData(t *testing.T, r *xrand.RNG) (*dataset.Dataset, synth.Profile, string) {
	t.Helper()
	p, err := synth.ProfileByName(metamorphicProfiles[r.Intn(len(metamorphicProfiles))])
	if err != nil {
		t.Fatal(err)
	}
	dataSeed := uint64(1 + r.Intn(1000))
	ds, err := p.Generate(dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	return ds, p, fmt.Sprintf("%s data seed %d", p.Name, dataSeed)
}

func TestMetamorphicRowOrder(t *testing.T) {
	r := xrand.New(31)
	for trial := 0; trial < 6; trial++ {
		ds, p, label := metamorphicData(t, r)
		// Row i of the permuted data is row perm[i] of the original.
		perm := r.Perm(ds.N())
		det := NewDetector(ds, p.Phi)
		pdet := NewDetector(ds.SelectRows(perm), p.Phi)

		cuts, pcuts := det.Grid.AllCuts(), pdet.Grid.AllCuts()
		for j := range cuts {
			for c := range cuts[j] {
				if math.Float64bits(cuts[j][c]) != math.Float64bits(pcuts[j][c]) {
					t.Fatalf("%s: dim %d cut %d is %v, permuted %v", label, j, c, cuts[j][c], pcuts[j][c])
				}
			}
		}
		for j := 0; j < det.D(); j++ {
			for rg := uint16(1); int(rg) <= p.Phi; rg++ {
				set, pset := det.Index.RangeSet(j, rg), pdet.Index.RangeSet(j, rg)
				for i, orig := range perm {
					if pset.Test(i) != set.Test(orig) {
						t.Fatalf("%s: range %d of dim %d holds permuted row %d: %v, original row %d: %v",
							label, rg, j, i, pset.Test(i), orig, set.Test(orig))
					}
				}
			}
		}

		seed := uint64(1 + r.Intn(1000))
		brute, evo := metamorphicSearches(t, det, p.K, seed)
		pbrute, pevo := metamorphicSearches(t, pdet, p.K, seed)
		for _, c := range []struct {
			name string
			a, b *Result
		}{{"brute force", brute, pbrute}, {"evolutionary", evo, pevo}} {
			label := fmt.Sprintf("%s, %s seed %d", label, c.name, seed)
			sameProjections(t, label, c.a, c.b)
			outliers := make([]int, 0, len(c.b.Outliers))
			for _, i := range c.b.Outliers {
				outliers = append(outliers, perm[i])
			}
			slices.Sort(outliers)
			if !slices.Equal(outliers, c.a.Outliers) {
				t.Fatalf("%s: outliers %v, permuted back %v", label, c.a.Outliers, outliers)
			}
		}
	}
}

// monotoneMaps are strictly increasing maps; the test checks that the
// one it applies keeps a column's values distinct.
var monotoneMaps = []struct {
	name string
	f    func(float64) float64
}{
	{"x·2⁷", func(x float64) float64 { return x * 128 }},
	{"x³", func(x float64) float64 { return x * x * x }},
	{"x+x³", func(x float64) float64 { return x + x*x*x }},
	{"eˣ", math.Exp},
}

func TestMetamorphicMonotoneMap(t *testing.T) {
	r := xrand.New(32)
	for trial := 0; trial < 6; trial++ {
		ds, p, label := metamorphicData(t, r)
		mapped := ds.Clone()
		applied := ""
		for j := 0; j < ds.D(); j++ {
			if r.Bernoulli(0.5) {
				continue
			}
			m := monotoneMaps[r.Intn(len(monotoneMaps))]
			col := ds.Column(j)
			slices.Sort(col)
			col = slices.Compact(col)
			for i := 1; i < len(col); i++ {
				if !(m.f(col[i-1]) < m.f(col[i])) {
					t.Fatalf("%s: %s maps dim %d's values %v and %v to %v and %v",
						label, m.name, j, col[i-1], col[i], m.f(col[i-1]), m.f(col[i]))
				}
			}
			for i := 0; i < ds.N(); i++ {
				mapped.SetAt(i, j, m.f(ds.At(i, j)))
			}
			applied += fmt.Sprintf(" %s on dim %d", m.name, j)
		}
		label += "," + applied
		det, mdet := NewDetector(ds, p.Phi), NewDetector(mapped, p.Phi)
		for i := 0; i < ds.N(); i++ {
			for j := 0; j < ds.D(); j++ {
				if c, mc := det.Grid.Cell(i, j), mdet.Grid.Cell(i, j); c != mc {
					t.Fatalf("%s: record %d dim %d in range %d, mapped %d", label, i, j, c, mc)
				}
			}
		}
		seed := uint64(1 + r.Intn(1000))
		brute, evo := metamorphicSearches(t, det, p.K, seed)
		mbrute, mevo := metamorphicSearches(t, mdet, p.K, seed)
		for _, c := range []struct {
			name string
			a, b *Result
		}{{"brute force", brute, mbrute}, {"evolutionary", evo, mevo}} {
			label := fmt.Sprintf("%s, %s seed %d", label, c.name, seed)
			sameProjections(t, label, c.a, c.b)
			if !slices.Equal(c.a.Outliers, c.b.Outliers) {
				t.Fatalf("%s: outliers %v, mapped %v", label, c.a.Outliers, c.b.Outliers)
			}
		}
	}
}

// ulpsApart is how many float64 steps separate a and b.
func ulpsApart(a, b float64) float64 {
	step := math.Nextafter(math.Abs(a), math.Inf(1)) - math.Abs(a)
	return math.Abs(a-b) / step
}

func TestMetamorphicRowDuplication(t *testing.T) {
	r := xrand.New(33)
	for trial := 0; trial < 6; trial++ {
		ds, p, label := metamorphicData(t, r)
		n := ds.N()
		twice := make([]int, 2*n)
		for i := range twice {
			twice[i] = i % n
		}
		det := NewDetector(ds, p.Phi)
		doubled := ds.SelectRows(twice)
		dgrid := discretize.Apply(doubled, p.Phi, det.Grid.AllCuts())
		ddet := &Detector{Data: doubled, Grid: dgrid, Index: grid.Build(dgrid)}
		for j := 0; j < det.D(); j++ {
			for rg := uint16(1); int(rg) <= p.Phi; rg++ {
				c := cube.New(det.D()).With(j, rg)
				if got, want := ddet.Index.Count(c), 2*det.Index.Count(c); got != want {
					t.Fatalf("%s: range %d of dim %d holds %d doubled records, want %d", label, rg, j, got, want)
				}
			}
		}

		seed := uint64(1 + r.Intn(1000))
		brute, evo := metamorphicSearches(t, det, p.K, seed)
		dbrute, devo := metamorphicSearches(t, ddet, p.K, seed)
		for _, c := range []struct {
			name string
			a, b *Result
		}{{"brute force", brute, dbrute}, {"evolutionary", evo, devo}} {
			label := fmt.Sprintf("%s, %s seed %d", label, c.name, seed)
			if len(c.a.Projections) != len(c.b.Projections) || c.a.Evaluations != c.b.Evaluations {
				t.Fatalf("%s: %d projections in %d evaluations, doubled %d in %d", label,
					len(c.a.Projections), c.a.Evaluations, len(c.b.Projections), c.b.Evaluations)
			}
			for i, pa := range c.a.Projections {
				pb := c.b.Projections[i]
				if !pa.Cube.Equal(pb.Cube) || pb.Count != 2*pa.Count || ddet.Index.Count(pb.Cube) != pb.Count {
					t.Fatalf("%s: projection %d is %v, doubled %v", label, i, pa, pb)
				}
				if u := ulpsApart(pb.Sparsity, math.Sqrt2*pa.Sparsity); u > 4 {
					t.Fatalf("%s: projection %d has S %v, doubled %v, %.0f ulps from √2·S",
						label, i, pa.Sparsity, pb.Sparsity, u)
				}
			}
			var outliers []int
			for _, i := range c.a.Outliers {
				outliers = append(outliers, i)
			}
			for _, i := range c.a.Outliers {
				outliers = append(outliers, i+n)
			}
			if !slices.Equal(outliers, c.b.Outliers) {
				t.Fatalf("%s: outliers %v, doubled %v", label, c.a.Outliers, c.b.Outliers)
			}
		}
	}
}

func TestMetamorphicDimensionOrder(t *testing.T) {
	r := xrand.New(34)
	untied := 0
	for trial := 0; trial < 6; trial++ {
		ds, p, label := metamorphicData(t, r)
		// Column k of the permuted data is column perm[k] of the
		// original.
		perm := r.Perm(ds.D())
		names := make([]string, ds.D())
		for k, j := range perm {
			names[k] = ds.Names[j]
		}
		permuted := dataset.New(names, ds.N())
		row := make([]float64, ds.D())
		for i := 0; i < ds.N(); i++ {
			for k, j := range perm {
				row[k] = ds.At(i, j)
			}
			permuted.AppendRow(row, ds.Label(i))
		}
		det, pdet := NewDetector(ds, p.Phi), NewDetector(permuted, p.Phi)
		opt := BruteForceOptions{K: 2, M: 400}
		res, err := det.BruteForce(opt)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := pdet.BruteForce(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Projections) != len(pres.Projections) {
			t.Fatalf("%s: %d projections, permuted %d", label, len(res.Projections), len(pres.Projections))
		}
		// Projections tied in sparsity may come in either order, and
		// the last tie group may have lost members to cubes left out;
		// every other tie group holds the same cubes, and an untied
		// projection sits at the same position.
		ps := res.Projections
		last := ps[len(ps)-1].Sparsity
		group := map[string]int{} // original minus permuted, per cube
		for i, pp := range pres.Projections {
			back := cube.New(ds.D())
			for k, j := range perm {
				back[j] = pp.Cube[k]
			}
			if math.Float64bits(pp.Sparsity) != math.Float64bits(ps[i].Sparsity) || det.Index.Count(back) != pp.Count {
				t.Fatalf("%s: projection %d is %v, permuted %v (%v in the original)", label, i, ps[i], pp, back)
			}
			if ps[i].Sparsity == last {
				continue
			}
			group[ps[i].Cube.Key()]++
			group[back.Key()]--
			if i+1 < len(ps) && ps[i+1].Sparsity == ps[i].Sparsity {
				continue
			}
			if len(group) == 1 {
				untied++
			}
			for _, diff := range group {
				if diff != 0 {
					t.Fatalf("%s: the projections with S %v differ", label, ps[i].Sparsity)
				}
			}
			clear(group)
		}
	}
	t.Logf("%d untied projections compared", untied)
	if untied == 0 {
		t.Fatal("no trial had an untied projection to compare")
	}
}
