package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/evo"
	"hido/internal/grid"
	"hido/internal/obs"
	"hido/internal/xrand"
)

// plantedDataset builds n uniform points over d dims where dims 0 and
// 1 are tightly correlated (so off-diagonal grid cells in that plane
// are empty), plus one planted outlier at (low dim0, high dim1). The
// planted point's index is n.
func plantedDataset(n, d int, seed uint64) *dataset.Dataset {
	r := xrand.New(seed)
	names := make([]string, d)
	for j := range names {
		names[j] = "x"
	}
	ds := dataset.New(names, n+1)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		base := r.Float64()
		row[0] = base
		row[1] = clamp01(base + 0.01*r.Norm())
		for j := 2; j < d; j++ {
			row[j] = r.Float64()
		}
		ds.AppendRow(row, "normal")
	}
	row[0] = 0.01
	row[1] = 0.99
	for j := 2; j < d; j++ {
		row[j] = r.Float64()
	}
	ds.AppendRow(row, "planted")
	return ds
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func TestNewDetectorShape(t *testing.T) {
	ds := plantedDataset(200, 5, 1)
	det := NewDetector(ds, 4)
	if det.N() != 201 || det.D() != 5 || det.Phi() != 4 {
		t.Fatalf("detector shape N=%d D=%d Phi=%d", det.N(), det.D(), det.Phi())
	}
}

func TestValidation(t *testing.T) {
	det := NewDetector(plantedDataset(50, 3, 2), 3)
	if _, err := det.BruteForce(BruteForceOptions{K: 0, M: 5}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := det.BruteForce(BruteForceOptions{K: 4, M: 5}); err == nil {
		t.Error("k>d accepted")
	}
	if _, err := det.BruteForce(BruteForceOptions{K: 2, M: 0}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := det.Evolutionary(EvoOptions{K: 9, M: 1}); err == nil {
		t.Error("evolutionary k>d accepted")
	}
	if _, err := det.Evolutionary(EvoOptions{K: 1, M: 1, PopSize: 1}); err == nil {
		t.Error("population of 1 accepted")
	}
	if _, err := det.Evolutionary(EvoOptions{K: 1, M: 1, MutateP1: 2}); err == nil {
		t.Error("mutation probability 2 accepted")
	}
}

// TestBruteForceMatchesExhaustiveOracle re-derives the best m cubes by
// brute enumeration with the naive counter and compares qualities.
func TestBruteForceMatchesExhaustiveOracle(t *testing.T) {
	ds := plantedDataset(150, 4, 3)
	det := NewDetector(ds, 3)
	const k, m = 2, 5
	res, err := det.BruteForce(BruteForceOptions{K: k, M: m, MinCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: enumerate everything, keep the m best non-empty sparsities.
	var all []float64
	cube.Enumerate(det.D(), k, det.Phi(), func(c cube.Cube) bool {
		n := grid.NaiveCount(det.Grid, c)
		if n >= 1 {
			all = append(all, det.Index.SparsityOf(n, k))
		}
		return true
	})
	if len(all) < m {
		t.Fatalf("oracle found only %d non-empty cubes", len(all))
	}
	// selection-sort the m smallest
	for i := 0; i < m; i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j] < all[i] {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if len(res.Projections) != m {
		t.Fatalf("retained %d projections, want %d", len(res.Projections), m)
	}
	for i := 0; i < m; i++ {
		if math.Abs(res.Projections[i].Sparsity-all[i]) > 1e-9 {
			t.Errorf("projection %d sparsity %v, oracle %v", i, res.Projections[i].Sparsity, all[i])
		}
	}
	wantEvals := int(cube.SpaceSize(det.D(), k, det.Phi()))
	if res.Evaluations != wantEvals {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, wantEvals)
	}
}

func TestBruteForceFindsPlantedOutlier(t *testing.T) {
	ds := plantedDataset(400, 4, 4)
	det := NewDetector(ds, 5)
	res, err := det.BruteForce(BruteForceOptions{K: 2, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Projections) == 0 {
		t.Fatal("no projections")
	}
	best := res.Projections[0]
	// The planted cell (dim0 range 1, dim1 range 5) holds one point.
	if best.Count != 1 {
		t.Errorf("best projection count = %d, want 1", best.Count)
	}
	if !res.OutlierSet.Test(400) {
		t.Error("planted outlier (index 400) not in outlier set")
	}
	if best.Sparsity >= -3 {
		t.Errorf("best sparsity %v, want < -3", best.Sparsity)
	}
}

func TestBruteForceCandidateBudget(t *testing.T) {
	det := NewDetector(plantedDataset(100, 6, 5), 4)
	res, err := det.BruteForce(BruteForceOptions{K: 3, M: 5, MaxCandidates: 100})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || res.Evaluations < 100 || res.Evaluations > 200 {
		t.Errorf("partial result evaluations = %v", res.Evaluations)
	}
}

func TestBruteForceTimeBudget(t *testing.T) {
	det := NewDetector(plantedDataset(2000, 18, 6), 8)
	res, err := det.BruteForce(BruteForceOptions{K: 4, M: 5, MaxDuration: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Skipf("machine finished %d evals within 1ns budget?", res.Evaluations)
	}
	if res == nil {
		t.Fatal("nil partial result")
	}
}

func TestBruteForceMinCoverageNegativeAdmitsEmpty(t *testing.T) {
	ds := plantedDataset(300, 4, 7)
	det := NewDetector(ds, 6)
	strict, err := det.BruteForce(BruteForceOptions{K: 2, M: 3, MinCoverage: -1})
	if err != nil {
		t.Fatal(err)
	}
	// With correlation between dims 0 and 1, empty cells exist; an
	// empty cube is sparser than any covering cube.
	if strict.Projections[0].Count != 0 {
		t.Errorf("MinCoverage=-1 best count = %d, want 0", strict.Projections[0].Count)
	}
	nonEmpty, err := det.BruteForce(BruteForceOptions{K: 2, M: 3, MinCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range nonEmpty.Projections {
		if p.Count < 1 {
			t.Errorf("MinCoverage=1 retained empty cube %v", p.Cube)
		}
	}
}

func TestEvolutionaryFindsPlantedOutlier(t *testing.T) {
	ds := plantedDataset(400, 10, 8)
	det := NewDetector(ds, 5)
	res, err := det.Evolutionary(EvoOptions{K: 2, M: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutlierSet.Test(400) {
		t.Error("evolutionary search missed the planted outlier")
	}
	if res.Generations == 0 || res.Evaluations == 0 {
		t.Errorf("telemetry empty: %+v", res)
	}
}

func TestEvolutionaryQualityNearBruteForce(t *testing.T) {
	// Table 1's claim: the evolutionary search achieves (nearly) the
	// brute-force quality. On a small problem, require >= 90%.
	ds := plantedDataset(300, 8, 9)
	det := NewDetector(ds, 4)
	bf, err := det.BruteForce(BruteForceOptions{K: 2, M: 10})
	if err != nil {
		t.Fatal(err)
	}
	ga, err := det.Evolutionary(EvoOptions{K: 2, M: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ga.Quality() > 0 || bf.Quality() > 0 {
		t.Fatalf("qualities positive: bf=%v ga=%v", bf.Quality(), ga.Quality())
	}
	if ratio := ga.Quality() / bf.Quality(); ratio < 0.9 {
		t.Errorf("GA quality %v vs brute %v (ratio %v), want >= 0.9",
			ga.Quality(), bf.Quality(), ratio)
	}
	// Note: on a problem this small the brute force needs fewer
	// evaluations than the GA — the paper's Table 1 shows the same
	// inversion on the 8-dimensional machine data set. The savings
	// claim is asserted separately on a larger space.
}

func TestEvolutionaryCheaperThanBruteOnLargeSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds := plantedDataset(500, 24, 27)
	det := NewDetector(ds, 4)
	ga, err := det.Evolutionary(EvoOptions{K: 3, M: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	space := cube.SpaceSize(24, 3, 4) // C(24,3)·4³ = 129,536
	if uint64(ga.Evaluations) >= space/4 {
		t.Errorf("GA used %d evaluations on a space of %d — expected far fewer",
			ga.Evaluations, space)
	}
	if q := ga.Quality(); !(q < -2) {
		t.Errorf("GA quality %v, want clearly negative", q)
	}
}

func TestEvolutionaryDeterministicPerSeed(t *testing.T) {
	ds := plantedDataset(200, 6, 10)
	det := NewDetector(ds, 4)
	a, err := det.Evolutionary(EvoOptions{K: 2, M: 5, Seed: 3, MaxGenerations: 30})
	if err != nil {
		t.Fatal(err)
	}
	b, err := det.Evolutionary(EvoOptions{K: 2, M: 5, Seed: 3, MaxGenerations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Projections) != len(b.Projections) {
		t.Fatalf("different projection counts %d vs %d", len(a.Projections), len(b.Projections))
	}
	for i := range a.Projections {
		if !a.Projections[i].Cube.Equal(b.Projections[i].Cube) {
			t.Errorf("projection %d differs across identical seeds", i)
		}
	}
	c, err := det.Evolutionary(EvoOptions{K: 2, M: 5, Seed: 4, MaxGenerations: 30})
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.Projections) == len(a.Projections)
	if same {
		for i := range a.Projections {
			if !a.Projections[i].Cube.Equal(c.Projections[i].Cube) {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("note: different seeds converged to identical projections (possible but unusual)")
	}
}

func TestEvolutionaryTwoPointStillWorks(t *testing.T) {
	ds := plantedDataset(300, 6, 11)
	det := NewDetector(ds, 4)
	res, err := det.Evolutionary(EvoOptions{K: 2, M: 5, Seed: 5, Crossover: TwoPointCrossover})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Projections) == 0 {
		t.Fatal("two-point crossover found nothing")
	}
	for _, p := range res.Projections {
		if p.Cube.K() != 2 {
			t.Errorf("retained infeasible projection %v", p.Cube)
		}
		if p.Count < 1 {
			t.Errorf("retained empty projection %v", p.Cube)
		}
	}
}

func TestEvolutionaryOnGenerationObserver(t *testing.T) {
	ds := plantedDataset(150, 5, 12)
	det := NewDetector(ds, 4)
	var gens []obs.GenerationEvent
	_, err := det.Evolutionary(EvoOptions{
		K: 2, M: 3, Seed: 1, MaxGenerations: 10, Patience: -1,
		Observer: obs.Funcs{Generation: func(e obs.GenerationEvent) { gens = append(gens, e) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("observer never called")
	}
	for i := 1; i < len(gens); i++ {
		if gens[i].Gen != gens[i-1].Gen+1 {
			t.Errorf("generation numbering gap at %d", i)
		}
		if gens[i].Evaluations < gens[i-1].Evaluations {
			t.Errorf("evaluation counter decreased at generation %d", i)
		}
	}
}

func TestTwoPointCrossoverPaperExample(t *testing.T) {
	// §2.2: 3*2*1 × 1*33* cut after position 3 → 3*23* and 1*3*1.
	det := NewDetector(plantedDataset(50, 5, 13), 4)
	s := &search{src: det.source(), opt: EvoOptions{K: 3}.withDefaults(), dims: resolveDims(det.D(), nil), rng: xrand.New(0)}
	a := mustGenome(t, "3*2*1")
	b := mustGenome(t, "1*33*")
	// Force the cut: try seeds until IntRange(1,4) yields 3.
	for seed := uint64(0); ; seed++ {
		r := xrand.New(seed)
		if r.IntRange(1, 4) == 3 {
			s.rng = xrand.New(seed)
			break
		}
	}
	ca, cb := s.twoPoint(a, b)
	if got := cube.Cube(ca).String(); got != "3*23*" {
		t.Errorf("child A = %s, want 3*23*", got)
	}
	if got := cube.Cube(cb).String(); got != "1*3*1" {
		t.Errorf("child B = %s, want 1*3*1", got)
	}
}

func mustGenome(t *testing.T, s string) evo.Genome {
	t.Helper()
	c, err := cube.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return evo.Genome(c)
}

func TestOptimizedCrossoverFeasibility(t *testing.T) {
	// Children of the optimized crossover are always k-dimensional.
	det := NewDetector(plantedDataset(200, 8, 14), 4)
	const k = 3
	s := newTestSearch(det, EvoOptions{K: k, M: 5, Seed: 9})
	for trial := 0; trial < 200; trial++ {
		a, b := make(evo.Genome, 8), make(evo.Genome, 8)
		s.randomGenome(a)
		s.randomGenome(b)
		ca, cb := s.recombine(a, b)
		if cube.Cube(ca).K() != k || cube.Cube(cb).K() != k {
			t.Fatalf("infeasible children %v (K=%d), %v (K=%d) from %v × %v",
				ca, cube.Cube(ca).K(), cb, cube.Cube(cb).K(), a, b)
		}
	}
}

func TestOptimizedCrossoverComplementarity(t *testing.T) {
	// At every position, the two children derive from different parents:
	// child[j] == a[j] implies comp[j] == b[j] and vice versa.
	det := NewDetector(plantedDataset(200, 6, 15), 4)
	s := newTestSearch(det, EvoOptions{K: 3, M: 5, Seed: 10})
	for trial := 0; trial < 100; trial++ {
		a, b := make(evo.Genome, 6), make(evo.Genome, 6)
		s.randomGenome(a)
		s.randomGenome(b)
		ca, cb := s.recombine(a, b)
		for j := range ca {
			fromA := ca[j] == a[j]
			fromB := ca[j] == b[j]
			switch {
			case fromA && fromB: // parents agree; both children agree too
				if cb[j] != a[j] {
					t.Fatalf("pos %d: parents agree on %d but comp has %d", j, a[j], cb[j])
				}
			case fromA:
				if cb[j] != b[j] {
					t.Fatalf("pos %d: child from A but comp not from B (%v×%v → %v,%v)", j, a, b, ca, cb)
				}
			case fromB:
				if cb[j] != a[j] {
					t.Fatalf("pos %d: child from B but comp not from A (%v×%v → %v,%v)", j, a, b, ca, cb)
				}
			default:
				t.Fatalf("pos %d: child value %d from neither parent (%v×%v)", j, ca[j], a, b)
			}
		}
	}
}

func TestOptimizedCrossoverChildNoWorseThanTypeIIChoices(t *testing.T) {
	// With identical dimension sets (pure Type II), the child must have
	// the minimum count over all 2^k'' recombinations.
	det := NewDetector(plantedDataset(300, 5, 16), 4)
	s := newTestSearch(det, EvoOptions{K: 2, M: 5, Seed: 11})
	a := evo.Genome(cube.FromPairs(5, cube.DimRange{Dim: 0, Range: 1}, cube.DimRange{Dim: 1, Range: 4}))
	b := evo.Genome(cube.FromPairs(5, cube.DimRange{Dim: 0, Range: 2}, cube.DimRange{Dim: 1, Range: 1}))
	ca, _ := s.recombine(a, b)
	bestCount := math.MaxInt
	for _, r0 := range []uint16{1, 2} {
		for _, r1 := range []uint16{4, 1} {
			c := cube.FromPairs(5, cube.DimRange{Dim: 0, Range: r0}, cube.DimRange{Dim: 1, Range: r1})
			if n := det.Index.Count(c); n < bestCount {
				bestCount = n
			}
		}
	}
	if got := det.Index.Count(cube.Cube(ca)); got != bestCount {
		t.Errorf("optimized child count = %d, exhaustive best = %d", got, bestCount)
	}
}

func TestOptimizedCrossoverInfeasibleParentFallsBack(t *testing.T) {
	det := NewDetector(plantedDataset(100, 5, 17), 4)
	s := newTestSearch(det, EvoOptions{K: 2, M: 5, Seed: 12})
	a := mustGenome(t, "12*3*") // K=3, infeasible for k=2
	b := mustGenome(t, "*1*2*")
	ca, cb := s.recombine(a, b)
	if len(ca) != 5 || len(cb) != 5 {
		t.Fatal("fallback children malformed")
	}
}

func TestMutationTypeIPreservesK(t *testing.T) {
	det := NewDetector(plantedDataset(100, 6, 18), 4)
	s := newTestSearch(det, EvoOptions{K: 3, M: 5, Seed: 13, MutateP1: 1, MutateP2: -1})
	g := make(evo.Genome, 6)
	s.randomGenome(g)
	pos := cube.Cube(g).Dims()
	for trial := 0; trial < 100; trial++ {
		s.mutate(g, pos)
		if got := cube.Cube(g).K(); got != 3 {
			t.Fatalf("Type I mutation changed K to %d", got)
		}
		for _, v := range g {
			if int(v) > det.Phi() {
				t.Fatalf("mutation produced out-of-range value %d", v)
			}
		}
	}
}

func TestMutationTypeIIChangesValueOnly(t *testing.T) {
	det := NewDetector(plantedDataset(100, 6, 19), 4)
	s := newTestSearch(det, EvoOptions{K: 3, M: 5, Seed: 14, MutateP1: -1, MutateP2: 1})
	g := make(evo.Genome, 6)
	s.randomGenome(g)
	dims := cube.Cube(g).Dims()
	pos := cube.Cube(g).Dims()
	for trial := 0; trial < 100; trial++ {
		before := g.Clone()
		s.mutate(g, pos)
		after := cube.Cube(g).Dims()
		if len(after) != len(dims) {
			t.Fatalf("Type II mutation changed dimensionality")
		}
		for i := range dims {
			if dims[i] != after[i] {
				t.Fatalf("Type II mutation moved a dimension: %v → %v", before, g)
			}
		}
		changed := 0
		for j := range g {
			if g[j] != before[j] {
				changed++
			}
		}
		if changed != 1 {
			t.Fatalf("Type II mutation changed %d positions, want exactly 1", changed)
		}
	}
}

func TestMutationFullDimensionalitySkipsTypeI(t *testing.T) {
	// k == d leaves no '*' position; Type I must be a no-op, not a panic.
	det := NewDetector(plantedDataset(100, 3, 20), 4)
	s := newTestSearch(det, EvoOptions{K: 3, M: 5, Seed: 15, MutateP1: 1, MutateP2: -1})
	g := make(evo.Genome, 3)
	s.randomGenome(g)
	before := g.Clone()
	s.mutate(g, cube.Cube(g).Dims())
	for j := range g {
		if g[j] == cube.DontCare {
			t.Fatalf("Type I mutation introduced '*' at full dimensionality: %v → %v", before, g)
		}
	}
}

func TestResultScoreAndRanking(t *testing.T) {
	ds := plantedDataset(400, 5, 21)
	det := NewDetector(ds, 5)
	res, err := det.BruteForce(BruteForceOptions{K: 2, M: 10})
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.RankedOutliers(det)
	if len(ranked) != len(res.Outliers) {
		t.Fatalf("ranked %d, outliers %d", len(ranked), len(res.Outliers))
	}
	// The planted record must be covered and must share the minimum
	// score; other count-1 cubes can tie it exactly, so equality of
	// score — not first rank — is the invariant.
	if !res.OutlierSet.Test(400) {
		t.Error("planted outlier not covered")
	} else if len(ranked) > 0 && res.Score(det, 400) != res.Score(det, ranked[0]) {
		t.Errorf("planted outlier score %v, top score %v",
			res.Score(det, 400), res.Score(det, ranked[0]))
	}
	prev := math.Inf(-1)
	for _, i := range ranked {
		sc := res.Score(det, i)
		if sc < prev {
			t.Fatal("ranking not monotone in score")
		}
		prev = sc
	}
	// A record covered by no projection scores 0.
	uncovered := -1
	for i := 0; i < det.N(); i++ {
		if !res.OutlierSet.Test(i) {
			uncovered = i
			break
		}
	}
	if uncovered >= 0 {
		if got := res.Score(det, uncovered); got != 0 {
			t.Errorf("uncovered record score = %v, want 0", got)
		}
	}
}

func TestCoveringProjections(t *testing.T) {
	ds := plantedDataset(300, 4, 22)
	det := NewDetector(ds, 5)
	res, err := det.BruteForce(BruteForceOptions{K: 2, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range res.Outliers {
		if len(res.CoveringProjections(det, i)) == 0 {
			t.Errorf("outlier %d covered by no projection", i)
		}
	}
	covering := res.CoveringProjections(det, 300)
	for _, pi := range covering {
		if !res.Projections[pi].Cube.Covers(det.Grid.CellsRow(300)) {
			t.Error("CoveringProjections returned non-covering projection")
		}
	}
}

func TestProjectionDescribe(t *testing.T) {
	ds := plantedDataset(100, 3, 23)
	ds.Names[0], ds.Names[1], ds.Names[2] = "crime", "tax", "age"
	det := NewDetector(ds, 4)
	res, err := det.BruteForce(BruteForceOptions{K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	desc := res.Projections[0].Describe(det)
	if desc == "" {
		t.Fatal("empty description")
	}
	if res.Projections[0].String() == "" {
		t.Fatal("empty String")
	}
	if sig := res.Projections[0].Significance(); sig <= 0 || sig >= 1 {
		t.Errorf("significance = %v", sig)
	}
}

func TestQualityNaNWhenEmpty(t *testing.T) {
	r := &Result{}
	if !math.IsNaN(r.Quality()) {
		t.Error("empty Quality not NaN")
	}
}

func TestAdvise(t *testing.T) {
	a := Advise(10000, 10, -3)
	if a.K != 3 || a.Phi != 10 {
		t.Errorf("Advise = %+v", a)
	}
	if a.EmptySparsity > -3 {
		t.Errorf("empty sparsity %v should be <= target -3", a.EmptySparsity)
	}
	if a.SingletonSparsity >= 0 {
		t.Errorf("singleton sparsity %v should be negative", a.SingletonSparsity)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
	det := NewDetector(plantedDataset(999, 4, 24), 10)
	da := det.Advise(-3)
	if da.Phi != 10 {
		t.Errorf("detector Advise phi = %d", da.Phi)
	}
	tbl := AdviseTable(10000, 10, []float64{-2, -3, -4})
	if len(tbl) != 3 || tbl[0].K < tbl[2].K {
		t.Errorf("AdviseTable = %+v", tbl)
	}
}

// newTestSearch builds a search with initialized internals for
// operator-level tests.
func newTestSearch(det *Detector, opt EvoOptions) *search {
	return &search{
		src:   det.source(),
		opt:   opt.withDefaults(),
		dims:  resolveDims(det.D(), opt.Dims),
		rng:   xrand.New(opt.Seed),
		bs:    evo.NewBestSet(opt.M),
		cache: make(map[string]fitEntry),
	}
}

// Property: on random parents, optimized-crossover children are
// feasible, valid cubes, and every position comes from a parent.
func TestQuickRecombineInvariants(t *testing.T) {
	det := NewDetector(plantedDataset(150, 7, 25), 3)
	s := newTestSearch(det, EvoOptions{K: 3, M: 5, Seed: 16})
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a, b := make(evo.Genome, 7), make(evo.Genome, 7)
		for _, g := range []evo.Genome{a, b} {
			for _, j := range r.Sample(7, 3) {
				g[j] = uint16(r.IntRange(1, 3))
			}
		}
		ca, cb := s.recombine(a, b)
		if cube.Cube(ca).K() != 3 || cube.Cube(cb).K() != 3 {
			return false
		}
		if !cube.Cube(ca).Valid(3) || !cube.Cube(cb).Valid(3) {
			return false
		}
		for j := range ca {
			if ca[j] != a[j] && ca[j] != b[j] {
				return false
			}
			if cb[j] != a[j] && cb[j] != b[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: two-point crossover conserves multiset of positions
// (each position value ends up in exactly one child).
func TestQuickTwoPointConservation(t *testing.T) {
	det := NewDetector(plantedDataset(60, 6, 26), 3)
	s := newTestSearch(det, EvoOptions{K: 2, M: 5, Seed: 17})
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a, b := make(evo.Genome, 6), make(evo.Genome, 6)
		for _, g := range []evo.Genome{a, b} {
			for _, j := range r.Sample(6, 2) {
				g[j] = uint16(r.IntRange(1, 3))
			}
		}
		ca, cb := s.twoPoint(a, b)
		for j := range ca {
			ok := (ca[j] == a[j] && cb[j] == b[j]) || (ca[j] == b[j] && cb[j] == a[j])
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestProjectionDescribeCategorical(t *testing.T) {
	// A categorical column rendered by name, not code interval.
	ds := dataset.New([]string{"color", "x"}, 0)
	r := xrand.New(60)
	codes := map[float64]string{0: "red", 1: "blue", 2: "green"}
	for i := 0; i < 120; i++ {
		// color correlates with x; (green, low x) never occurs
		c := float64(r.Intn(3))
		ds.AppendRow([]float64{c, clamp01(c/3 + 0.1*r.Float64())}, "")
	}
	ds.AppendRow([]float64{2, 0.05}, "planted") // green with low x
	ds.SetCategories(0, codes)
	det := NewDetector(ds, 3)
	res, err := det.BruteForce(BruteForceOptions{K: 2, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Projections {
		desc := p.Describe(det)
		if strings.Contains(desc, "color∈{") {
			found = true
		}
		if strings.Contains(desc, "color∈(") {
			t.Errorf("categorical column rendered as a numeric interval: %s", desc)
		}
	}
	if !found {
		t.Error("no projection rendered category names")
	}
}
