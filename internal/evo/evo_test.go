package evo

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hido/internal/cube"
	"hido/internal/xrand"
)

func TestGenomeCloneKey(t *testing.T) {
	g := Genome{0, 3, 0, 9}
	c := g.Clone()
	c[0] = 5
	if g[0] != 0 {
		t.Error("Clone shares storage")
	}

	// Genome.Key is cube.Cube.Key of the same positions.
	r := xrand.New(1)
	randomGenome := func(d, k int, maxRange uint16) Genome {
		g := make(Genome, d)
		for _, j := range r.Sample(d, k) {
			g[j] = uint16(r.IntRange(1, int(maxRange)))
		}
		return g
	}
	for i := 0; i < 200; i++ {
		d := 1 + r.Intn(300)
		g := randomGenome(d, r.Intn(d+1), 65535)
		if g.Key() != cube.Cube(g).Key() {
			t.Fatalf("Genome.Key %q differs from Cube.Key %q", g.Key(), cube.Cube(g).Key())
		}
	}

	// Distinct genomes of one dimensionality get distinct keys, across
	// the uvarint width steps of both dimensions (128, 16384) and ranges
	// (up to 65535), and against multi-digit ambiguity.
	for _, d := range []int{4, 130, 16390} {
		keys := map[string]Genome{}
		add := func(g Genome) {
			k := g.Key()
			if prev, ok := keys[k]; ok && !slices.Equal(prev, g) {
				t.Fatalf("d=%d: genomes share key %q", d, k)
			}
			keys[k] = g.Clone()
		}
		dims := []int{0, 1, 2, 3}
		if d > 4 {
			dims = append(dims, 127, 128, 129)
		}
		if d > 16384 {
			dims = append(dims, 16383, 16384, 16385)
		}
		ranges := []uint16{1, 2, 9, 10, 11, 23, 127, 128, 255, 256, 16383, 16384, 65534, 65535}
		for _, a := range dims {
			for _, ra := range ranges {
				add(Genome(cube.FromPairs(d, cube.DimRange{Dim: a, Range: ra})))
				for _, b := range dims {
					if b <= a {
						continue
					}
					for _, rb := range ranges {
						add(Genome(cube.FromPairs(d, cube.DimRange{Dim: a, Range: ra}, cube.DimRange{Dim: b, Range: rb})))
					}
				}
			}
		}
		add(make(Genome, d))
		for i := 0; i < 2000; i++ {
			add(randomGenome(d, 1+r.Intn(4), 65535))
		}
	}

	// Key length grows with k, not with d: the same constraints on a
	// wider genome give the same key, and each pair adds a bounded
	// number of bytes.
	for k := 1; k <= 8; k++ {
		small := randomGenome(8, k, 9)
		wide := make(Genome, 20000)
		copy(wide, small)
		if small.Key() != wide.Key() {
			t.Fatalf("k=%d: key depends on d: %q vs %q", k, small.Key(), wide.Key())
		}
		if n := len(randomGenome(20000, k, 65535).Key()); n > 6*k {
			t.Fatalf("k=%d: %d-byte key", k, n)
		}
	}
}

func TestNewPopulation(t *testing.T) {
	pop := NewPopulation(5, 3)
	if pop.Len() != 5 || len(pop.Members[0]) != 3 {
		t.Fatalf("population shape wrong")
	}
}

func TestBest(t *testing.T) {
	pop := NewPopulation(3, 1)
	pop.Fitness = []float64{-1, -5, -3}
	if pop.Best() != 1 {
		t.Errorf("Best = %d", pop.Best())
	}
}

func TestFitnessStats(t *testing.T) {
	pop := NewPopulation(4, 2)
	pop.Fitness = []float64{-4, -2, 0, 2}
	s := pop.FitnessStats(7)
	if s.Gen != 7 || s.BestFit != -4 || s.WorstFit != 2 || s.MeanFit != -1 {
		t.Errorf("FitnessStats = %+v", s)
	}
}

func TestRankRouletteFavorsBest(t *testing.T) {
	// With fitnesses -10 (best) .. 0 (worst), the best member should be
	// selected far more often than the worst; the worst (weight 0)
	// should vanish.
	rng := xrand.New(1)
	counts := map[uint16]int{}
	for trial := 0; trial < 300; trial++ {
		pop := NewPopulation(5, 1)
		for i := range pop.Members {
			pop.Members[i][0] = uint16(i + 1)
			pop.Fitness[i] = float64(i) * 2.5
		}
		pop.Select(RankRoulette, rng)
		for _, m := range pop.Members {
			counts[m[0]]++
		}
	}
	if counts[5] != 0 {
		t.Errorf("worst member selected %d times, want 0 (weight p-r = 0)", counts[5])
	}
	if counts[1] <= counts[4] {
		t.Errorf("best selected %d, near-worst %d; want strong bias", counts[1], counts[4])
	}
	// Expected shares: weights 4,3,2,1,0 → best ~40%.
	total := 0
	for _, c := range counts {
		total += c
	}
	share := float64(counts[1]) / float64(total)
	if share < 0.35 || share > 0.45 {
		t.Errorf("best share = %v, want ≈0.40", share)
	}
}

func TestSelectPreservesFitnessPairing(t *testing.T) {
	rng := xrand.New(2)
	pop := NewPopulation(6, 1)
	for i := range pop.Members {
		pop.Members[i][0] = uint16(i)
		pop.Fitness[i] = -float64(i)
	}
	for _, strat := range []Selection{RankRoulette, Tournament, Uniform} {
		p := NewPopulation(6, 1)
		copy(p.Fitness, pop.Fitness)
		for i := range p.Members {
			copy(p.Members[i], pop.Members[i])
		}
		p.Select(strat, rng)
		for i, m := range p.Members {
			if p.Fitness[i] != -float64(m[0]) {
				t.Errorf("%v: fitness %v does not match genome %v", strat, p.Fitness[i], m)
			}
		}
	}
}

func TestSelectCopiesGenomes(t *testing.T) {
	rng := xrand.New(3)
	pop := NewPopulation(2, 1)
	pop.Fitness = []float64{-1, 0}
	pop.Select(RankRoulette, rng)
	pop.Members[0][0] = 42
	for i := 1; i < pop.Len(); i++ {
		if pop.Members[i][0] == 42 && &pop.Members[i][0] == &pop.Members[0][0] {
			t.Fatal("selected genomes alias each other")
		}
	}
}

func TestSelectSingleton(t *testing.T) {
	rng := xrand.New(4)
	pop := NewPopulation(1, 2)
	pop.Fitness[0] = -3
	pop.Select(RankRoulette, rng) // must not panic on all-zero weights
	if pop.Len() != 1 || pop.Fitness[0] != -3 {
		t.Error("singleton selection broke population")
	}
}

func TestSelectUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown selection did not panic")
		}
	}()
	NewPopulation(2, 1).Select(Selection(99), xrand.New(1))
}

func TestSelectionString(t *testing.T) {
	if RankRoulette.String() != "rank-roulette" || Tournament.String() != "tournament" ||
		Uniform.String() != "uniform" || Selection(9).String() == "" {
		t.Error("Selection.String wrong")
	}
}

func TestPairsDisjointCover(t *testing.T) {
	rng := xrand.New(5)
	pop := NewPopulation(10, 1)
	pairs := pop.Pairs(rng)
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	seen := map[int]bool{}
	for _, p := range pairs {
		if seen[p[0]] || seen[p[1]] || p[0] == p[1] {
			t.Fatalf("pairing reuses members: %v", pairs)
		}
		seen[p[0]], seen[p[1]] = true, true
	}
}

func TestPairsOdd(t *testing.T) {
	rng := xrand.New(6)
	pop := NewPopulation(7, 1)
	if got := len(pop.Pairs(rng)); got != 3 {
		t.Errorf("odd population: %d pairs, want 3", got)
	}
}

func TestConvergence(t *testing.T) {
	pop := NewPopulation(20, 3)
	for i := range pop.Members {
		pop.Members[i] = Genome{1, 2, 3}
		pop.Reindex(i)
	}
	if !pop.Converged() {
		t.Error("identical population not converged")
	}
	// Perturb one gene on 2 of 20 members (90% agreement < 95%).
	pop.Members[0] = Genome{9, 2, 3}
	pop.Members[1] = Genome{8, 2, 3}
	pop.Reindex(0)
	pop.Reindex(1)
	if pop.Converged() {
		t.Error("90%-agreeing gene counted as converged")
	}
	if got := pop.ConvergedFraction(0.95); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("ConvergedFraction = %v, want 2/3", got)
	}
	// One dissenter in 20 → 95% agreement → converged.
	pop.Members[1] = Genome{1, 2, 3}
	pop.Reindex(1)
	if !pop.Converged() {
		t.Error("95%-agreeing population not converged")
	}
}

func TestBestSetOrderingAndDedup(t *testing.T) {
	bs := NewBestSet(3)
	if !bs.Offer(Genome{1}, -1) || !bs.Offer(Genome{2}, -5) || !bs.Offer(Genome{3}, -3) {
		t.Fatal("initial offers rejected")
	}
	if bs.Offer(Genome{2}, -5) {
		t.Error("duplicate accepted")
	}
	e := bs.Entries()
	if e[0].Fitness != -5 || e[1].Fitness != -3 || e[2].Fitness != -1 {
		t.Fatalf("entries not sorted: %+v", e)
	}
	// Better solution evicts the worst.
	if !bs.Offer(Genome{4}, -4) {
		t.Error("improving offer rejected")
	}
	e = bs.Entries()
	if len(e) != 3 || e[2].Fitness != -3 {
		t.Fatalf("eviction wrong: %+v", e)
	}
	// The evicted genome may now be re-offered (and rejected on fitness).
	if bs.Offer(Genome{1}, -1) {
		t.Error("worse-than-worst accepted")
	}
	// Equal-to-worst is rejected (strict improvement required).
	if bs.Offer(Genome{9}, -3) {
		t.Error("equal-to-worst accepted")
	}
}

func TestBestSetWorstThreshold(t *testing.T) {
	bs := NewBestSet(2)
	if !math.IsInf(bs.Worst(), 1) {
		t.Error("Worst of non-full set not +Inf")
	}
	bs.Offer(Genome{1}, -1)
	if !math.IsInf(bs.Worst(), 1) {
		t.Error("Worst of non-full set not +Inf")
	}
	bs.Offer(Genome{2}, -2)
	if bs.Worst() != -1 {
		t.Errorf("Worst = %v", bs.Worst())
	}
}

func TestBestSetMeanFitness(t *testing.T) {
	bs := NewBestSet(5)
	if !math.IsNaN(bs.MeanFitness()) {
		t.Error("empty MeanFitness not NaN")
	}
	bs.Offer(Genome{1}, -2)
	bs.Offer(Genome{2}, -4)
	if got := bs.MeanFitness(); got != -3 {
		t.Errorf("MeanFitness = %v", got)
	}
}

func TestBestSetClones(t *testing.T) {
	bs := NewBestSet(2)
	g := Genome{7}
	bs.Offer(g, -1)
	g[0] = 9
	if bs.Entries()[0].Genome[0] != 7 {
		t.Error("BestSet did not clone the genome")
	}
}

func TestBestSetSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBestSet(0) did not panic")
		}
	}()
	NewBestSet(0)
}

// Property: after arbitrary offers, entries are sorted, within size,
// deduplicated, and contain the true best offer.
func TestQuickBestSetInvariants(t *testing.T) {
	f := func(fits []int8, mRaw uint8) bool {
		m := int(mRaw)%5 + 1
		bs := NewBestSet(m)
		best := math.Inf(1)
		seen := map[string]bool{}
		for i, fr := range fits {
			g := Genome{uint16(i % 7)}
			f := float64(fr)
			if !seen[g.Key()] && f < best {
				best = f
			}
			// mirror dedup semantics: only first offer of a key counts for
			// the "best" tracking above (later dup offers are ignored)
			bs.Offer(g, f)
			seen[g.Key()] = true
		}
		e := bs.Entries()
		if len(e) > m {
			return false
		}
		keys := map[string]bool{}
		for i := range e {
			if i > 0 && e[i].Fitness < e[i-1].Fitness {
				return false
			}
			if keys[e[i].Genome.Key()] {
				return false
			}
			keys[e[i].Genome.Key()] = true
		}
		if len(fits) > 0 && len(e) > 0 && e[0].Fitness > best {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
