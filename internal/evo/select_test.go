package evo

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"hido/internal/xrand"
)

// cloneSelect is the reference selection: every draw cloned into a
// fresh genome and the rank order taken by sort.SliceStable. Select
// must make exactly its draws.
func cloneSelect(pop *Population, strategy Selection, rng *xrand.RNG) {
	p := pop.Len()
	members := make([]Genome, p)
	fitness := make([]float64, p)
	pick := func(i, j int) {
		members[i] = pop.Members[j].Clone()
		fitness[i] = pop.Fitness[j]
	}
	switch strategy {
	case RankRoulette:
		order := make([]int, p)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return pop.Fitness[order[a]] < pop.Fitness[order[b]]
		})
		weights := make([]float64, p)
		for rank, idx := range order {
			weights[idx] = float64(p - (rank + 1))
		}
		if p == 1 {
			weights[0] = 1
		}
		for i := 0; i < p; i++ {
			pick(i, rng.WeightedChoice(weights))
		}
	case Tournament:
		for i := 0; i < p; i++ {
			a, b := rng.Intn(p), rng.Intn(p)
			if pop.Fitness[b] < pop.Fitness[a] {
				a = b
			}
			pick(i, a)
		}
	case Uniform:
		for i := 0; i < p; i++ {
			pick(i, rng.Intn(p))
		}
	}
	pop.Members, pop.Fitness = members, fitness
}

// randomPopulation fills a population with short genomes and fitness
// values drawn from a few levels, so ranks tie often; +Inf marks the
// infeasible members two-point crossover produces, NaN a degenerate
// count.
func randomPopulation(r *xrand.RNG, p, genomeLen int) *Population {
	pop := NewPopulation(p, genomeLen)
	for i := range pop.Members {
		for j := range pop.Members[i] {
			pop.Members[i][j] = uint16(r.Intn(4))
		}
		pop.Fitness[i] = randomFitness(r)
	}
	return pop
}

func randomFitness(r *xrand.RNG) float64 {
	switch r.Intn(20) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.NaN()
	}
	return -float64(r.Intn(6)) / 2
}

// deepCopy returns an independent copy of pop's members and fitness.
func deepCopy(pop *Population) *Population {
	out := &Population{Fitness: append([]float64(nil), pop.Fitness...)}
	for _, g := range pop.Members {
		out.Members = append(out.Members, g.Clone())
	}
	return out
}

// samePopulation compares members and fitness bit for bit.
func samePopulation(a, b *Population) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%d members, reference %d", a.Len(), b.Len())
	}
	for i := range a.Members {
		if !slices.Equal(a.Members[i], b.Members[i]) {
			return fmt.Errorf("member %d = %v, reference %v", i, a.Members[i], b.Members[i])
		}
		if math.Float64bits(a.Fitness[i]) != math.Float64bits(b.Fitness[i]) {
			return fmt.Errorf("fitness %d = %v, reference %v", i, a.Fitness[i], b.Fitness[i])
		}
	}
	return nil
}

// checkNoAliasing fails when two members share a backing array or a
// member shares one with a best-set entry.
func checkNoAliasing(t *testing.T, label string, pop *Population, bs *BestSet) {
	t.Helper()
	owner := map[*uint16]string{}
	for _, e := range bs.entries {
		owner[&e.Genome[0]] = "a best-set entry"
	}
	for i, g := range pop.Members {
		if o, ok := owner[&g[0]]; ok {
			t.Fatalf("%s: member %d shares its array with %s", label, i, o)
		}
		owner[&g[0]] = fmt.Sprintf("member %d", i)
	}
}

// TestSelectMatchesCloneReference runs Select and the clone-based
// reference side by side over many generations of every strategy,
// editing members in place between generations as crossover and
// mutation do, and replacing some with clones from another island as
// migration does.
func TestSelectMatchesCloneReference(t *testing.T) {
	const p, genomeLen, gens = 51, 12, 300
	for _, strategy := range []Selection{RankRoulette, Tournament, Uniform} {
		seed := uint64(strategy) + 1
		got := randomPopulation(xrand.New(seed), p, genomeLen)
		want := deepCopy(got)
		island := randomPopulation(xrand.New(seed+100), p, genomeLen)
		rngGot, rngWant, edits := xrand.New(seed), xrand.New(seed), xrand.New(seed+200)
		bs := NewBestSet(10)
		for gen := 0; gen < gens; gen++ {
			got.Select(strategy, rngGot)
			cloneSelect(want, strategy, rngWant)
			label := fmt.Sprintf("%v gen %d", strategy, gen)
			if err := samePopulation(got, want); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if a, b := rngGot.Uint64(), rngWant.Uint64(); a != b {
				t.Fatalf("%s: RNG streams diverged", label)
			}
			checkNoAliasing(t, label, got, bs)

			// In-place edits and fresh fitness, applied to both sides.
			for i := range got.Members {
				if edits.Bernoulli(0.5) {
					j, v := edits.Intn(genomeLen), uint16(edits.Intn(4))
					got.Members[i][j], want.Members[i][j] = v, v
					f := randomFitness(edits)
					got.Fitness[i], want.Fitness[i] = f, f
				}
				bs.Offer(got.Members[i], got.Fitness[i])
			}
			if gen%5 == 4 {
				// Migration: clones of the other island's members replace
				// a few of this island's.
				for m := 0; m < 3; m++ {
					slot, src := edits.Intn(p), edits.Intn(p)
					got.Members[slot], got.Fitness[slot] = island.Members[src].Clone(), island.Fitness[src]
					want.Members[slot], want.Fitness[slot] = island.Members[src].Clone(), island.Fitness[src]
				}
				island.Select(strategy, edits)
			}
		}
	}
}
