package core

import (
	"testing"

	"hido/internal/evo"
)

// TestSelectMutateAllocFree pins the generation operators that run
// before counting: once the population's buffers and the search's
// scratch exist, selecting and mutating a generation allocates nothing.
func TestSelectMutateAllocFree(t *testing.T) {
	det := NewDetector(plantedDataset(300, 12, 7), 5)
	for _, strategy := range []evo.Selection{evo.RankRoulette, evo.Tournament, evo.Uniform} {
		opt := EvoOptions{K: 3, M: 10, Seed: 11, Selection: strategy}.withDefaults()
		s := newSearch(det.Source(), opt)
		pop := evo.NewPopulation(opt.PopSize, det.D())
		s.randomPopulation(pop)
		s.evaluateAll(pop)
		generation := func() {
			pop.Select(strategy, s.rng)
			s.mutateAll(pop)
		}
		generation() // warm-up: the spare genome buffers and mutate's scratch
		if allocs := testing.AllocsPerRun(50, generation); allocs != 0 {
			t.Errorf("%v: Select plus mutateAll allocates %v times per generation", strategy, allocs)
		}
	}
}

// TestMigrateThenSelectOwnsBuffers runs whole island generations with
// the real migration between them and checks that selection never
// hands two members, or a member and a best-set entry, one array:
// crossover and mutation edit members in place, so any sharing would
// corrupt another member or a retained projection.
func TestMigrateThenSelectOwnsBuffers(t *testing.T) {
	det := NewDetector(plantedDataset(300, 12, 8), 5)
	opt := EvoOptions{K: 3, M: 10, PopSize: 20}.withDefaults()
	var searches []*search
	var islands []*evo.Population
	for i := 0; i < 3; i++ {
		o := opt
		o.Seed = uint64(i + 1)
		s := newSearch(det.Source(), o)
		pop := evo.NewPopulation(o.PopSize, det.D())
		s.randomPopulation(pop)
		s.evaluateAll(pop)
		s.offerAll(pop)
		searches, islands = append(searches, s), append(islands, pop)
	}
	for gen := 0; gen < 30; gen++ {
		owner := map[*uint16]bool{}
		for i, s := range searches {
			pop := islands[i]
			pop.Select(opt.Selection, s.rng)
			for _, e := range s.bs.Entries() {
				owner[&e.Genome[0]] = true
			}
			for m, g := range pop.Members {
				if owner[&g[0]] {
					t.Fatalf("gen %d island %d: member %d shares an array after Select", gen, i, m)
				}
				owner[&g[0]] = true
			}
			s.crossoverAll(pop)
			s.mutateAll(pop)
			s.evaluateAll(pop)
			s.offerAll(pop)
		}
		if gen%3 == 2 {
			evo.Migrate(islands, 2)
		}
	}
}

// evaluateAll scores pop for one search through the lockstep's
// evaluation phases, as a one-run generation does.
func (s *search) evaluateAll(pop *evo.Population) {
	s.queueMisses(pop)
	l := newLockstep(s.src, s.opt.Workers, []*search{s})
	defer l.team.Close()
	l.count()
	s.score(pop, l.counts[:len(s.ks)])
}

// crossoverAll recombines pop for one search through the lockstep's
// crossover phases, as a one-run generation does.
func (s *search) crossoverAll(pop *evo.Population) {
	s.pop = pop
	s.startPairs()
	l := newLockstep(s.src, s.opt.Workers, []*search{s})
	defer l.team.Close()
	l.recombine()
	s.finishPairs()
}
