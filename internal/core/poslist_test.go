package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"hido/internal/cube"
	"hido/internal/evo"
	"hido/internal/xrand"
)

// checkPositionLists fails unless every member's position list equals
// a dense scan of its genome.
func checkPositionLists(t *testing.T, label string, pop *evo.Population) {
	t.Helper()
	for i, g := range pop.Members {
		want := cube.Cube(g).AppendDims([]int{})
		if got := pop.Pos[i]; !reflect.DeepEqual(append([]int{}, got...), want) {
			t.Fatalf("%s: member %d %v lists %v, dense scan %v", label, i, cube.Cube(g), got, want)
		}
	}
}

// generationChecked runs one generation of Figure 3's loop, checking
// the lists after every operator.
func generationChecked(t *testing.T, label string, s *search, pop *evo.Population) {
	t.Helper()
	pop.Select(s.opt.Selection, s.rng)
	checkPositionLists(t, label+"/select", pop)
	s.crossoverAll(pop)
	checkPositionLists(t, label+"/crossover", pop)
	s.mutateAll(pop)
	checkPositionLists(t, label+"/mutate", pop)
	s.evaluateAll(pop)
	s.offerAll(pop)
}

// TestPositionListsTrackGenomes is the differential test of the
// position lists: whole generations of every selection, both
// crossovers (with the greedy Type II fallback and infeasible parents),
// certain mutation, and a feature bag, each operator's output checked
// against a dense scan of the genomes.
func TestPositionListsTrackGenomes(t *testing.T) {
	det := NewDetector(plantedDataset(300, 12, 70), 5)
	bag := []int{0, 2, 3, 5, 7, 8, 11}
	cases := []struct {
		name string
		opt  EvoOptions
		// infeasible switches a two-point population to the optimized
		// crossover after a few generations, so pairs of mixed
		// dimensionality meet the optimized operator.
		infeasible bool
	}{
		{"roulette", EvoOptions{K: 3}, false},
		{"tournament", EvoOptions{K: 3, Selection: evo.Tournament}, false},
		{"uniform", EvoOptions{K: 3, Selection: evo.Uniform}, false},
		{"two-point", EvoOptions{K: 3, Crossover: TwoPointCrossover}, false},
		{"greedy-typeII", EvoOptions{K: 5, TypeIIExhaustiveLimit: 1}, false},
		{"infeasible-parents", EvoOptions{K: 3, Crossover: TwoPointCrossover}, true},
		{"mutate-always", EvoOptions{K: 3, MutateP1: 1, MutateP2: 1}, false},
		{"bag", EvoOptions{K: 3, Dims: bag, MutateP1: 1, MutateP2: 1}, false},
		{"bag-two-point", EvoOptions{K: 3, Dims: bag, Crossover: TwoPointCrossover, MutateP1: 1}, false},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.M, opt.PopSize, opt.Seed = 5, 30, uint64(ci+1)
			s := newSearch(det.Source(), opt.withDefaults())
			pop := evo.NewPopulation(opt.PopSize, det.D())
			s.randomPopulation(pop)
			checkPositionLists(t, "init", pop)
			s.evaluateAll(pop)
			for gen := 0; gen < 25; gen++ {
				if tc.infeasible && gen == 3 {
					s.opt.Crossover = OptimizedCrossover
				}
				generationChecked(t, fmt.Sprintf("gen %d", gen), s, pop)
			}
		})
	}
}

// TestPositionListsIslandMigration checks the lists of island
// populations across generations and ring migrations.
func TestPositionListsIslandMigration(t *testing.T) {
	det := NewDetector(plantedDataset(300, 12, 71), 5)
	var searches []*search
	var islands []*evo.Population
	for i := 0; i < 3; i++ {
		opt := EvoOptions{K: 3, M: 5, PopSize: 20, Seed: uint64(i + 1)}
		if i == 2 {
			opt.Crossover = TwoPointCrossover
		}
		s := newSearch(det.Source(), opt.withDefaults())
		pop := evo.NewPopulation(20, det.D())
		s.randomPopulation(pop)
		s.evaluateAll(pop)
		searches, islands = append(searches, s), append(islands, pop)
	}
	for gen := 0; gen < 20; gen++ {
		for i, s := range searches {
			generationChecked(t, fmt.Sprintf("gen %d island %d", gen, i), s, islands[i])
		}
		if gen%3 == 2 {
			migrate(islands, 3)
			for i, pop := range islands {
				checkPositionLists(t, fmt.Sprintf("gen %d island %d/migrate", gen, i), pop)
			}
		}
	}
}

// TestPositionListsCheckpointResume restores a population from a
// checkpoint and keeps checking its lists as the search continues.
func TestPositionListsCheckpointResume(t *testing.T) {
	det := NewDetector(plantedDataset(300, 12, 72), 5)
	path := filepath.Join(t.TempDir(), "evo.ckpt")
	for _, xover := range []CrossoverKind{OptimizedCrossover, TwoPointCrossover} {
		opt := EvoOptions{K: 3, M: 5, PopSize: 30, Seed: 4, MaxGenerations: 6, Patience: -1,
			Crossover: xover, Checkpoint: &CheckpointOptions{Path: path}}
		if _, err := det.Evolutionary(opt); err != nil {
			t.Fatal(err)
		}
		opt = opt.withDefaults()
		opt.Checkpoint.Resume = true
		s := newSearch(det.Source(), opt)
		pop := evo.NewPopulation(opt.PopSize, det.D())
		cp := newEvoCheckpointer(*opt.Checkpoint, evoFingerprint(det.Source(), opt))
		if _, _, ok, err := cp.restore(s, pop); err != nil || !ok {
			t.Fatalf("%v: restore: ok=%v err=%v", xover, ok, err)
		}
		checkPositionLists(t, fmt.Sprintf("%v/restore", xover), pop)
		for gen := 0; gen < 10; gen++ {
			generationChecked(t, fmt.Sprintf("%v gen %d", xover, gen), s, pop)
		}
	}
}

// denseMutate is the reference mutation: it rebuilds the '*' and
// non-'*' position lists by scanning the genome, then makes mutate's
// draws. mutate must make exactly its draws and edits.
func denseMutate(s *search, g evo.Genome) {
	if s.rng.Bernoulli(s.opt.MutateP1) {
		var stars, filled []int
		for _, j := range s.dims {
			if g[j] == cube.DontCare {
				stars = append(stars, j)
			} else {
				filled = append(filled, j)
			}
		}
		if len(stars) > 0 && len(filled) > 0 {
			in := stars[s.rng.Intn(len(stars))]
			out := filled[s.rng.Intn(len(filled))]
			g[in] = uint16(s.rng.IntRange(1, s.src.Phi()))
			g[out] = cube.DontCare
		}
	}
	if s.rng.Bernoulli(s.opt.MutateP2) {
		filled := cube.Cube(g).Dims()
		if len(filled) > 0 {
			j := filled[s.rng.Intn(len(filled))]
			if phi := s.src.Phi(); phi > 1 {
				old := g[j]
				for {
					g[j] = uint16(s.rng.IntRange(1, phi))
					if g[j] != old {
						break
					}
				}
			}
		}
	}
}

// TestPositionListsMutateMatchesDense holds mutate — Type I's star
// draw mapped through the sorted list, with a binary search into a
// feature bag — to the dense reference: same genome, same list, same
// RNG state, at every dimensionality from empty to the whole bag.
func TestPositionListsMutateMatchesDense(t *testing.T) {
	det := NewDetector(plantedDataset(200, 14, 73), 6)
	for _, dims := range [][]int{nil, {1, 2, 4, 7, 8, 9, 13}, {0, 13}} {
		opt := EvoOptions{K: 1, M: 5, Dims: dims, MutateP1: 0.7, MutateP2: 0.6}.withDefaults()
		got, want := newSearch(det.Source(), opt), newSearch(det.Source(), opt)
		gen := xrand.New(9)
		for trial := 0; trial < 400; trial++ {
			g := make(evo.Genome, det.D())
			for _, i := range gen.Sample(len(got.dims), gen.Intn(len(got.dims)+1)) {
				g[got.dims[i]] = uint16(gen.IntRange(1, det.Phi()))
			}
			seed := gen.Uint64()
			got.rng, want.rng = xrand.New(seed), xrand.New(seed)
			wg, gg := g.Clone(), g.Clone()
			pos := cube.Cube(gg).Dims()
			for step := 0; step < 5; step++ {
				denseMutate(want, wg)
				got.mutate(gg, pos)
				if !reflect.DeepEqual(gg, wg) || got.rng.State() != want.rng.State() {
					t.Fatalf("bag %v trial %d step %d: %v from %v, dense reference %v", dims, trial, step, gg, g, wg)
				}
				if dense := cube.Cube(gg).Dims(); !reflect.DeepEqual(pos, dense) {
					t.Fatalf("bag %v trial %d step %d: list %v, dense scan %v", dims, trial, step, pos, dense)
				}
			}
		}
	}
}
