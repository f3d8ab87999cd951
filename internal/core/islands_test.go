package core

import (
	"testing"

	"hido/internal/evo"
)

func TestIslandsFindPlantedOutlier(t *testing.T) {
	ds := plantedDataset(400, 10, 40)
	det := NewDetector(ds, 5)
	res, err := det.EvolutionaryIslands(IslandOptions{
		Evo: EvoOptions{K: 2, M: 10, Seed: 1, PopSize: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutlierSet.Test(400) {
		t.Error("island search missed the planted outlier")
	}
	if res.Generations == 0 || res.Evaluations == 0 {
		t.Error("telemetry empty")
	}
	for _, p := range res.Projections {
		if p.Cube.K() != 2 {
			t.Errorf("infeasible projection %v retained", p.Cube)
		}
	}
}

func TestIslandsDeterministicPerSeed(t *testing.T) {
	ds := plantedDataset(200, 6, 41)
	det := NewDetector(ds, 4)
	opt := IslandOptions{Evo: EvoOptions{K: 2, M: 8, Seed: 5, PopSize: 30, MaxGenerations: 40}}
	a, err := det.EvolutionaryIslands(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := det.EvolutionaryIslands(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Projections) != len(b.Projections) {
		t.Fatalf("projection counts differ: %d vs %d", len(a.Projections), len(b.Projections))
	}
	for i := range a.Projections {
		if !a.Projections[i].Cube.Equal(b.Projections[i].Cube) {
			t.Fatalf("projection %d differs across identical runs", i)
		}
	}
}

func TestIslandsCoverAtLeastSingleRun(t *testing.T) {
	// With the same total population budget, the island model should
	// retain at least as many distinct qualifying projections as one
	// big population (diversity preservation) — allow slack of a few.
	ds := plantedDataset(500, 12, 42)
	det := NewDetector(ds, 5)
	single, err := det.Evolutionary(EvoOptions{K: 2, M: 30, Seed: 3, PopSize: 120})
	if err != nil {
		t.Fatal(err)
	}
	isl, err := det.EvolutionaryIslands(IslandOptions{
		Evo:     EvoOptions{K: 2, M: 30, Seed: 3, PopSize: 30},
		Islands: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(isl.Projections)+5 < len(single.Projections) {
		t.Errorf("islands retained %d projections, single population %d",
			len(isl.Projections), len(single.Projections))
	}
}

func TestIslandsValidation(t *testing.T) {
	det := NewDetector(plantedDataset(50, 3, 43), 3)
	if _, err := det.EvolutionaryIslands(IslandOptions{Evo: EvoOptions{K: 9, M: 5}}); err == nil {
		t.Error("bad K accepted")
	}
	if _, err := det.EvolutionaryIslands(IslandOptions{
		Evo: EvoOptions{K: 2, M: 5, PopSize: 4}, Migrants: 4,
	}); err == nil {
		t.Error("migrants >= island size accepted")
	}
	if _, err := det.EvolutionaryIslands(IslandOptions{
		Evo: EvoOptions{K: 2, M: 5}, Islands: -1,
	}); err == nil {
		t.Error("negative islands accepted")
	}
}

func TestMigrateRing(t *testing.T) {
	// Two islands of three members; best of each must land on the other,
	// replacing the worst.
	a := evo.NewPopulation(3, 1)
	a.Members[0], a.Fitness[0] = evo.Genome{1}, -10 // best of a
	a.Members[1], a.Fitness[1] = evo.Genome{2}, -5
	a.Members[2], a.Fitness[2] = evo.Genome{3}, 0 // worst of a
	b := evo.NewPopulation(3, 1)
	b.Members[0], b.Fitness[0] = evo.Genome{4}, -8 // best of b
	b.Members[1], b.Fitness[1] = evo.Genome{5}, -4
	b.Members[2], b.Fitness[2] = evo.Genome{6}, 1 // worst of b

	evo.Migrate([]*evo.Population{a, b}, 1)

	// a's best (genome 1, fitness -10) replaced b's worst slot.
	found := false
	for m := range b.Members {
		if b.Members[m][0] == 1 && b.Fitness[m] == -10 {
			found = true
		}
		if b.Members[m][0] == 6 {
			t.Error("b's worst member survived migration")
		}
	}
	if !found {
		t.Error("a's best did not migrate to b")
	}
	// b's best (genome 4) replaced a's worst slot.
	found = false
	for m := range a.Members {
		if a.Members[m][0] == 4 && a.Fitness[m] == -8 {
			found = true
		}
		if a.Members[m][0] == 3 {
			t.Error("a's worst member survived migration")
		}
	}
	if !found {
		t.Error("b's best did not migrate to a")
	}
}
