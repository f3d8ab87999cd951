package core

import "testing"

// resultsEqual compares everything deterministic about two Results:
// projections (cube, sparsity, count), the covered point set, and the
// search telemetry. Elapsed is wall clock and excluded.
func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Projections) != len(b.Projections) {
		t.Fatalf("%s: projection counts %d vs %d", label, len(a.Projections), len(b.Projections))
	}
	for i := range a.Projections {
		pa, pb := a.Projections[i], b.Projections[i]
		if !pa.Cube.Equal(pb.Cube) {
			t.Fatalf("%s: projection %d cube %v vs %v", label, i, pa.Cube, pb.Cube)
		}
		if pa.Sparsity != pb.Sparsity || pa.Count != pb.Count {
			t.Fatalf("%s: projection %d stats (S=%v n=%d) vs (S=%v n=%d)",
				label, i, pa.Sparsity, pa.Count, pb.Sparsity, pb.Count)
		}
	}
	if len(a.Outliers) != len(b.Outliers) {
		t.Fatalf("%s: outlier counts %d vs %d", label, len(a.Outliers), len(b.Outliers))
	}
	for i := range a.Outliers {
		if a.Outliers[i] != b.Outliers[i] {
			t.Fatalf("%s: outlier %d is record %d vs %d", label, i, a.Outliers[i], b.Outliers[i])
		}
	}
	if a.Evaluations != b.Evaluations {
		t.Fatalf("%s: evaluations %d vs %d", label, a.Evaluations, b.Evaluations)
	}
	if a.Pruned != b.Pruned {
		t.Fatalf("%s: pruned %d vs %d", label, a.Pruned, b.Pruned)
	}
	if a.Generations != b.Generations {
		t.Fatalf("%s: generations %d vs %d", label, a.Generations, b.Generations)
	}
	if a.ConvergedDeJong != b.ConvergedDeJong {
		t.Fatalf("%s: converged %v vs %v", label, a.ConvergedDeJong, b.ConvergedDeJong)
	}
}

// The parallel evaluator must be invisible in the results: any worker
// count yields the same Result as the serial run.
func TestEvolutionaryDeterministicAcrossWorkers(t *testing.T) {
	ds := plantedDataset(300, 8, 40)
	det := NewDetector(ds, 4)
	base := EvoOptions{K: 3, M: 8, Seed: 7, MaxGenerations: 25, Patience: -1}

	ref, err := det.Evolutionary(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Projections) == 0 {
		t.Fatal("reference run found nothing; test dataset too easy to misconfigure silently")
	}
	for _, workers := range []int{1, 2, 8} {
		o := base
		o.Workers = workers
		got, err := det.Evolutionary(o)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, labelW("evolutionary", workers), ref, got)
	}
}

func TestEvolutionaryRestartsDeterministicAcrossWorkers(t *testing.T) {
	ds := plantedDataset(250, 7, 41)
	det := NewDetector(ds, 4)
	base := EvoOptions{K: 2, M: 6, Seed: 11, MaxGenerations: 20, Patience: -1}

	ref, err := det.EvolutionaryRestarts(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		o := base
		o.Workers = workers
		got, err := det.EvolutionaryRestarts(o, 3)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, labelW("restarts", workers), ref, got)
	}
}

func TestEvolutionaryIslandsDeterministicAcrossWorkers(t *testing.T) {
	ds := plantedDataset(250, 7, 42)
	det := NewDetector(ds, 4)
	base := IslandOptions{
		Evo:     EvoOptions{K: 2, M: 6, Seed: 13, MaxGenerations: 20, Patience: -1, PopSize: 30},
		Islands: 3,
	}

	ref, err := det.EvolutionaryIslands(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		o := base
		o.Evo.Workers = workers
		got, err := det.EvolutionaryIslands(o)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, labelW("islands", workers), ref, got)
	}
}

// The sharded brute-force enumeration must be invisible in the
// results: any worker count yields the same Result — projections,
// sparsity values, outliers, Evaluations, Pruned — as the serial run.
func TestBruteForceDeterministicAcrossWorkers(t *testing.T) {
	ds := plantedDataset(350, 9, 45)
	det := NewDetector(ds, 4)
	base := BruteForceOptions{K: 3, M: 12}

	ref, err := det.BruteForce(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Projections) == 0 {
		t.Fatal("reference run found nothing; test dataset too easy to misconfigure silently")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		o := base
		o.Workers = workers
		got, err := det.BruteForce(o)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, labelW("bruteforce", workers), ref, got)
	}
}
