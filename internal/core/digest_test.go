package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"hido/internal/synth"
)

// resultDigest hashes everything deterministic about a Result: each
// projection's cube, count and sparsity bits, the outliers, and the
// Evaluations and Generations counters.
func resultDigest(r *Result) string {
	h := sha256.New()
	for _, p := range r.Projections {
		fmt.Fprintf(h, "%s|%d|%x\n", p.Cube, p.Count, math.Float64bits(p.Sparsity))
	}
	fmt.Fprintf(h, "outliers %v\nevaluations %d\ngenerations %d\n", r.Outliers, r.Evaluations, r.Generations)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSearchDigests pins the Results of restarts (3 runs) and islands
// (3 islands, migration every 10 generations) on two Table 1 profiles
// (data seed 1, the profile's φ and k, M 20), three search seeds, at
// one worker and at GOMAXPROCS. The digests were recorded with each
// restart and each island on a loop of its own, so they hold the
// shared lockstep loop to those trajectories.
func TestSearchDigests(t *testing.T) {
	want := map[string]string{
		"Segmentation/restarts/1": "570ec13658b83007da9ec9b009f7658ffb096df61e54b545176fc2b76f115576",
		"Segmentation/restarts/2": "31c7f4e044073a182c98c7d424098ed8592dd2a1dec6c1a9a2cf5044862d2f95",
		"Segmentation/restarts/3": "8d708bd1009310c08e04be9876746bf3a38cbf9bbf14ec63b7e8f644f0b32943",
		"Segmentation/islands/1":  "39f9cba1f6ab5d18a4e1fc3e9cd812e14e51bf5d93ea0ed318d27416debc241d",
		"Segmentation/islands/2":  "1a59efde425356c51e6e87f8ff7c474702c4eb47daee8689bbabfabfa17542cd",
		"Segmentation/islands/3":  "7d170d692aa08a9bdbab04d4a03482cc42cb91813b731e71bbcce30bf2c144a0",
		"Ionosphere/restarts/1":   "a0c1a7b5a9a5d32086a19f9f4c6f917cb96441a6833418608c4099af671b7195",
		"Ionosphere/restarts/2":   "59023c16180efd1d56992846e1aeb1b13a8c07ba7c9c48fcc966316f88c60b23",
		"Ionosphere/restarts/3":   "d5423d7a226b7388618d25d5dcdaed955300345197fb276fbee54ed6511ef8c9",
		"Ionosphere/islands/1":    "af140eb75896d01b6d8b67167c8fbd683d2e0f444e1a999e0b3fd1fd4ae0a1fd",
		"Ionosphere/islands/2":    "7e5c04cac046c06dceea87ecdb440619870ebeeb71218a1bc651087537c83397",
		"Ionosphere/islands/3":    "6bdc73194b6790463eb19ef2f60613a27c07ab95536de8df28b3329635b05cf5",
	}
	for _, profile := range []string{"Segmentation", "Ionosphere"} {
		p, err := synth.ProfileByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		det := NewDetector(ds, p.Phi)
		for seed := uint64(1); seed <= 3; seed++ {
			for _, workers := range []int{1, -1} {
				opt := EvoOptions{K: p.K, M: 20, Seed: seed, Workers: workers}
				res, err := det.EvolutionaryRestarts(opt, 3)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/restarts/%d", profile, seed)
				if got := resultDigest(res); got != want[name] {
					t.Errorf("%s workers=%d: digest %s, want %s", name, workers, got, want[name])
				}
				res, err = det.EvolutionaryIslands(IslandOptions{Evo: opt, Islands: 3})
				if err != nil {
					t.Fatal(err)
				}
				name = fmt.Sprintf("%s/islands/%d", profile, seed)
				if got := resultDigest(res); got != want[name] {
					t.Errorf("%s workers=%d: digest %s, want %s", name, workers, got, want[name])
				}
			}
		}
	}
}
