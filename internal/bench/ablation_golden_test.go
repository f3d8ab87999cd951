package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hido/internal/core"
	"hido/internal/discretize"
	"hido/internal/evo"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenAblationResult is a fixed, fully-populated result so the
// golden file exercises every section of the report — including the
// workers table — without depending on timing or hardware.
func goldenAblationResult() *AblationResult {
	return &AblationResult{
		Crossover: []CrossoverAblationRow{
			{Profile: "Ionosphere", Kind: core.OptimizedCrossover, Quality: -3.412,
				Time: 1520 * time.Millisecond, Recall: 0.92, Converge: true},
			{Profile: "Ionosphere", Kind: core.TwoPointCrossover, Quality: -2.871,
				Time: 1730 * time.Millisecond, Recall: 0.67, Converge: false},
		},
		Selection: []SelectionAblationRow{
			{Strategy: evo.RankRoulette, Quality: -3.412, Recall: 0.92},
			{Strategy: evo.Tournament, Quality: -3.298, Recall: 0.83},
			{Strategy: evo.Uniform, Quality: -2.455, Recall: 0.50},
		},
		GridMethod: []GridAblationRow{
			{Method: discretize.EquiDepth, Quality: -3.412, Recall: 0.92},
			{Method: discretize.EquiWidth, Quality: -3.120, Recall: 0.75},
		},
		PopSize: []PopAblationRow{
			{PopSize: 20, Quality: -2.950, Time: 310 * time.Millisecond},
			{PopSize: 50, Quality: -3.221, Time: 760 * time.Millisecond},
			{PopSize: 100, Quality: -3.412, Time: 1520 * time.Millisecond},
			{PopSize: 200, Quality: -3.440, Time: 3110 * time.Millisecond},
		},
		Topology: []TopologyAblationRow{
			{Name: "single-pop-120", Quality: -3.430, Distinct: 20, Evals: 48211, Time: 1830 * time.Millisecond},
			{Name: "restarts-3x40", Quality: -3.310, Distinct: 43, Evals: 51877, Time: 2010 * time.Millisecond},
			{Name: "islands-3x40", Quality: -3.355, Distinct: 37, Evals: 50104, Time: 1960 * time.Millisecond},
		},
		Parallel: []ParallelAblationRow{
			{Workers: 1, Quality: -3.412, Time: 4510 * time.Millisecond, Speedup: 1.0, Identical: true},
			{Workers: 2, Quality: -3.412, Time: 2410 * time.Millisecond, Speedup: 1.87, Identical: true},
			{Workers: 4, Quality: -3.412, Time: 1350 * time.Millisecond, Speedup: 3.34, Identical: true},
		},
		Brute: []BruteAblationRow{
			{Workers: 1, Pruning: false, Time: 980 * time.Millisecond,
				Speedup: 1.0, Evals: 48450000, Identical: true},
			{Workers: 1, Pruning: true, Time: 265 * time.Millisecond,
				Speedup: 3.70, Evals: 9797560, Pruned: 429993, Identical: true},
			{Workers: 2, Pruning: false, Time: 505 * time.Millisecond,
				Speedup: 1.94, Evals: 48450000, Identical: true},
			{Workers: 2, Pruning: true, Time: 140 * time.Millisecond,
				Speedup: 7.00, Evals: 9797560, Pruned: 429993, Identical: true},
			{Workers: 4, Pruning: false, Time: 262 * time.Millisecond,
				Speedup: 3.74, Evals: 48450000, Identical: true},
			{Workers: 4, Pruning: true, Time: 76 * time.Millisecond,
				Speedup: 12.89, Evals: 9797560, Pruned: 429993, Identical: true},
			{Workers: 8, Pruning: false, Time: 143 * time.Millisecond,
				Speedup: 6.85, Evals: 48450000, Identical: true},
			{Workers: 8, Pruning: true, Time: 44 * time.Millisecond,
				Speedup: 22.27, Evals: 9797560, Pruned: 429993, Identical: true},
		},
		PhiSweep: []PhiAblationRow{
			{Phi: 3, AdvisedK: 7, SingletonSparsity: -0.71, Quality: -3.050, Recall: 0.83},
			{Phi: 5, AdvisedK: 4, SingletonSparsity: -1.33, Quality: -3.412, Recall: 0.92},
			{Phi: 8, AdvisedK: 3, SingletonSparsity: -1.92, Quality: -3.388, Recall: 0.92},
			{Phi: 12, AdvisedK: 2, SingletonSparsity: -2.46, Quality: -3.154, Recall: 0.83},
		},
	}
}

// TestFormatAblationGolden pins the `hidobench -exp ablation` report
// byte for byte, so format drift — a reordered column, a changed
// verb — is a visible diff instead of a silent change to downstream
// parsers. Regenerate with: go test ./internal/bench -run Golden -update
func TestFormatAblationGolden(t *testing.T) {
	got := FormatAblation(goldenAblationResult())
	path := filepath.Join("testdata", "ablation_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("ablation report drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
