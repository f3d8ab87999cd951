package core

import (
	"math"
	"testing"
)

func TestSampleScoresPlantedOutlierIsSparsest(t *testing.T) {
	ds := plantedDataset(500, 8, 50)
	det := NewDetector(ds, 5)
	sc, err := det.SampleScores(SampledScoreOptions{K: 2, Samples: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Subspaces != 400 {
		t.Errorf("subspaces = %d", sc.Subspaces)
	}
	// The planted record's Min score must be among the lowest few.
	planted := sc.Min[500]
	lower := 0
	for i := 0; i < 500; i++ {
		if sc.Min[i] < planted {
			lower++
		}
	}
	if lower > 10 {
		t.Errorf("%d records score below the planted outlier (Min=%v)", lower, planted)
	}
}

func TestSampleScoresDeterministic(t *testing.T) {
	det := NewDetector(plantedDataset(150, 5, 51), 4)
	a, err := det.SampleScores(SampledScoreOptions{K: 2, Samples: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := det.SampleScores(SampledScoreOptions{K: 2, Samples: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Min {
		if a.Min[i] != b.Min[i] || a.Mean[i] != b.Mean[i] {
			t.Fatalf("record %d scored differently across identical runs", i)
		}
	}
}

func TestSampleScoresBounds(t *testing.T) {
	det := NewDetector(plantedDataset(200, 6, 52), 4)
	sc, err := det.SampleScores(SampledScoreOptions{K: 2, Samples: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Min {
		if math.IsNaN(sc.Min[i]) || math.IsNaN(sc.Mean[i]) {
			t.Fatalf("record %d has NaN score without missing values", i)
		}
		if sc.Min[i] > sc.Mean[i]+1e-12 {
			t.Fatalf("record %d: Min %v above Mean %v", i, sc.Min[i], sc.Mean[i])
		}
	}
}

func TestSampleScoresMissingAttributes(t *testing.T) {
	ds := plantedDataset(100, 4, 53)
	// Record 0 loses every attribute: it can join no subspace.
	for j := 0; j < 4; j++ {
		ds.SetAt(0, j, math.NaN())
	}
	det := NewDetector(ds, 3)
	sc, err := det.SampleScores(SampledScoreOptions{K: 2, Samples: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sc.Min[0]) || !math.IsNaN(sc.Mean[0]) {
		t.Errorf("all-missing record scored: Min=%v Mean=%v", sc.Min[0], sc.Mean[0])
	}
	if math.IsNaN(sc.Min[1]) {
		t.Error("complete record left unscored")
	}
}

func TestSampleScoresValidation(t *testing.T) {
	det := NewDetector(plantedDataset(50, 6, 54), 3)
	if _, err := det.SampleScores(SampledScoreOptions{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := det.SampleScores(SampledScoreOptions{K: 5}); err == nil {
		t.Error("k=5 accepted (key packing limit)")
	}
	if _, err := det.SampleScores(SampledScoreOptions{K: 2, Samples: -1}); err == nil {
		t.Error("negative samples accepted")
	}
}

func BenchmarkSampleScores(b *testing.B) {
	det := NewDetector(plantedDataset(2000, 20, 55), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.SampleScores(SampledScoreOptions{K: 3, Samples: 100, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSampleScoresTailMean(t *testing.T) {
	ds := plantedDataset(400, 8, 56)
	det := NewDetector(ds, 5)
	sc, err := det.SampleScores(SampledScoreOptions{K: 2, Samples: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.TailMean {
		// Min <= TailMean <= Mean by construction.
		if sc.Min[i] > sc.TailMean[i]+1e-12 || sc.TailMean[i] > sc.Mean[i]+1e-12 {
			t.Fatalf("record %d: Min=%v TailMean=%v Mean=%v out of order",
				i, sc.Min[i], sc.TailMean[i], sc.Mean[i])
		}
	}
	// The planted record's TailMean should rank at or near the top.
	planted := sc.TailMean[400]
	lower := 0
	for i := 0; i < 400; i++ {
		if sc.TailMean[i] < planted {
			lower++
		}
	}
	if lower > 5 {
		t.Errorf("%d records below the planted outlier's TailMean", lower)
	}
}

func TestTailPushKeepsLowest(t *testing.T) {
	heap := make([]float64, 4)
	n := 0
	for _, v := range []float64{5, 1, 9, 3, 7, 0, 2, 8} {
		tailPush(heap, &n, v)
	}
	if n != 4 {
		t.Fatalf("heap length %d", n)
	}
	sum := 0.0
	for _, v := range heap[:n] {
		sum += v
	}
	// lowest four of the stream: 0,1,2,3
	if sum != 6 {
		t.Errorf("tail sum = %v, want 6 (kept %v)", sum, heap[:n])
	}
}

// refScores is the per-record Score loop Detector.Scores replaced: each
// record's cells assigned from its values, tested against every
// projection in order.
func refScores(d *Detector, projs []Projection) []float64 {
	out := make([]float64, d.N())
	for i := range out {
		best := 0.0
		cells := d.Grid.CellsRow(i)
		for _, p := range projs {
			if p.Sparsity < best && p.Cube.Covers(cells) {
				best = p.Sparsity
			}
		}
		out[i] = best
	}
	return out
}

// Scores reads covers from the index and must equal the per-record
// Score loop bit for bit: on mined projections over data with missing
// values, and on projections whose sparsity is NaN, zero, negative
// zero or positive, which Score's comparison skips.
func TestScoresMatchScoreLoop(t *testing.T) {
	ds := plantedDataset(600, 7, 52)
	for i := 0; i < ds.N(); i += 9 {
		ds.SetAt(i, i%7, math.NaN())
	}
	det := NewDetector(ds, 5)
	res, err := det.Evolutionary(EvoOptions{K: 2, M: 12, Seed: 3, MinCoverage: -1})
	if err != nil {
		t.Fatal(err)
	}
	projs := append([]Projection(nil), res.Projections...)
	for _, s := range []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5} {
		projs = append(projs, Projection{Cube: projs[0].Cube, Sparsity: s})
	}
	projs = append(projs, Projection{Cube: projs[1].Cube, Sparsity: projs[1].Sparsity})
	want := refScores(det, projs)
	got := det.Scores(projs)
	mined := det.Scores(res.Projections)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("record %d: Scores %v, Score loop %v", i, got[i], want[i])
		}
		if s := res.Score(det, i); math.Float64bits(s) != math.Float64bits(mined[i]) {
			t.Fatalf("record %d: Result.Score %v, Scores %v", i, s, mined[i])
		}
	}
}
