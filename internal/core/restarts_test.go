package core

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/cube"
	"hido/internal/obs"
)

func TestEvolutionaryRestartsMergesDistinct(t *testing.T) {
	ds := plantedDataset(300, 8, 30)
	det := NewDetector(ds, 4)
	single, err := det.Evolutionary(EvoOptions{K: 2, M: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := det.EvolutionaryRestarts(EvoOptions{K: 2, M: 10, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Projections) < len(single.Projections) {
		t.Errorf("merged %d projections < single run's %d",
			len(merged.Projections), len(single.Projections))
	}
	if len(merged.Projections) > 40 {
		t.Errorf("merged %d projections > restarts*M", len(merged.Projections))
	}
	// No duplicates, sorted ascending by sparsity.
	seen := map[string]bool{}
	for i, p := range merged.Projections {
		if seen[p.Cube.Key()] {
			t.Fatalf("duplicate projection %v", p.Cube)
		}
		seen[p.Cube.Key()] = true
		if i > 0 && p.Sparsity < merged.Projections[i-1].Sparsity {
			t.Fatal("merged projections not sorted")
		}
	}
	// Union semantics for outliers and summed telemetry.
	if merged.Evaluations <= single.Evaluations {
		t.Error("merged evaluations not accumulated")
	}
	for _, i := range single.Outliers {
		if !merged.OutlierSet.Test(i) {
			t.Errorf("record %d lost in the union", i)
		}
	}
}

func TestEvolutionaryRestartsValidation(t *testing.T) {
	det := NewDetector(plantedDataset(50, 3, 31), 3)
	if _, err := det.EvolutionaryRestarts(EvoOptions{K: 2, M: 5}, 0); err == nil {
		t.Error("restarts=0 accepted")
	}
	if _, err := det.EvolutionaryRestarts(EvoOptions{K: 9, M: 5}, 2); err == nil {
		t.Error("bad K accepted")
	}
}

func TestFilterProjections(t *testing.T) {
	ds := plantedDataset(400, 5, 32)
	det := NewDetector(ds, 5)
	res, err := det.BruteForce(BruteForceOptions{K: 2, M: 20})
	if err != nil {
		t.Fatal(err)
	}
	threshold := res.Projections[0].Sparsity + 1e-9 // keep only the best tier
	filtered := res.FilterProjections(det, threshold)
	if len(filtered.Projections) == 0 {
		t.Fatal("filter removed everything")
	}
	for _, p := range filtered.Projections {
		if p.Sparsity > threshold {
			t.Errorf("projection %v above threshold survived", p.Cube)
		}
	}
	if len(filtered.Projections) >= len(res.Projections) {
		t.Skip("all projections tied at the optimum; nothing filtered")
	}
	// Outliers recomputed: every remaining outlier covered by a
	// surviving projection.
	for _, i := range filtered.Outliers {
		if len(filtered.CoveringProjections(det, i)) == 0 {
			t.Errorf("outlier %d not covered after filtering", i)
		}
	}
}

func TestMinimalExplanations(t *testing.T) {
	// Dims 0,1 are tightly correlated; dim 2+ noise. A planted record in
	// the off-diagonal (0,1) cell is explained minimally by those two
	// dims even when the covering projection carries k=3 constraints.
	ds := plantedDataset(500, 6, 33)
	det := NewDetector(ds, 4)
	res, err := det.BruteForce(BruteForceOptions{K: 3, M: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutlierSet.Test(500) {
		t.Skip("planted record not covered at k=3 with m=30")
	}
	threshold := -2.0
	exps := res.MinimalExplanations(det, 500, threshold)
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	for _, e := range exps {
		if e.Sparsity > threshold {
			t.Errorf("explanation %v above threshold (S=%v)", e.Cube, e.Sparsity)
		}
		if !e.Cube.Covers(det.Grid.CellsRow(500)) {
			t.Errorf("explanation %v does not cover the record", e.Cube)
		}
		// Local minimality: dropping any constraint exceeds the threshold.
		if e.Cube.K() > 1 {
			for _, dim := range e.Cube.Dims() {
				if s := det.Index.Sparsity(e.Cube.With(dim, cube.DontCare)); s <= threshold {
					t.Errorf("explanation %v not minimal: dropping dim %d keeps S=%v", e.Cube, dim, s)
				}
			}
		}
		if e.Describe(det) == "" {
			t.Error("empty description")
		}
	}
	// Explanations are sorted by dimensionality then sparsity.
	for i := 1; i < len(exps); i++ {
		if exps[i].Cube.K() < exps[i-1].Cube.K() {
			t.Error("explanations not sorted by dimensionality")
		}
	}
}

func TestBruteForceParallelMatchesSequential(t *testing.T) {
	ds := plantedDataset(400, 8, 34)
	det := NewDetector(ds, 4)
	seq, err := det.BruteForce(BruteForceOptions{K: 3, M: 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, -1} {
		par, err := det.BruteForce(BruteForceOptions{K: 3, M: 15, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Evaluations != seq.Evaluations {
			t.Errorf("workers=%d: evaluations %d vs sequential %d",
				workers, par.Evaluations, seq.Evaluations)
		}
		if len(par.Projections) != len(seq.Projections) {
			t.Fatalf("workers=%d: %d projections vs %d", workers,
				len(par.Projections), len(seq.Projections))
		}
		// Quality identical position by position (cube identity may
		// differ on exact ties).
		for i := range par.Projections {
			if math.Abs(par.Projections[i].Sparsity-seq.Projections[i].Sparsity) > 1e-9 {
				t.Errorf("workers=%d pos %d: sparsity %v vs %v", workers, i,
					par.Projections[i].Sparsity, seq.Projections[i].Sparsity)
			}
		}
	}
}

func TestBruteForceParallelK1FallsBack(t *testing.T) {
	det := NewDetector(plantedDataset(100, 4, 35), 4)
	res, err := det.BruteForce(BruteForceOptions{K: 1, M: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 4*4 {
		t.Errorf("k=1 evaluations = %d, want 16", res.Evaluations)
	}
}

func TestBruteForceParallelBudget(t *testing.T) {
	det := NewDetector(plantedDataset(200, 10, 36), 5)
	res, err := det.BruteForce(BruteForceOptions{K: 3, M: 5, MaxCandidates: 500, Workers: 4})
	if err == nil {
		t.Fatal("budget not reported")
	}
	if res == nil || res.Evaluations < 500 {
		t.Errorf("partial result evaluations = %v", res)
	}
}

func TestBruteForceParallelValidation(t *testing.T) {
	det := NewDetector(plantedDataset(50, 3, 37), 3)
	if _, err := det.BruteForce(BruteForceOptions{K: 0, M: 5, Workers: 2}); err == nil {
		t.Error("k=0 accepted")
	}
}

// panickySource fails every brute-force leaf below the top level.
type panickySource struct{ CountSource }

func (s panickySource) NewPartial() Partial { return panickyPartial{s.CountSource.NewPartial()} }

type panickyPartial struct{ Partial }

func (panickyPartial) Extend(int, uint16) int { panic("count source failed") }

// A worker's panic reaches the caller's recover, as it would inline,
// instead of killing the process from a pool goroutine, and the
// progress heartbeat stops with it.
func TestBruteForceParallelPanicReachesCaller(t *testing.T) {
	det := NewDetector(plantedDataset(100, 6, 38), 4)
	var recovered atomic.Bool
	var late atomic.Int64
	observer := obs.Funcs{Progress: func(obs.ProgressEvent) {
		if recovered.Load() {
			late.Add(1)
		}
	}}
	func() {
		defer func() {
			if p := recover(); p != "count source failed" {
				t.Errorf("recovered %v, want the source's panic", p)
			}
			recovered.Store(true)
		}()
		_, _ = BruteForceOver(panickySource{det.Source()}, BruteForceOptions{
			K: 2, M: 5, Workers: 4, Observer: observer, ProgressInterval: time.Millisecond,
		})
		t.Error("BruteForceOver returned after its source panicked")
	}()
	// A heartbeat left running would tick about twenty times here.
	time.Sleep(20 * time.Millisecond)
	if n := late.Load(); n > 0 {
		t.Errorf("%d progress events after the caller recovered", n)
	}
}

func TestMinimalExplanationsDropDominated(t *testing.T) {
	ds := plantedDataset(500, 6, 61)
	det := NewDetector(ds, 4)
	res, err := det.BruteForce(BruteForceOptions{K: 3, M: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutlierSet.Test(500) {
		t.Skip("planted record not covered")
	}
	exps := res.MinimalExplanations(det, 500, -2.0)
	for i, a := range exps {
		for j, b := range exps {
			if i != j && a.Cube.Contains(b.Cube) && !b.Cube.Contains(a.Cube) {
				t.Errorf("explanation %v dominated by %v but kept", a.Cube, b.Cube)
			}
		}
	}
}

// overlapProbe is a BatchSource that records the most of its batch
// calls ever in flight at once. Each call lingers briefly, so batches
// sent side by side on two or more cores would overlap.
type overlapProbe struct {
	roundSource
	inFlight, most atomic.Int32
}

func (p *overlapProbe) enter() {
	n := p.inFlight.Add(1)
	for m := p.most.Load(); n > m && !p.most.CompareAndSwap(m, n); m = p.most.Load() {
	}
	time.Sleep(50 * time.Microsecond)
}

func (p *overlapProbe) CountBatch(cs []cube.Cube, keys []string, workers int) []int {
	p.enter()
	defer p.inFlight.Add(-1)
	return p.roundSource.CountBatch(cs, keys, workers)
}

func (p *overlapProbe) ExtendBatch(xs []Extension) []int {
	p.enter()
	defer p.inFlight.Add(-1)
	return p.roundSource.ExtendBatch(xs)
}

// Over a BatchSource the restarts advance in lockstep, one batch call
// at a time even when Workers asks for every core, so a memoizing
// remote source sees one lookup order; the result is the one a local
// source gives.
func TestRestartsOverBatchSourceOneBatchAtATime(t *testing.T) {
	det := NewDetector(plantedDataset(300, 8, 32), 4)
	opt := EvoOptions{K: 2, M: 10, Seed: 5, Workers: -1, MaxGenerations: 20}
	want, err := det.EvolutionaryRestarts(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	probe := &overlapProbe{roundSource: roundSource{detectorSource: detectorSource{det}}}
	got, err := EvolutionaryRestartsOver(probe, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := probe.most.Load(); n != 1 {
		t.Errorf("%d batch calls in flight at once, want 1", n)
	}
	if len(got.Projections) != len(want.Projections) || got.Evaluations != want.Evaluations {
		t.Fatalf("batch source: %d projections in %d evaluations, local %d in %d",
			len(got.Projections), got.Evaluations, len(want.Projections), want.Evaluations)
	}
	for i, p := range got.Projections {
		if !p.Cube.Equal(want.Projections[i].Cube) || p.Count != want.Projections[i].Count {
			t.Fatalf("projection %d: batch source %v, local %v", i, p, want.Projections[i])
		}
	}
}
