package core

import (
	"errors"
	"testing"

	"hido/internal/cube"
	"hido/internal/xrand"
)

// projectionsEqual compares the retained projections and covered
// points of two results, leaving the telemetry (Evaluations, Pruned)
// free to differ — the comparison the pruning differential needs.
func projectionsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Projections) != len(b.Projections) {
		t.Fatalf("%s: projection counts %d vs %d", label, len(a.Projections), len(b.Projections))
	}
	for i := range a.Projections {
		pa, pb := a.Projections[i], b.Projections[i]
		if !pa.Cube.Equal(pb.Cube) || pa.Sparsity != pb.Sparsity || pa.Count != pb.Count {
			t.Fatalf("%s: projection %d (%v S=%v n=%d) vs (%v S=%v n=%d)", label, i,
				pa.Cube, pa.Sparsity, pa.Count, pb.Cube, pb.Sparsity, pb.Count)
		}
	}
	if !a.OutlierSet.Equal(b.OutlierSet) {
		t.Fatalf("%s: outlier sets differ", label)
	}
}

// Coverage pruning must be invisible in the retained projections: a
// pruned subtree contains only cubes below MinCoverage, which the
// leaf filter would have discarded anyway. Swept over pseudo-random
// (n, d, k, phi) shapes so the differential covers skews no
// hand-picked case would.
func TestBruteForcePruningDifferential(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 6; trial++ {
		n := 120 + rng.Intn(250)
		d := 4 + rng.Intn(5)
		k := 2 + rng.Intn(3)
		if k > d {
			k = d
		}
		phi := 3 + rng.Intn(4)
		ds := plantedDataset(n, d, 500+uint64(trial))
		det := NewDetector(ds, phi)
		opt := BruteForceOptions{K: k, M: 10}

		pruned, err := det.BruteForce(opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.DisablePruning = true
		full, err := det.BruteForce(opt)
		if err != nil {
			t.Fatal(err)
		}

		label := labelShape(n, d, k, phi)
		projectionsEqual(t, label, full, pruned)
		if full.Pruned != 0 {
			t.Errorf("%s: unpruned run reports %d pruned subtrees", label, full.Pruned)
		}
		if want := int(cube.SpaceSize(det.D(), k, phi)); full.Evaluations != want {
			t.Errorf("%s: unpruned evaluations %d, space %d", label, full.Evaluations, want)
		}
		if pruned.Evaluations > full.Evaluations {
			t.Errorf("%s: pruned run evaluated more (%d) than unpruned (%d)",
				label, pruned.Evaluations, full.Evaluations)
		}
		if k >= 3 && pruned.Pruned == 0 {
			// The planted correlation empties cells in the (0,1) plane,
			// so deeper searches must find something to skip.
			t.Errorf("%s: no subtree pruned despite planted empty cells", label)
		}
	}
}

// With MinCoverage <= 0 empty cubes are admissible results, so pruning
// must disarm itself rather than discard them.
func TestBruteForceNoPruningWhenEmptyAdmitted(t *testing.T) {
	ds := plantedDataset(300, 5, 46)
	det := NewDetector(ds, 5)
	res, err := det.BruteForce(BruteForceOptions{K: 3, M: 5, MinCoverage: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 0 {
		t.Errorf("pruned %d subtrees with empty cubes admitted", res.Pruned)
	}
	if want := int(cube.SpaceSize(det.D(), 3, det.Phi())); res.Evaluations != want {
		t.Errorf("evaluations %d, want full space %d", res.Evaluations, want)
	}
	if res.Projections[0].Count != 0 {
		t.Errorf("best projection count = %d, want an empty cube", res.Projections[0].Count)
	}
}

// The candidate budget is an atomic reservation: when the run reports
// ErrBudgetExceeded, exactly MaxCandidates leaves were evaluated, at
// any worker count.
func TestBruteForceMaxCandidatesExact(t *testing.T) {
	ds := plantedDataset(200, 8, 48)
	det := NewDetector(ds, 4)
	for _, workers := range []int{1, 3, 8} {
		res, err := det.BruteForce(BruteForceOptions{
			K: 3, M: 5, MaxCandidates: 777, Workers: workers,
			// Pruning off so enough leaves exist to exhaust the budget
			// regardless of the data's empty-cell structure.
			DisablePruning: true,
		})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExceeded", workers, err)
		}
		if res.Evaluations != 777 {
			t.Errorf("workers=%d: evaluations = %d, want exactly 777", workers, res.Evaluations)
		}
	}
}

// Brute force is exact, so its best sparsity is a lower bound for any
// evolutionary run on the same detector — the sanity differential the
// CI bruteforce job pins.
func TestBruteForceLowerBoundsEvolutionary(t *testing.T) {
	ds := plantedDataset(300, 7, 49)
	det := NewDetector(ds, 4)
	bf, err := det.BruteForce(BruteForceOptions{K: 2, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	ga, err := det.Evolutionary(EvoOptions{K: 2, M: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Projections) == 0 || len(ga.Projections) == 0 {
		t.Fatal("empty result")
	}
	if ga.Projections[0].Sparsity < bf.Projections[0].Sparsity {
		t.Errorf("evolutionary best %v beats the exact optimum %v",
			ga.Projections[0].Sparsity, bf.Projections[0].Sparsity)
	}
}

func labelShape(n, d, k, phi int) string {
	return "n=" + itoa(n) + "/d=" + itoa(d) + "/k=" + itoa(k) + "/phi=" + itoa(phi)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
