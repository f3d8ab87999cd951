package discretize

import (
	"math"
	"testing"

	"hido/internal/xrand"
)

// exactRank is the fraction of vals ≤ v, the oracle Rank is tested
// against.
func exactRank(vals []float64, v float64) float64 {
	_, hi := rankInterval(vals, v)
	return hi
}

// rankInterval returns the fraction of vals strictly below v and the
// fraction ≤ v. With ties these differ by the tie group's whole mass:
// the interval is what an ε-approximate quantile guarantee speaks
// about, since no cut can land inside a tie group.
func rankInterval(vals []float64, v float64) (lo, hi float64) {
	n, below, at := 0, 0, 0
	for _, x := range vals {
		if math.IsNaN(x) {
			continue
		}
		n++
		if x < v {
			below++
		} else if x == v {
			at++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(below) / float64(n), float64(below+at) / float64(n)
}

func TestSketchExactWhileUncompacted(t *testing.T) {
	// Windows no larger than the capacity never compact, so Cuts must be
	// bit-identical to the offline sorted pass at every phi, on every
	// shape of the selection differential (random, tie-heavy, NaN-heavy,
	// ±Inf tails).
	r := xrand.New(1)
	for _, n := range []int{1, 2, 3, 7, 50, 512, 1000} {
		for shape := 0; shape < 4; shape++ {
			vals := randomColumn(r, n, shape)
			s := NewSketch()
			for _, v := range vals {
				s.Add(v)
			}
			if s.RankErrorBound() != 0 {
				t.Fatalf("n=%d: exact sketch reports error bound %v", n, s.RankErrorBound())
			}
			for _, phi := range []int{2, 3, 5, 10, 64} {
				got, want := s.Cuts(phi), sortedEquiDepthCuts(vals, phi)
				if !sameCuts(got, want, mixesZeros(vals)) {
					t.Fatalf("n=%d shape %d phi=%d: sketch cuts %v, exact %v", n, shape, phi, got, want)
				}
			}
		}
	}
}

func TestSketchDifferentialRandomWindows(t *testing.T) {
	// The acceptance differential: on 1000 random windows the sketch
	// cuts stay within the rank-error bound of the exact equi-depth
	// cuts. Small capacities force compaction so the approximate path is
	// genuinely exercised.
	r := xrand.New(7)
	windows := 1000
	if testing.Short() {
		windows = 100
	}
	for w := 0; w < windows; w++ {
		n := 16 + r.Intn(3000)
		capacity := 32 << r.Intn(4) // 32..256: most windows compact
		phi := 2 + r.Intn(14)
		vals := make([]float64, n)
		switch w % 3 {
		case 0: // smooth
			for i := range vals {
				vals[i] = r.NormMS(0, 1)
			}
		case 1: // heavy ties (discrete attribute)
			for i := range vals {
				vals[i] = float64(r.Intn(7))
			}
		case 2: // skewed with missing entries
			for i := range vals {
				if r.Bernoulli(0.05) {
					vals[i] = math.NaN()
				} else {
					vals[i] = r.Exp() * 100
				}
			}
		}
		s := NewSketchCap(capacity)
		for _, v := range vals {
			s.Add(v)
		}
		got := s.Cuts(phi)
		// Tolerance: the sketch's own conservative bound plus the 1/n
		// discreteness of the exact order statistic.
		tol := s.RankErrorBound() + 1.5/float64(maxInt(1, s.N()))
		for i, cut := range got {
			if i > 0 && cut < got[i-1] {
				t.Fatalf("window %d: cuts not monotone at %d: %v", w, i, got)
			}
			want := float64(i+1) / float64(phi)
			// ε-quantile guarantee: the cut's rank interval (ties span a
			// whole mass step no cut can split) must meet [want−tol, want+tol].
			lo, hi := rankInterval(vals, cut)
			if lo > want+tol || hi < want-tol {
				t.Fatalf("window %d (n=%d cap=%d phi=%d) cut %d=%v: rank in [%v,%v], want %v ± %v",
					w, n, capacity, phi, i, cut, lo, hi, want, tol)
			}
		}
	}
}

func TestSketchMergeMatchesUnion(t *testing.T) {
	// Merging epoch sketches must answer like one sketch over the
	// concatenated stream, within the error bound.
	r := xrand.New(11)
	parts := make([][]float64, 5)
	var all []float64
	for p := range parts {
		n := 200 + r.Intn(800)
		parts[p] = make([]float64, n)
		for i := range parts[p] {
			parts[p][i] = r.NormMS(float64(p), 2)
		}
		all = append(all, parts[p]...)
	}
	merged := NewSketchCap(128)
	for _, part := range parts {
		ps := NewSketchCap(128)
		for _, v := range part {
			ps.Add(v)
		}
		merged.Merge(ps)
	}
	if merged.N() != len(all) {
		t.Fatalf("merged N=%d, want %d", merged.N(), len(all))
	}
	tol := merged.RankErrorBound() + 2.0/float64(len(all))
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v := merged.Quantile(q)
		if got := exactRank(all, v); math.Abs(got-q) > tol {
			t.Errorf("quantile(%v)=%v has exact rank %v (tol %v)", q, v, got, tol)
		}
	}
}

func TestSketchDeterministic(t *testing.T) {
	// Same stream, same capacity → byte-identical retained state. The
	// repo-wide reproducibility invariant: no coin flips in compaction.
	r1, r2 := xrand.New(3), xrand.New(3)
	a, b := NewSketchCap(64), NewSketchCap(64)
	for i := 0; i < 10000; i++ {
		a.Add(r1.Float64())
		b.Add(r2.Float64())
	}
	ca, cb := a.Cuts(10), b.Cuts(10)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("cut %d differs: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestSketchDegenerateWindows(t *testing.T) {
	// Empty sketch: the all-missing convention, clamped finite.
	s := NewSketch()
	for _, c := range s.Cuts(5) {
		if c != math.MaxFloat64 {
			t.Fatalf("empty sketch cut %v, want MaxFloat64", c)
		}
	}
	if s.Quantile(0.5) != math.Inf(1) {
		t.Error("empty sketch quantile not +Inf")
	}
	// NaN-only stream behaves as empty.
	s.Add(math.NaN())
	if s.N() != 0 {
		t.Error("NaN counted")
	}
	// One value: every cut collapses onto it; FromCuts accepts it.
	s.Add(42)
	cuts := s.Cuts(5)
	for _, c := range cuts {
		if c != 42 {
			t.Fatalf("single-value cuts %v", cuts)
		}
	}
	FromCuts(5, [][]float64{cuts}) // must not panic
	// Constant stream past compaction: still one repeated boundary.
	c := NewSketchCap(16)
	for i := 0; i < 5000; i++ {
		c.Add(7)
	}
	for _, cut := range c.Cuts(4) {
		if cut != 7 {
			t.Fatalf("constant stream cuts %v", c.Cuts(4))
		}
	}
}

func TestSketchWeightConservation(t *testing.T) {
	// Compaction must preserve total weight exactly, or Cuts targets
	// drift from the true stream length.
	s := NewSketchCap(32)
	r := xrand.New(5)
	for i := 0; i < 12345; i++ {
		s.Add(r.Float64())
	}
	var total uint64
	for h, lv := range s.levels {
		total += uint64(len(lv)) << uint(h)
	}
	if total != s.n {
		t.Fatalf("retained weight %d, want %d", total, s.n)
	}
	if s.Retained() >= 12345/4 {
		t.Fatalf("sketch retained %d items of 12345 — not compacting", s.Retained())
	}
}

func TestSketchReset(t *testing.T) {
	s := NewSketchCap(32)
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	s.Reset()
	if s.N() != 0 || s.Retained() != 0 {
		t.Fatalf("reset left N=%d retained=%d", s.N(), s.Retained())
	}
	s.Add(1)
	if got := s.Cuts(2); got[0] != 1 {
		t.Fatalf("post-reset cuts %v", got)
	}
}

func TestSketchColumns(t *testing.T) {
	vals := []float64{
		1, 10,
		2, 20,
		3, math.NaN(),
	}
	cols := SketchColumns(vals, 2, 64)
	if cols[0].N() != 3 || cols[1].N() != 2 {
		t.Fatalf("column counts %d,%d", cols[0].N(), cols[1].N())
	}
	if cols[0].Quantile(1) != 3 || cols[1].Quantile(1) != 20 {
		t.Error("column maxima wrong")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
