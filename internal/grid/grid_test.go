package grid

import (
	"math"
	"testing"
	"testing/quick"

	"hido/internal/bitset"
	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/xrand"
)

func fixture(n, d, phi int, seed uint64, missingRate float64) (*discretize.Grid, *Index) {
	r := xrand.New(seed)
	names := make([]string, d)
	for j := range names {
		names[j] = "x"
	}
	ds := dataset.New(names, n)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			if r.Bernoulli(missingRate) {
				row[j] = math.NaN()
			} else {
				row[j] = r.Float64()
			}
		}
		ds.AppendRow(row, "")
	}
	g := discretize.Fit(ds, phi, discretize.EquiDepth)
	return g, Build(g)
}

func TestCountMatchesNaive(t *testing.T) {
	g, ix := fixture(500, 6, 4, 1, 0)
	r := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		k := r.IntRange(1, 4)
		c := cube.New(6)
		for _, j := range r.Sample(6, k) {
			c[j] = uint16(r.IntRange(1, 4))
		}
		if got, want := ix.Count(c), NaiveCount(g, c); got != want {
			t.Fatalf("cube %v: Count=%d naive=%d", c, got, want)
		}
	}
}

// TestCountKeyMatchesCount counts random cubes, the all-'*' cube
// included, from their keys.
func TestCountKeyMatchesCount(t *testing.T) {
	_, ix := fixture(500, 9, 5, 3, 0.1)
	r := xrand.New(11)
	for trial := 0; trial < 300; trial++ {
		c := cube.New(9)
		for _, j := range r.Sample(9, r.Intn(5)) {
			c[j] = uint16(r.IntRange(1, 5))
		}
		if got, want := ix.CountKey(c.Key()), ix.Count(c); got != want {
			t.Fatalf("cube %v: CountKey=%d Count=%d", c, got, want)
		}
	}
}

func TestCountMatchesNaiveWithMissing(t *testing.T) {
	g, ix := fixture(400, 5, 3, 2, 0.2)
	r := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		k := r.IntRange(1, 3)
		c := cube.New(5)
		for _, j := range r.Sample(5, k) {
			c[j] = uint16(r.IntRange(1, 3))
		}
		if got, want := ix.Count(c), NaiveCount(g, c); got != want {
			t.Fatalf("cube %v: Count=%d naive=%d", c, got, want)
		}
	}
}

func TestAllDontCareCountsEverything(t *testing.T) {
	_, ix := fixture(123, 4, 3, 3, 0)
	c := cube.New(4)
	if got := ix.Count(c); got != 123 {
		t.Errorf("Count(all-*) = %d, want 123", got)
	}
	cov := ix.Cover(c)
	if cov.Count() != 123 {
		t.Errorf("Cover(all-*) = %d bits", cov.Count())
	}
}

func TestOneDimCubeCountsEquiDepth(t *testing.T) {
	// Tie-free equi-depth: each 1-d cube holds ~N/phi records.
	_, ix := fixture(1000, 3, 10, 4, 0)
	for j := 0; j < 3; j++ {
		for r := uint16(1); r <= 10; r++ {
			c := cube.New(3).With(j, r)
			if got := ix.Count(c); got != 100 {
				t.Errorf("dim %d range %d count = %d, want 100", j, r, got)
			}
		}
	}
}

func TestCoverMatchesCount(t *testing.T) {
	g, ix := fixture(300, 5, 4, 5, 0.1)
	r := xrand.New(11)
	for trial := 0; trial < 100; trial++ {
		c := cube.New(5)
		for _, j := range r.Sample(5, r.IntRange(1, 3)) {
			c[j] = uint16(r.IntRange(1, 4))
		}
		cov := ix.Cover(c)
		if cov.Count() != ix.Count(c) {
			t.Fatalf("cube %v: Cover count %d != Count %d", c, cov.Count(), ix.Count(c))
		}
		// every covered record actually matches
		cov.ForEach(func(i int) bool {
			if !c.Covers(g.CellsRow(i)) {
				t.Fatalf("cube %v: record %d covered but does not match", c, i)
			}
			return true
		})
	}
}

func TestCoverInto(t *testing.T) {
	_, ix := fixture(200, 4, 3, 6, 0)
	c := cube.New(4).With(1, 2)
	dst := bitset.New(200)
	n := ix.CoverInto(dst, c)
	if n != ix.Count(c) || dst.Count() != n {
		t.Errorf("CoverInto = %d, Count = %d, bits = %d", n, ix.Count(c), dst.Count())
	}
	// all-DontCare fills
	if n := ix.CoverInto(dst, cube.New(4)); n != 200 {
		t.Errorf("CoverInto(all-*) = %d", n)
	}
}

func TestExtendCount(t *testing.T) {
	_, ix := fixture(400, 5, 4, 8, 0)
	partialCube := cube.New(5).With(0, 1)
	partial := ix.Cover(partialCube)
	for j := 1; j < 5; j++ {
		for r := uint16(1); r <= 4; r++ {
			want := ix.Count(partialCube.With(j, r))
			if got := ix.ExtendCount(partial, j, r); got != want {
				t.Fatalf("ExtendCount(dim %d, range %d) = %d, want %d", j, r, got, want)
			}
		}
	}
}

func TestSparsityConsistency(t *testing.T) {
	_, ix := fixture(1000, 4, 5, 9, 0)
	c := cube.New(4).With(0, 1).With(2, 3)
	want := ix.SparsityOf(ix.Count(c), 2)
	if got := ix.Sparsity(c); got != want {
		t.Errorf("Sparsity = %v, want %v", got, want)
	}
	if got := ix.Sparsity(cube.New(4)); got != 0 {
		t.Errorf("Sparsity(all-*) = %v, want 0", got)
	}
}

func TestRangeSetSharedAndSized(t *testing.T) {
	_, ix := fixture(100, 3, 4, 10, 0)
	s := ix.RangeSet(0, 1)
	if s.Len() != 100 {
		t.Errorf("RangeSet capacity = %d", s.Len())
	}
	if s != ix.RangeSet(0, 1) {
		t.Error("RangeSet not shared")
	}
}

func TestPanics(t *testing.T) {
	_, ix := fixture(10, 3, 4, 11, 0)
	g, _ := fixture(10, 3, 4, 11, 0)
	for name, fn := range map[string]func(){
		"RangeSet dim":   func() { ix.RangeSet(3, 1) },
		"RangeSet range": func() { ix.RangeSet(0, 5) },
		"RangeSet zero":  func() { ix.RangeSet(0, 0) },
		"Count dims":     func() { ix.Count(cube.New(4)) },
		"Naive dims":     func() { NaiveCount(g, cube.New(4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMissingRecordsInNoRange(t *testing.T) {
	// A record with a missing attribute appears in no bitmap of that
	// dimension, so per-dimension bitmap counts sum to N - missing.
	g, ix := fixture(300, 4, 5, 12, 0.3)
	for j := 0; j < 4; j++ {
		sum := 0
		for r := uint16(1); r <= 5; r++ {
			sum += ix.RangeSet(j, r).Count()
		}
		_, missing := g.RangeCounts(j)
		if sum != 300-missing {
			t.Errorf("dim %d: bitmap sum %d, want %d", j, sum, 300-missing)
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	_, ix := fixture(128, 4, 5, 13, 0)
	if got := ix.MemoryBytes(); got != 4*5*2*8 {
		t.Errorf("MemoryBytes = %d", got)
	}
}

// Property: Count agrees with NaiveCount over random cubes and grids.
func TestQuickCountOracle(t *testing.T) {
	f := func(seed uint64, kRaw, phiRaw uint8) bool {
		phi := int(phiRaw)%5 + 2
		k := int(kRaw)%3 + 1
		g, ix := fixture(150, 5, phi, seed, 0.15)
		r := xrand.New(seed ^ 0xabc)
		c := cube.New(5)
		for _, j := range r.Sample(5, k) {
			c[j] = uint16(r.IntRange(1, phi))
		}
		return ix.Count(c) == NaiveCount(g, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCountK3(b *testing.B) {
	_, ix := fixture(10000, 20, 10, 1, 0)
	c := cube.New(20).With(2, 3).With(7, 1).With(15, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Count(c)
	}
}

func BenchmarkNaiveCountK3(b *testing.B) {
	g, _ := fixture(10000, 20, 10, 1, 0)
	c := cube.New(20).With(2, 3).With(7, 1).With(15, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NaiveCount(g, c)
	}
}
