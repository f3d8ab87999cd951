package grid

import (
	"runtime"
	"testing"

	"hido/internal/bitset"
	"hido/internal/discretize"
)

// serialBits is the reference index: every record's cells set in
// record order on the calling goroutine.
func serialBits(g *discretize.Grid) [][]*bitset.Set {
	bits := make([][]*bitset.Set, g.D)
	for j := range bits {
		bits[j] = make([]*bitset.Set, g.Phi)
		for r := range bits[j] {
			bits[j][r] = bitset.New(g.N)
		}
	}
	for i := 0; i < g.N; i++ {
		for j, r := range g.CellsRow(i) {
			if r != 0 {
				bits[j][r-1].Set(i)
			}
		}
	}
	return bits
}

// TestBuildGOMAXPROCS holds the parallel Build to the serial reference
// bit for bit at several pool sizes, with record counts that are not
// multiples of 64 and fewer dimensions than workers.
func TestBuildGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ n, d int }{{5, 3}, {1003, 3}, {1003, 13}, {130, 40}}
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for _, sh := range shapes {
			g, ix := fixture(sh.n, sh.d, 6, uint64(sh.n*sh.d), 0.1)
			want := serialBits(g)
			for j := 0; j < g.D; j++ {
				for r := 1; r <= g.Phi; r++ {
					if !ix.RangeSet(j, uint16(r)).Equal(want[j][r-1]) {
						t.Fatalf("GOMAXPROCS=%d %dx%d: bitmap (%d,%d) differs from the serial build",
							procs, sh.n, sh.d, j, r)
					}
				}
			}
		}
	}
}
