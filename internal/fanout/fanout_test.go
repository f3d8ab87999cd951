package fanout

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hido/internal/testutil"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) = %d, want 1", got)
	}
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d, want 3", got)
	}
	if got, want := Workers(-1), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestSplit(t *testing.T) {
	for _, c := range []struct{ w, n, outer, inner int }{
		{1, 3, 1, 1},
		{4, 3, 3, 1},
		{8, 3, 3, 2},
		{8, 16, 8, 1},
		{2, 1, 1, 2},
	} {
		if outer, inner := Split(c.w, c.n); outer != c.outer || inner != c.inner {
			t.Errorf("Split(%d, %d) = %d, %d; want %d, %d", c.w, c.n, outer, inner, c.outer, c.inner)
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, w := range []int{1, 2, 7, 200} {
			hits := make([]atomic.Int32, n)
			For(n, w, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestBlocksTileTheRange(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 1003} {
		for _, w := range []int{1, 2, 4, 7} {
			var mu sync.Mutex
			var sizes []int
			hits := make([]atomic.Int32, n)
			Blocks(n, w, func(lo, hi int) {
				mu.Lock()
				sizes = append(sizes, hi-lo)
				mu.Unlock()
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, w, i, h)
				}
			}
			if want := max(1, min(w, n)); len(sizes) != want {
				t.Errorf("n=%d workers=%d: %d blocks, want %d", n, w, len(sizes), want)
			}
			if slices.Max(sizes)-slices.Min(sizes) > 1 {
				t.Errorf("n=%d workers=%d: block sizes %v differ by more than one", n, w, sizes)
			}
		}
	}
}

func TestForRaisesPanicOnCaller(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Errorf("workers=%d: recovered %v, want the worker's panic", w, p)
				}
			}()
			For(100, w, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
			t.Errorf("workers=%d: For returned after fn panicked", w)
		}()
	}
}

// visit counts calls without capturing anything, so passing it to For
// allocates nothing at the call site.
var visits atomic.Int64

func visit(int) { visits.Add(1) }

func TestForSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, w := range []int{1, 2, 4, 8} {
		For(64, w, visit) // warm the pooled state
		if allocs := testing.AllocsPerRun(100, func() { For(64, w, visit) }); allocs != 0 {
			t.Errorf("workers=%d: For allocates %v per call, want 0", w, allocs)
		}
	}
}

// checkOnce fails the test unless every counter reads exactly one.
func checkOnce(t *testing.T, what string, hits []atomic.Int32) {
	t.Helper()
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Errorf("%s: index %d visited %d times", what, i, h)
			return
		}
	}
}

func TestForSharedStateAcrossCalls(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 50; rep++ {
					hits := make([]atomic.Int32, 1+(g*7+rep)%97)
					For(len(hits), 1+g%4, func(i int) { hits[i].Add(1) })
					checkOnce(t, "concurrent call", hits)
				}
			}()
		}
		wg.Wait()
	})
	t.Run("nested", func(t *testing.T) {
		const outer, inner = 12, 9
		hits := make([]atomic.Int32, outer*inner)
		For(outer, 4, func(i int) {
			For(inner, 3, func(j int) { hits[i*inner+j].Add(1) })
		})
		checkOnce(t, "nested call", hits)
	})
	t.Run("after panic", func(t *testing.T) {
		for rep := 0; rep < 50; rep++ {
			func() {
				defer func() {
					if p := recover(); p != "boom" {
						t.Fatalf("rep %d: recovered %v, want the worker's panic", rep, p)
					}
				}()
				For(100, 4, func(i int) {
					if i == rep {
						panic("boom")
					}
				})
			}()
			hits := make([]atomic.Int32, 100)
			For(len(hits), 4, func(i int) { hits[i].Add(1) })
			checkOnce(t, "call after a panic", hits)
		}
	})
}
