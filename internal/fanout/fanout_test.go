package fanout

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
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
