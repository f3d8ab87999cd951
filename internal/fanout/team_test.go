package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS procs, so a Team gets procs−1 helpers
// on any machine.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestTeamVisitsEveryIndexOnce(t *testing.T) {
	withProcs(4, func() {
		for _, w := range []int{0, 1, 2, 4, 9} {
			team := NewTeam(w)
			if want := min(Workers(w), 4) - 1; team.helpers != want {
				t.Errorf("workers=%d: %d helpers, want %d", w, team.helpers, want)
			}
			// Back-to-back loops, one after a pause long enough for the
			// helpers to sleep, and loops of every size.
			for rep, n := range []int{0, 1, 2, 5, 100, 3, 1000, 64} {
				if rep == 4 {
					time.Sleep(10 * linger)
				}
				hits := make([]atomic.Int32, n)
				team.For(n, func(i int) { hits[i].Add(1) })
				checkOnce(t, "team loop", hits)
				covered := make([]atomic.Int32, n)
				team.Blocks(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						covered[i].Add(1)
					}
				})
				checkOnce(t, "team blocks", covered)
			}
			team.Close()
		}
	})
}

// Each loop's writes are visible to the caller when For returns, and
// the next loop sees them: the lockstep's phases read what the phase
// before them wrote.
func TestTeamLoopsSeeEachOther(t *testing.T) {
	withProcs(4, func() {
		team := NewTeam(-1)
		defer team.Close()
		vals := make([]int, 257)
		for rep := 1; rep <= 200; rep++ {
			team.For(len(vals), func(i int) {
				if vals[i] != rep-1 {
					panic("stale value")
				}
				vals[i] = rep
			})
			for i, v := range vals {
				if v != rep {
					t.Fatalf("rep %d: index %d holds %d", rep, i, v)
				}
			}
		}
	})
}

func TestTeamRaisesPanicOnCaller(t *testing.T) {
	withProcs(4, func() {
		team := NewTeam(-1)
		defer team.Close()
		for rep := 0; rep < 50; rep++ {
			var running, late atomic.Int32
			func() {
				defer func() {
					if p := recover(); p != "boom" {
						t.Fatalf("rep %d: recovered %v, want the panic", rep, p)
					}
					// No call of the loop may still run once For has
					// raised its panic.
					if running.Load() != 0 {
						late.Add(1)
					}
				}()
				team.For(100, func(i int) {
					running.Add(1)
					defer running.Add(-1)
					if i == rep {
						panic("boom")
					}
					time.Sleep(time.Microsecond)
				})
				t.Fatalf("rep %d: For returned after fn panicked", rep)
			}()
			if late.Load() != 0 {
				t.Fatalf("rep %d: a call ran on after the panic was raised", rep)
			}
			hits := make([]atomic.Int32, 100)
			team.For(len(hits), func(i int) { hits[i].Add(1) })
			checkOnce(t, "loop after a panic", hits)
		}
	})
}
