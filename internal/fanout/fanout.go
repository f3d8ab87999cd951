// Package fanout runs independent work items on a bounded set of
// goroutines and returns once all of them are done. It is the one
// worker-pool helper of the fit path: the searches fan restarts,
// islands, ensemble members, pairs and count batches out with For, and
// grid construction splits columns, rows and dimensions into
// contiguous Blocks.
//
// Neither helper orders the calls, so callers keep determinism by
// making every item independent and writing disjoint outputs.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers maps an options-style worker count to a concrete pool size:
// zero is the serial default, negative selects GOMAXPROCS.
func Workers(w int) int {
	switch {
	case w == 0:
		return 1
	case w < 0:
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines,
// returning after all calls complete. With one worker (or one item) it
// runs inline on the calling goroutine. Work is handed out through an
// atomic counter, so callers must make fn independent across indices;
// determinism is then inherited from fn itself.
//
// A panic in fn stops the hand-out of further indices and is raised
// again on the calling goroutine once the calls already started have
// returned, as it would be inline, so a caller that recovers around a
// fit (an ingest refit, a hidod fit job) still catches it.
func For(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// One struct, so the state the workers share is one allocation.
	var st struct {
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		fault any
	}
	st.wg.Add(workers)
	for t := 0; t < workers; t++ {
		go func() {
			defer st.wg.Done()
			defer func() {
				if p := recover(); p != nil {
					st.once.Do(func() { st.fault = p })
					st.next.Store(int64(n))
				}
			}()
			for {
				i := int(st.next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	st.wg.Wait()
	if st.fault != nil {
		panic(st.fault)
	}
}

// Blocks splits [0, n) into up to workers contiguous blocks whose sizes
// differ by at most one and runs fn(lo, hi) once per block, the blocks
// concurrently (inline when there is only one). A block is the unit of
// per-worker state: fn can allocate scratch once and reuse it for every
// index in the block.
func Blocks(n, workers int, fn func(lo, hi int)) {
	b := max(min(workers, n), 1)
	For(b, b, func(t int) { fn(t*n/b, (t+1)*n/b) })
}
