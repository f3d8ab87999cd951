// Package fanout runs independent work items on a bounded set of
// goroutines and returns once all of them are done. It is the
// program's one worker pool. The fit path fans ensemble members and
// brute-force subtrees out with For, and grid construction splits
// columns, rows and dimensions into contiguous Blocks. An evolutionary
// search runs its many short loops per generation — the runs' phases,
// the crossover pairs, the count blocks — on a Team, which keeps its
// helpers awake between them. The serving path scores a batch's row
// chunks, the kNN baseline its records, and the cluster coordinator
// its per-peer RPCs through For too.
//
// None of them orders the calls, so callers keep determinism by
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

// Split divides a budget of w workers between n concurrent items:
// outer items run at once, and each gets inner workers of its own for
// the work inside it. The ensemble splits its budget between members
// this way.
func Split(w, n int) (outer, inner int) {
	outer = max(min(w, n), 1)
	return outer, max(w/outer, 1)
}

// state is what the workers of one For call share. It is pooled with
// its worker function bound once, because a closure or method value
// built per call, or per goroutine, would cost an allocation each.
type state struct {
	n     int
	fn    func(i int)
	next  atomic.Int64
	wg    sync.WaitGroup
	fault atomic.Pointer[any]
	work  func()
}

var states = sync.Pool{New: func() any {
	st := &state{}
	st.work = st.run
	return st
}}

// run claims indices until they run out. A panic stops the hand-out
// and is kept, the first one only, for For to raise.
func (st *state) run() {
	defer st.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			// Boxed here, not by taking the address of p, so a worker
			// that does not panic allocates nothing.
			box := p
			st.fault.CompareAndSwap(nil, &box)
			st.next.Store(int64(st.n))
		}
	}()
	for {
		i := int(st.next.Add(1)) - 1
		if i >= st.n {
			return
		}
		st.fn(i)
	}
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines,
// returning after all calls complete. With one worker (or one item) it
// runs inline on the calling goroutine. Work is handed out through an
// atomic counter, so callers must make fn independent across indices;
// determinism is then inherited from fn itself. The shared state is
// recycled across calls, so a call allocates nothing in steady state
// beyond what fn's closure costs.
//
// A panic in fn stops the hand-out of further indices and is raised
// again on the calling goroutine once the calls already started have
// returned, as it would be inline, so a caller that recovers around a
// fit or a request still catches it.
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
	st := states.Get().(*state)
	st.n, st.fn = n, fn
	st.next.Store(0)
	st.wg.Add(workers)
	for t := 0; t < workers; t++ {
		go st.work()
	}
	st.wg.Wait()
	st.fn = nil
	fault := st.fault.Swap(nil)
	states.Put(st)
	if fault != nil {
		panic(*fault)
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
