package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// linger is how long a Team's helper waits for the next loop by
// yielding before it sleeps. On a 2-vCPU guest a goroutine the
// package's For started on an idle core began 100–250 µs late, as long
// as a whole loop of a search generation takes; a helper that is still
// yielding joins at once.
const linger = 200 * time.Microsecond

// A Team is a caller and up to workers−1 helper goroutines that stay
// together for a sequence of short loops, such as the phases of every
// generation of a search. The package's For starts fresh goroutines
// for each loop, so a loop too short to wait for an idle core runs on
// the caller alone; a Team's helpers wait between loops by yielding for a short
// while before they sleep, so the next loop finds them awake. Helpers
// beyond GOMAXPROCS could only take turns, so a Team has at most
// GOMAXPROCS−1 of them.
//
// One goroutine drives a Team: For is not safe for concurrent use.
// Close stops the helpers.
type Team struct {
	cur      atomic.Pointer[teamLoop] // the latest loop
	closed   atomic.Bool
	sleeping atomic.Int32
	mu       sync.Mutex
	wake     *sync.Cond
	helpers  int
	exited   sync.WaitGroup
}

// teamLoop is one For call. Each call has its own, so a helper that
// arrives after the loop ended finds no index left in it and touches
// nothing of the next one.
type teamLoop struct {
	n       int
	fn      func(i int)
	next    atomic.Int64
	running atomic.Int64 // helpers inside an index claim or call
	fault   atomic.Pointer[any]
}

// NewTeam starts a Team of the caller and min(Workers(workers),
// GOMAXPROCS)−1 helpers.
func NewTeam(workers int) *Team {
	t := &Team{helpers: min(Workers(workers), runtime.GOMAXPROCS(0)) - 1}
	t.wake = sync.NewCond(&t.mu)
	t.exited.Add(t.helpers)
	for range t.helpers {
		go t.help()
	}
	return t
}

// For runs fn(i) for every i in [0, n) on the caller and the Team's
// helpers, and returns after all calls complete. Like the package's
// For it orders nothing, so fn must be independent across indices, and
// a panic in fn stops the hand-out and is raised again on the caller
// once the calls already started have returned.
func (t *Team) For(n int, fn func(i int)) {
	if t.helpers == 0 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	lp := &teamLoop{n: n, fn: fn}
	t.cur.Store(lp)
	if t.sleeping.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
	lp.work()
	for lp.running.Load() > 0 {
		runtime.Gosched()
	}
	if fault := lp.fault.Load(); fault != nil {
		panic(*fault)
	}
}

// Blocks splits [0, n) into contiguous blocks, one per member of the
// Team where n allows, and runs fn(lo, hi) once per block on For.
func (t *Team) Blocks(n int, fn func(lo, hi int)) {
	b := max(min(t.helpers+1, n), 1)
	t.For(b, func(k int) { fn(k*n/b, (k+1)*n/b) })
}

// Close stops the helpers and returns once they have exited. A Team is
// not used after Close.
func (t *Team) Close() {
	t.closed.Store(true)
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
	t.exited.Wait()
}

// help joins each loop the caller starts until the Team closes.
func (t *Team) help() {
	defer t.exited.Done()
	var seen *teamLoop
	for {
		lp := t.await(seen)
		if lp == nil {
			return
		}
		seen = lp
		lp.work()
	}
}

// await returns the first loop after seen, or nil once the Team
// closes. It yields for up to linger, then sleeps until For or Close
// wakes it.
func (t *Team) await(seen *teamLoop) *teamLoop {
	deadline := time.Now().Add(linger)
	for time.Now().Before(deadline) {
		if lp := t.cur.Load(); lp != seen {
			return lp
		}
		if t.closed.Load() {
			return nil
		}
		runtime.Gosched()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sleeping.Add(1)
	defer t.sleeping.Add(-1)
	for {
		if lp := t.cur.Load(); lp != seen {
			return lp
		}
		if t.closed.Load() {
			return nil
		}
		t.wake.Wait()
	}
}

// work claims indices until they run out. Each member counts itself
// running across every claim and call, so the caller waits for exactly
// the calls under way. A panic stops the hand-out and is kept, the
// first one only, for For to raise.
func (lp *teamLoop) work() {
	for {
		lp.running.Add(1)
		claimed := lp.step()
		lp.running.Add(-1)
		if !claimed {
			return
		}
	}
}

// step claims one index and runs it, reporting whether there was one.
func (lp *teamLoop) step() (claimed bool) {
	defer func() {
		if p := recover(); p != nil {
			box := p
			lp.fault.CompareAndSwap(nil, &box)
			lp.next.Store(int64(lp.n))
		}
	}()
	i := int(lp.next.Add(1)) - 1
	if i >= lp.n {
		return false
	}
	lp.fn(i)
	return true
}
