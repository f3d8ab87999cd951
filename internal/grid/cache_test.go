package grid

import (
	"encoding/binary"
	"sync"
	"testing"

	"hido/internal/bitset"
	"hido/internal/cube"
	"hido/internal/discretize"
	"hido/internal/xrand"
)

func TestCacheAgreesWithIndex(t *testing.T) {
	g, ix := fixture(400, 6, 4, 21, 0.1)
	c := NewCache(ix)
	r := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		k := r.IntRange(0, 4)
		cb := cube.New(6)
		for _, j := range r.Sample(6, k) {
			cb[j] = uint16(r.IntRange(1, 4))
		}
		if got, want := c.Count(cb), NaiveCount(g, cb); got != want {
			t.Fatalf("cube %v: cached=%d naive=%d", cb, got, want)
		}
		// Second lookup must hit and agree.
		if got := c.CountKey(cb, cb.Key()); got != NaiveCount(g, cb) {
			t.Fatalf("cube %v: second lookup drifted", cb)
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats %+v: expected both hits and misses", st)
	}
	if st.Size == 0 || st.Size > int(st.Misses) {
		t.Errorf("stats %+v: size outside (0, misses]", st)
	}
	c.Reset()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Size != 0 {
		t.Errorf("stats %+v after Reset", st)
	}
}

// The differential property the race layer leans on: under concurrent
// access from many goroutines, every cached count still agrees with
// the naive full-scan oracle, and CoverInto over the same cubes keeps
// matching the counts. Run with -race this doubles as the cache's
// data-race proof.
func TestCacheConcurrentAgreesWithNaive(t *testing.T) {
	g, ix := fixture(300, 5, 3, 22, 0)
	c := NewCache(ix)
	const goroutines = 8
	const trials = 400
	var wg sync.WaitGroup
	errc := make(chan string, goroutines)
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			scratch := bitset.New(300)
			for trial := 0; trial < trials; trial++ {
				k := r.IntRange(1, 3)
				cb := cube.New(5)
				// A small value domain forces heavy cross-goroutine key
				// collisions, the interesting concurrent case.
				for _, j := range r.Sample(5, k) {
					cb[j] = uint16(r.IntRange(1, 3))
				}
				want := NaiveCount(g, cb)
				if got := c.Count(cb); got != want {
					errc <- "count drift"
					return
				}
				if got := ix.CoverInto(scratch, cb); got != want || scratch.Count() != want {
					errc <- "CoverInto drift"
					return
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*trials {
		t.Errorf("stats %+v: lookups %d, want %d", st, st.Hits+st.Misses, goroutines*trials)
	}
}

// fuzzState is shared across fuzz workers on purpose: the fuzzer runs
// workers in parallel goroutines, so one process-wide cache turns the
// fuzz run itself into a concurrent differential test.
var fuzzState struct {
	once sync.Once
	g    *indexFixture
}

type indexFixture struct {
	grid  *discretize.Grid
	ix    *Index
	cache *Cache
}

func fuzzFixture() *indexFixture {
	fuzzState.once.Do(func() {
		g, ix := fixture(200, 5, 4, 77, 0.05)
		fuzzState.g = &indexFixture{grid: g, ix: ix, cache: NewCache(ix)}
	})
	return fuzzState.g
}

// FuzzCacheCount feeds arbitrary byte strings as cube descriptions and
// checks the cached count against the naive oracle. Bytes map to the
// cube's cells modulo the legal value range, so every input is a valid
// cube and the property is exact equality.
func FuzzCacheCount(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255, 255, 9, 9})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := fuzzFixture()
		cb := cube.New(5)
		for j := 0; j < 5 && j < len(data); j++ {
			cb[j] = uint16(data[j]) % 5 // 0 = don't care, 1..4 = ranges
		}
		want := NaiveCount(fx.grid, cb)
		if got := fx.cache.Count(cb); got != want {
			t.Fatalf("cube %v: cached=%d naive=%d", cb, got, want)
		}
		if got := fx.ix.Count(cb); got != want {
			t.Fatalf("cube %v: index=%d naive=%d", cb, got, want)
		}
	})
}
