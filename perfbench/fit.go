package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"hido/internal/bitset"
	"hido/internal/core"
	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/grid"
	"hido/internal/stream"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// The fit workload: stream.NewMonitor on the Musk profile (N=6598,
// d=160) at phi=9, back to back, one caller, cycling through fitSeeds
// search seeds derived from the workload seed.
const (
	fitProfile = "Musk"
	fitPhi     = 9
	fitSeeds   = 24
)

// The defaults stream.NewMonitor fits with; the traced pipeline repeats
// them.
const (
	targetS  = -3
	fitM     = 100
	restarts = 3
)

// seedList derives n search seeds from the workload seed; salt keeps
// the lists of different uses apart.
func seedList(seed, salt uint64, n int) []uint64 {
	rng := xrand.New(seed ^ salt)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// profileData generates a Table 1 profile's rows.
func profileData(name string, seed uint64) (*dataset.Dataset, error) {
	p, err := synth.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(seed)
}

type fitSetup struct {
	ds    *dataset.Dataset
	grid  *discretize.Grid // the grid every fit derives, for the count check
	seeds []uint64
}

func setupFit(seed uint64) (*fitSetup, error) {
	ds, err := profileData(fitProfile, seed)
	if err != nil {
		return nil, err
	}
	seeds := seedList(seed, 0xf17, fitSeeds)
	// One fit with a seed outside the list warms the heap and code paths.
	if _, err := stream.NewMonitor(ds, stream.Options{Phi: fitPhi, Seed: ^seeds[0]}); err != nil {
		return nil, fmt.Errorf("warm-up fit: %w", err)
	}
	return &fitSetup{ds: ds, grid: discretize.Fit(ds, fitPhi, discretize.EquiDepth), seeds: seeds}, nil
}

// fitChecker verifies fitted models: one model digest per seed across
// repetitions, and every retained projection's count against a naive
// scan of the grid.
type fitChecker struct {
	grid    *discretize.Grid
	digests map[uint64][32]byte
	models  map[uint64][]core.Projection
}

func newFitChecker(g *discretize.Grid) *fitChecker {
	return &fitChecker{grid: g, digests: map[uint64][32]byte{}, models: map[uint64][]core.Projection{}}
}

func (c *fitChecker) check(r *run, seed uint64, mon *stream.Monitor) {
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		r.fail("fit seed %d: saving model: %v", seed, err)
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	if prev, ok := c.digests[seed]; ok {
		if prev != sum {
			r.fail("fit seed %d: model digest changed between repetitions", seed)
		}
		return
	}
	c.digests[seed] = sum
	c.models[seed] = mon.Projections()
	for _, p := range mon.Projections() {
		if n := grid.NaiveCount(c.grid, p.Cube); n != p.Count {
			r.fail("fit seed %d: projection %v count %d, naive count %d", seed, p.Cube, p.Count, n)
			return
		}
	}
}

// heapAllocs reads the cumulative count of heap objects allocated.
// runtime.ReadMemStats flushes every per-P allocation cache first, so
// the count is exact between two calls; /gc/heap/allocs:objects in
// runtime/metrics is not, and leaves out tiny objects.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap reads the heap bytes the last GC found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func runFit(o options, r *run) error {
	fs, setups, err := setUp(func() (*fitSetup, error) { return setupFit(o.seed) }, func(*fitSetup) {})
	if err != nil {
		return err
	}
	chk := newFitChecker(fs.grid)
	cal := newCalibrator()
	if !o.trace {
		// Set-ups are scaled by the loop's median over a few timings
		// right after them.
		var loops []float64
		for range 5 {
			loops = append(loops, ms(cal.measure()))
		}
		k := ms(calibrationRef) / median(loops)
		for i := range setups {
			setups[i] *= k
		}
		ft := fitLoop(r, fs, chk, cal, o.duration(), false)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.say("%s", describe("fit wall time", "ms", ft.wall, 0.9))
		r.say("%s", describe("calibration loop", "ms", ft.loop))
		r.say("%s", describe("fit_p50_ms", "ms", ft.scaled, 0.9))
		recordEndToEnd(r, setups, rss, median(ft.scaled), 1000/mean(ft.scaled))
		return nil
	}

	// Traced run: half the time untraced (allocation counts and the
	// overhead baseline), then the same seed sequence traced.
	untraced := fitLoop(r, fs, chk, cal, o.duration()/2, true)
	plain, allocs := untraced.wall, untraced.allocs
	t := newTracer()
	var traced []float64
	var fts []fitTrace
	deadline := time.Now().Add(o.duration() / 2)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := fs.seeds[i%len(fs.seeds)]
		projs, ft, err := tracedFit(t, fs.ds, fitPhi, seed)
		r.attempted++
		if err != nil {
			r.fail("traced fit seed %d: %v", seed, err)
			continue
		}
		traced = append(traced, ft.total.Seconds()*1000)
		fts = append(fts, ft)
		want, ok := chk.models[seed]
		if !ok {
			mon, err := stream.NewMonitor(fs.ds, stream.Options{Phi: fitPhi, Seed: seed})
			if err != nil {
				r.fail("fit seed %d: %v", seed, err)
				continue
			}
			chk.check(r, seed, mon)
			want = mon.Projections()
		}
		if !sameProjections(projs, want) {
			r.fail("traced fit seed %d: projections differ from the untraced model", seed)
		}
	}
	r.metrics["core.allocs_per_fit"] = mean(allocs)
	recordFitLayers(r, fts)
	recordOverhead(r, "fit_p50_ms", plain, traced)
	reportSelf(r, t, "fit")
	return writeTrace(r, o, t)
}

// fitTimes are what one fit loop measured, per fit.
type fitTimes struct {
	// wall is each fit's wall time, loop the calibration loop's time
	// right after it, and scaled the fit's time on the reference
	// machine, all in ms.
	wall, loop, scaled []float64
	// allocs is the heap objects each fit allocated, when counted.
	allocs []float64
}

// fitLoop fits back to back until d has passed, checking every model and
// timing the calibration loop after each fit. With countAllocs set it
// also counts the heap objects each fit allocates.
func fitLoop(r *run, fs *fitSetup, chk *fitChecker, cal *calibrator, d time.Duration, countAllocs bool) fitTimes {
	var ft fitTimes
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := fs.seeds[i%len(fs.seeds)]
		a0 := heapAllocs()
		t0 := time.Now()
		mon, err := stream.NewMonitor(fs.ds, stream.Options{Phi: fitPhi, Seed: seed})
		dt := time.Since(t0)
		a1 := heapAllocs()
		r.attempted++
		if err != nil {
			r.fail("fit seed %d: %v", seed, err)
			continue
		}
		chk.check(r, seed, mon)
		scaled, loop := cal.scale(dt)
		ft.wall = append(ft.wall, ms(dt))
		ft.loop = append(ft.loop, ms(loop))
		ft.scaled = append(ft.scaled, ms(scaled))
		if countAllocs {
			ft.allocs = append(ft.allocs, float64(a1-a0))
		}
	}
	return ft
}

// sameProjections reports whether two projection lists are identical.
func sameProjections(a, b []core.Projection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Cube.Equal(b[i].Cube) || a[i].Sparsity != b[i].Sparsity || a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}

// recordOverhead reports tracing overhead: the traced median over the
// untraced one, minus one.
func recordOverhead(r *run, name string, plain, traced []float64) {
	over := ratio(median(traced), median(plain)) - 1
	r.metrics["trace.overhead_ratio"] = over
	r.say("tracing overhead on %s: %+.3f (untraced %s; traced %s)", name, over,
		describe("", "ms", plain), describe("", "ms", traced))
}

// fitTrace is what one traced fit measured.
type fitTrace struct {
	total, discretize, build, search time.Duration
	evaluations, generations         int
	// count, extend and other are the counting calls made during the
	// search; other covers constrain and cover calls.
	count, extend, other callTotal
	keyBytes             int64
	cache                grid.CacheStats
}

type callTotal struct{ calls, ns int64 }

// tracedFit is stream.NewMonitor's fit replayed through the layers'
// public functions, each call spanned, with counting routed through a
// benchmark-owned count source over the same index and shared cache.
func tracedFit(t *tracer, ds *dataset.Dataset, phi int, seed uint64) (_ []core.Projection, ft fitTrace, _ error) {
	root := t.begin(0, "fit", "bench")
	defer func() { ft.total = root.end() }()

	sp := t.begin(root.id(), "discretize.Fit", "discretize")
	g := discretize.Fit(ds, phi, discretize.EquiDepth)
	ft.discretize = sp.end()

	sp = t.begin(root.id(), "grid.Build", "grid")
	ix := grid.Build(g)
	ft.build = sp.end()

	sp = t.begin(root.id(), "core.Advise", "core")
	advice := core.Advise(ds.N(), phi, targetS)
	sp.end()

	src := &countingSource{ix: ix, cache: grid.NewCache(ix)}
	sp = t.begin(root.id(), "core.EvolutionaryRestartsOver", "core")
	res, err := core.EvolutionaryRestartsOver(src, core.EvoOptions{
		K: advice.K, M: fitM, Seed: seed, MinCoverage: -1, RunID: "fit",
	}, restarts)
	ft.search = sp.end()
	ft.count, ft.extend, ft.other = src.flush(t, sp.id())
	ft.keyBytes = src.keyBytes.Load()
	ft.cache = src.cache.Stats()
	if err != nil {
		return nil, ft, err
	}
	ft.evaluations, ft.generations = res.Evaluations, res.Generations

	sp = t.begin(root.id(), "core.FilterProjectionsOver", "core")
	res = res.FilterProjectionsOver(src, targetS)
	src.flush(t, sp.id())
	sp.end()
	return res.Projections, ft, nil
}

// recordFitLayers stores the per-fit means of traced fits.
func recordFitLayers(r *run, fts []fitTrace) {
	if len(fts) == 0 {
		return
	}
	var disc, build, search, evals, gens, keyBytes, hits, lookups, entries, busy float64
	var count, extend callTotal
	for _, ft := range fts {
		disc += ft.discretize.Seconds() * 1000
		build += ft.build.Seconds() * 1000
		search += ft.search.Seconds() * 1000
		evals += float64(ft.evaluations)
		gens += float64(ft.generations)
		keyBytes += float64(ft.keyBytes)
		count.calls += ft.count.calls
		count.ns += ft.count.ns
		extend.calls += ft.extend.calls
		extend.ns += ft.extend.ns
		busy += float64(ft.count.ns + ft.extend.ns + ft.other.ns)
		hits += float64(ft.cache.Hits)
		lookups += float64(ft.cache.Hits + ft.cache.Misses)
		entries += float64(ft.cache.Size)
	}
	n := float64(len(fts))
	m := r.metrics
	m["discretize.fit_ms"] = disc / n
	m["grid.build_ms"] = build / n
	m["core.search_ms"] = search / n
	m["core.evaluations"] = evals / n
	m["core.generations"] = gens / n
	m["core.evals_per_s"] = ratio(evals, search/1000)
	m["grid.count_calls"] = float64(count.calls) / n
	m["grid.count_ns"] = ratio(float64(count.ns), float64(count.calls))
	m["grid.extend_calls"] = float64(extend.calls) / n
	m["grid.extend_ns"] = ratio(float64(extend.ns), float64(extend.calls))
	m["grid.count_share"] = ratio(busy/1e6, search)
	m["grid.cache_hit_ratio"] = ratio(hits, lookups)
	m["grid.cache_entries"] = entries / n
	m["cube.key_bytes"] = ratio(keyBytes, float64(count.calls))
	r.say("traced fits=%d: discretize %.2f ms, grid.Build %.2f ms, search %.1f ms (%.0f evaluations, %.0f generations), "+
		"%.0f counts at %.0f ns, %.0f extends at %.0f ns, counting share %.3f, cache hits %.0f of %.0f lookups",
		len(fts), m["discretize.fit_ms"], m["grid.build_ms"], m["core.search_ms"], m["core.evaluations"],
		m["core.generations"], m["grid.count_calls"], m["grid.count_ns"], m["grid.extend_calls"],
		m["grid.extend_ns"], m["grid.count_share"], hits/n, lookups/n)
}

// countingSource is a core.CountSource over a grid.Index and a shared
// grid.Cache, the pair a detector-backed fit counts through, timing
// every call by kind.
type countingSource struct {
	ix    *grid.Index
	cache *grid.Cache
	// keyBytes sums the lengths of the keys handed to CountKey.
	keyBytes                        atomic.Int64
	count, extend, constrain, cover callStat
}

func (s *countingSource) N() int   { return s.ix.N }
func (s *countingSource) D() int   { return s.ix.D }
func (s *countingSource) Phi() int { return s.ix.Phi }

func (s *countingSource) CountKey(c cube.Cube, key string) int {
	start := time.Now()
	n := s.cache.CountKey(c, key)
	s.count.observe(start)
	s.keyBytes.Add(int64(len(key)))
	return n
}

func (s *countingSource) CountBatch(cs []cube.Cube, keys []string, _ int) []int {
	out := make([]int, len(cs))
	for i := range cs {
		out[i] = s.CountKey(cs[i], keys[i])
	}
	return out
}

func (s *countingSource) Cover(c cube.Cube) []int {
	start := time.Now()
	idx := s.ix.Cover(c).Indices()
	s.cover.observe(start)
	return idx
}

func (s *countingSource) NewPartial() core.Partial {
	return &countingPartial{src: s, set: bitset.New(s.ix.N)}
}

// flush records the calls since the last flush as aggregates under
// parent, resets the counters, and returns the count, extend and other
// totals.
func (s *countingSource) flush(t *tracer, parent int) (count, extend, other callTotal) {
	take := func(c *callStat, name string) callTotal {
		ct := callTotal{calls: c.calls.Swap(0), ns: c.ns.Swap(0)}
		t.aggregate(parent, name, "grid", ct.calls, ct.ns)
		return ct
	}
	count = take(&s.count, "grid.Cache.CountKey")
	extend = take(&s.extend, "grid.Index.ExtendCount")
	con := take(&s.constrain, "bitset.And")
	cov := take(&s.cover, "grid.Index.Cover")
	other = callTotal{calls: con.calls + cov.calls, ns: con.ns + cov.ns}
	return count, extend, other
}

// countingPartial is the bitmap partial record set the local source
// uses, with its intersections timed.
type countingPartial struct {
	src *countingSource
	set *bitset.Set
}

func (p *countingPartial) Reset() { p.set.Fill() }

func (p *countingPartial) Constrain(j int, r uint16) {
	start := time.Now()
	p.set.And(p.src.ix.RangeSet(j, r))
	p.src.constrain.observe(start)
}

func (p *countingPartial) ConstrainFrom(parent core.Partial, j int, r uint16) int {
	start := time.Now()
	n := p.set.AndFrom(parent.(*countingPartial).set, p.src.ix.RangeSet(j, r))
	p.src.constrain.observe(start)
	return n
}

func (p *countingPartial) Count() int { return p.set.Count() }

func (p *countingPartial) Extend(j int, r uint16) int {
	start := time.Now()
	n := p.src.ix.ExtendCount(p.set, j, r)
	p.src.extend.observe(start)
	return n
}

func (p *countingPartial) CopyFrom(other core.Partial) {
	p.set.CopyFrom(other.(*countingPartial).set)
}
