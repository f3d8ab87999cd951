package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hido/internal/cube"
	"hido/internal/evo"
	"hido/internal/fanout"
	"hido/internal/obs"
	"hido/internal/stats"
	"hido/internal/xrand"
)

// CrossoverKind selects the recombination operator (§2.2).
type CrossoverKind int

const (
	// OptimizedCrossover is the paper's problem-specific operator
	// (Figure 5): exhaustive search over the Type II positions, greedy
	// extension over the Type III positions, complementary second
	// child. Children are always feasible k-dimensional projections.
	OptimizedCrossover CrossoverKind = iota
	// TwoPointCrossover is the unbiased baseline: swap the segments to
	// the right of a random cut point. Children may be infeasible
	// (wrong dimensionality) and then receive the worst fitness.
	TwoPointCrossover
)

func (c CrossoverKind) String() string {
	switch c {
	case OptimizedCrossover:
		return "optimized"
	case TwoPointCrossover:
		return "two-point"
	default:
		return fmt.Sprintf("CrossoverKind(%d)", int(c))
	}
}

// EvoOptions configures Figure 3's evolutionary search. Zero values
// select the documented defaults.
type EvoOptions struct {
	// K is the projection dimensionality; M the number of projections
	// to retain. Required.
	K, M int
	// Dims, when non-nil, restricts the search to this feature bag:
	// genomes constrain only the listed dimensions (strictly increasing,
	// unique, at least K of them). The ensemble layer samples one bag
	// per member; nil searches every dimension. Searching the full bag
	// [0..D) is bit-identical to Dims == nil.
	Dims []int
	// PopSize is the population size p (default 100).
	PopSize int
	// Crossover selects the recombination operator (default optimized).
	Crossover CrossoverKind
	// Selection selects the parent-sampling strategy (default the
	// paper's rank roulette).
	Selection evo.Selection
	// MutateP1 and MutateP2 are the per-string probabilities of the
	// Type I (dimension swap) and Type II (range change) mutations of
	// Figure 6. The paper sets p1 = p2; zero selects the default of
	// 0.3 each, a negative value disables that mutation type.
	MutateP1, MutateP2 float64
	// MaxGenerations caps the search (default 300).
	MaxGenerations int
	// Patience stops the search after this many generations without a
	// best-set improvement (default 40; 0 keeps the default, negative
	// disables).
	Patience int
	// MinCoverage excludes cubes covering fewer records from the result
	// set (zero selects the default of 1 — the paper's non-empty
	// projections; negative admits empty cubes). Population dynamics
	// are unaffected; sparser-than-covered cubes still steer the search.
	MinCoverage int
	// TypeIIExhaustiveLimit caps the exhaustive 2^k'' search over
	// differing Type II positions; beyond it each position is resolved
	// greedily. The paper notes k' is typically small. Default 16.
	TypeIIExhaustiveLimit int
	// Workers is the size of the worker pool scoring each generation's
	// population and recombining its pairs. Zero runs serially;
	// negative selects GOMAXPROCS. Results are bit-for-bit identical
	// at every worker count: each crossover pair gets a private RNG
	// stream drawn serially from the master stream, fitness evaluation
	// is batched and deduplicated before it fans out, and best-set
	// offers happen in population order after the barrier.
	Workers int
	// Seed drives all randomness; runs are reproducible per seed.
	Seed uint64
	// Observer, when set, receives structured per-generation events and
	// a terminal run summary (see internal/obs). A nil observer costs
	// zero allocations on the hot path, and an attached observer never
	// changes the Result — it only reads derived snapshots. Restarts
	// and islands deliver events from several goroutines, so
	// implementations must be safe for concurrent use.
	Observer obs.Observer
	// RunID labels this run's observer events and trace lines (default
	// "evo"). Restarts and islands derive per-run IDs from it
	// ("evo.r0", "evo.i2").
	RunID string
	// Checkpoint, when non-nil with a Path, persists the search state
	// at generation boundaries so a killed run can be resumed (see
	// CheckpointOptions). The snapshot carries the population, the
	// fitness memo, the best set, and the master RNG stream state, so
	// a resumed run follows the exact trajectory the dead process
	// would have — bit-for-bit, at any worker count. Not supported
	// under restarts or islands, which interleave several searches.
	Checkpoint *CheckpointOptions
}

func (o EvoOptions) withDefaults() EvoOptions {
	if o.RunID == "" {
		o.RunID = "evo"
	}
	if o.PopSize == 0 {
		o.PopSize = 100
	}
	switch {
	case o.MutateP1 == 0:
		o.MutateP1 = 0.3
	case o.MutateP1 < 0:
		o.MutateP1 = 0
	}
	switch {
	case o.MutateP2 == 0:
		o.MutateP2 = 0.3
	case o.MutateP2 < 0:
		o.MutateP2 = 0
	}
	if o.MaxGenerations == 0 {
		o.MaxGenerations = 300
	}
	if o.Patience == 0 {
		o.Patience = 40
	}
	switch {
	case o.MinCoverage == 0:
		o.MinCoverage = 1
	case o.MinCoverage < 0:
		o.MinCoverage = 0
	}
	if o.TypeIIExhaustiveLimit == 0 {
		o.TypeIIExhaustiveLimit = 16
	}
	return o
}

// search carries the mutable state of one evolutionary run.
type search struct {
	src     CountSource
	opt     EvoOptions
	dims    []int      // searched dimensions (the bag, or all of them)
	rng     *xrand.RNG // master stream: selection, pairing, mutation, per-pair seeds
	bs      *evo.BestSet
	cache   map[string]fitEntry // run-local fitness memo; also defines Evaluations
	workers int
	evals   int
	// pairs holds the crossover state of each pair slot, reused across
	// generations; xreq and xend collect a batched round's extensions
	// and each pair's end offset into them.
	pairs []*xpair
	xreq  []Extension
	xend  []int
	// keyBuf holds the current generation's member keys back to back;
	// member i's key ends at keyEnd[i]. evaluateAll builds them once
	// and the memo, the count batch and the best-set offers share them.
	keyBuf []byte
	keyEnd []int
	// lastDistinct is the latest generation's distinct-genome count,
	// maintained by evaluateAll only when the run is observed.
	lastDistinct int
}

type fitEntry struct {
	sparsity float64
	count    int
}

// newSearch assembles a run context over an already-validated source.
// opt must already carry its defaults.
func newSearch(src CountSource, opt EvoOptions) *search {
	return &search{
		src:     src,
		opt:     opt,
		dims:    resolveDims(src.D(), opt.Dims),
		rng:     xrand.New(opt.Seed),
		bs:      evo.NewBestSet(opt.M),
		cache:   make(map[string]fitEntry),
		workers: fanout.Workers(opt.Workers),
	}
}

func validateEvoOptions(src CountSource, opt EvoOptions) error {
	if err := validateKM(src.D(), opt.K, opt.M); err != nil {
		return err
	}
	if err := validateDims(src.D(), opt.Dims, opt.K); err != nil {
		return err
	}
	if opt.PopSize != 0 && opt.PopSize < 2 {
		return fmt.Errorf("core: population size %d too small", opt.PopSize)
	}
	if opt.MutateP1 > 1 || opt.MutateP2 > 1 {
		return fmt.Errorf("core: mutation probabilities (%v, %v) outside [0,1]",
			opt.MutateP1, opt.MutateP2)
	}
	return nil
}

// Evolutionary runs the genetic search of Figure 3 and returns the M
// best projections with their covered points. With opt.Workers > 1
// the population is scored and recombined by a worker pool; results
// are identical to the serial run.
func (d *Detector) Evolutionary(opt EvoOptions) (*Result, error) {
	return EvolutionaryOver(d.source(), opt)
}

// EvolutionaryOver runs the same search against an arbitrary
// CountSource — the entry point of the distributed fit, where the
// source sums per-shard cube counts. The trajectory depends on the
// data only through counts, so any source that reports the counts of
// the concatenated data reproduces the single-node Result bit for
// bit.
func EvolutionaryOver(src CountSource, opt EvoOptions) (*Result, error) {
	if err := validateEvoOptions(src, opt); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	start := time.Now()

	s := newSearch(src, opt)

	pop := evo.NewPopulation(opt.PopSize, src.D())
	var cp *evoCheckpointer
	var err error
	startGen, stall := 0, 0
	restored := false
	if copt := opt.Checkpoint; copt != nil && copt.Path != "" {
		cp = newEvoCheckpointer(*copt, evoFingerprint(src, opt))
		if copt.Resume {
			startGen, stall, restored, err = cp.restore(s, pop)
			if err != nil {
				return nil, err
			}
		}
	}
	if !restored {
		s.randomPopulation(pop)
		s.evaluateAll(pop)
	}

	res := &Result{}
	gen := startGen
	for ; gen < opt.MaxGenerations; gen++ {
		pop.Select(opt.Selection, s.rng)
		s.crossoverAll(pop)
		s.mutateAll(pop)
		s.evaluateAll(pop)
		improved := s.offerAll(pop)
		// The De Jong fraction doubles as the event's convergence field,
		// so compute it once per generation.
		frac := pop.ConvergedFraction(0.95)
		s.notifyGeneration(pop, gen, frac)
		if improved {
			stall = 0
		} else {
			stall++
		}
		if cp != nil {
			cp.snapshot(s, pop, gen+1, stall, false)
		}
		if frac >= 1 {
			res.ConvergedDeJong = true
			gen++
			break
		}
		if opt.Patience > 0 && stall >= opt.Patience {
			gen++
			break
		}
	}

	res.Generations = gen
	res.Evaluations = s.evals
	finalizeOver(src, s.bs, res)
	res.Elapsed = time.Since(start)
	notifySummary(opt.Observer, opt.RunID, "evo", res, false)
	if cp != nil {
		if err := cp.flush(s, pop, gen, stall); err != nil {
			return res, err
		}
	}
	return res, nil
}

// randomGenome fills g with a uniform random k-dimensional projection
// over the searched dimensions.
func (s *search) randomGenome(g evo.Genome) {
	for i := range g {
		g[i] = cube.DontCare
	}
	for _, i := range s.rng.Sample(len(s.dims), s.opt.K) {
		g[s.dims[i]] = uint16(s.rng.IntRange(1, s.src.Phi()))
	}
}

// randomPopulation fills every member with a random genome and builds
// the position lists.
func (s *search) randomPopulation(pop *evo.Population) {
	for i := range pop.Members {
		s.randomGenome(pop.Members[i])
	}
	pop.ReindexAll()
}

// sparsityOf converts a raw count into the sparsity coefficient
// (Equation 1) at this search's projection dimensionality.
func (s *search) sparsityOf(n int) float64 {
	return stats.Sparsity(n, s.src.N(), s.opt.K, s.src.Phi())
}

// evaluateAll scores every member of the population, filling
// pop.Fitness. The batch is deduplicated serially against the
// run-local memo — which also fixes Evaluations independent of the
// worker count — and the surviving distinct cubes are counted by the
// worker pool. Infeasible genomes (wrong dimensionality, possible
// only under two-point crossover) receive +Inf, the worst value for
// the minimizing search ("assigned very low fitness values", §2.2).
//
// Each member's key is built once, from its position list, into the
// search's reused key buffer; memo lookups read it without allocating,
// and only a cube the run has never seen gets a key string of its own.
func (s *search) evaluateAll(pop *evo.Population) {
	n := pop.Len()
	s.keyBuf, s.keyEnd = s.keyBuf[:0], s.keyEnd[:0]
	for i, g := range pop.Members {
		s.keyBuf = cube.Cube(g).AppendKeyAt(s.keyBuf, pop.Pos[i])
		s.keyEnd = append(s.keyEnd, len(s.keyBuf))
	}

	// One source batch per generation: a local source fans the counts
	// out on the worker pool; a remote source resolves them in a single
	// round trip across the shards. A queued cube's memo entry is a
	// placeholder until the batch returns, which also dedups the batch.
	var cs []cube.Cube
	var ks []string
	for i := 0; i < n; i++ {
		if _, ok := s.cache[string(s.memberKey(i))]; ok {
			continue
		}
		key := string(s.memberKey(i))
		if len(pop.Pos[i]) != s.opt.K {
			s.cache[key] = fitEntry{sparsity: math.Inf(1), count: -1}
			continue
		}
		s.cache[key] = fitEntry{}
		cs = append(cs, cube.Cube(pop.Members[i]))
		ks = append(ks, key)
		s.evals++
	}
	if len(cs) > 0 {
		counts := s.src.CountBatch(cs, ks, s.workers)
		for j, key := range ks {
			s.cache[key] = fitEntry{sparsity: s.sparsityOf(counts[j]), count: counts[j]}
		}
	}

	for i := 0; i < n; i++ {
		pop.Fitness[i] = s.cache[string(s.memberKey(i))].sparsity
	}

	// The keys are already in hand, so the population's diversity count
	// is nearly free here; notifyGeneration reads it instead of paying
	// for a fresh comparison-sort over the members. Only observed runs
	// need it.
	if s.opt.Observer != nil {
		seen := make(map[string]struct{}, n)
		for i := 0; i < n; i++ {
			seen[string(s.memberKey(i))] = struct{}{}
		}
		s.lastDistinct = len(seen)
	}
}

// memberKey returns member i's key from the latest evaluateAll, a view
// into the key buffer valid until the next one.
func (s *search) memberKey(i int) []byte {
	start := 0
	if i > 0 {
		start = s.keyEnd[i-1]
	}
	return s.keyBuf[start:s.keyEnd[i]]
}

// offerAll submits the whole population to the best set in member
// order and reports whether the set improved. It reads the member keys
// of the evaluateAll that scored the population.
func (s *search) offerAll(pop *evo.Population) bool {
	improved := false
	for i := range pop.Members {
		if s.offer(pop.Members[i], s.memberKey(i), pop.Fitness[i]) {
			improved = true
		}
	}
	return improved
}

// offer submits a genome with its key to the best set, respecting
// feasibility and the MinCoverage filter. It reports whether the set
// improved.
func (s *search) offer(g evo.Genome, key []byte, fitness float64) bool {
	if math.IsInf(fitness, 1) {
		return false
	}
	if fitness >= s.bs.Worst() {
		return false
	}
	e := s.cache[string(key)]
	if e.count < s.opt.MinCoverage {
		return false
	}
	return s.bs.OfferKey(g, key, fitness)
}

// mutateAll applies Figure 6 to every string in the population.
func (s *search) mutateAll(pop *evo.Population) {
	for i := range pop.Members {
		s.mutate(pop.Members[i], pop.Pos[i])
	}
}

// mutate applies the two mutation types to one string in place and
// keeps pos, the string's sorted position list, current. Neither type
// changes the dimensionality, so pos keeps its length.
//
// Type I (probability p1): exchange a dimension — a random '*'
// position receives a random range and a random non-'*' position
// becomes '*', preserving the projection dimensionality.
//
// Type II (probability p2): a random non-'*' position changes to a
// different random range.
//
// Only searched dimensions are '*' candidates: a Type I swap must not
// leak a constraint outside the feature bag. Members constrain bag
// dimensions only, so the non-'*' positions are exactly pos.
func (s *search) mutate(g evo.Genome, pos []int) {
	if s.rng.Bernoulli(s.opt.MutateP1) {
		if stars := len(s.dims) - len(pos); stars > 0 && len(pos) > 0 {
			in := s.star(pos, s.rng.Intn(stars))
			o := s.rng.Intn(len(pos))
			g[in] = uint16(s.rng.IntRange(1, s.src.Phi()))
			g[pos[o]] = cube.DontCare
			// Put in where out was, then move it to its sorted place.
			pos[o] = in
			for ; o > 0 && pos[o-1] > in; o-- {
				pos[o], pos[o-1] = pos[o-1], in
			}
			for ; o+1 < len(pos) && pos[o+1] < in; o++ {
				pos[o], pos[o+1] = pos[o+1], in
			}
		}
	}
	if s.rng.Bernoulli(s.opt.MutateP2) && len(pos) > 0 {
		j := pos[s.rng.Intn(len(pos))]
		if phi := s.src.Phi(); phi > 1 {
			old := g[j]
			for {
				g[j] = uint16(s.rng.IntRange(1, phi))
				if g[j] != old {
					break
				}
			}
		}
	}
}

// star returns the q-th (0-based) searched dimension, in increasing
// order, that pos leaves '*'. Each constrained position at or below
// the running index shifts it up by one; a binary search places a
// position within the searched dimensions, which is the position
// itself when every dimension is searched.
func (s *search) star(pos []int, q int) int {
	for _, j := range pos {
		if sort.SearchInts(s.dims, j) > q {
			break
		}
		q++
	}
	return s.dims[q]
}
