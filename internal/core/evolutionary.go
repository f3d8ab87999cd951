package core

import (
	"fmt"
	"math"
	"slices"
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
	// Workers is the size of the worker pool a generation fans out on,
	// shared by every run restarts or islands advance. Zero runs
	// serially; negative selects GOMAXPROCS. Results are bit-for-bit
	// identical at every worker count: each crossover pair gets a
	// private RNG stream drawn serially from its run's master stream,
	// fitness evaluation is deduplicated before it fans out, and
	// best-set offers happen in population order.
	Workers int
	// Seed drives all randomness; runs are reproducible per seed.
	Seed uint64
	// Observer, when set, receives structured per-generation events and
	// a terminal run summary (see internal/obs). A nil observer costs
	// zero allocations on the hot path, and an attached observer never
	// changes the Result — it only reads derived snapshots. Events come
	// from the calling goroutine, each generation's in run order.
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
	// under restarts or islands, which advance several searches.
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

// search carries the mutable state of one evolutionary run; lockstep
// advances it, alone or beside other runs.
type search struct {
	src   CountSource
	opt   EvoOptions
	dims  []int      // searched dimensions (the bag, or all of them)
	rng   *xrand.RNG // master stream: selection, pairing, mutation, per-pair seeds
	bs    *evo.BestSet
	cache map[string]fitEntry // run-local fitness memo; also defines Evaluations
	evals int
	pop   *evo.Population
	// gen and stall count the generations done and those since the
	// best set improved; improved and frac (its De Jong fraction)
	// describe the latest one.
	gen, stall int
	improved   bool
	frac       float64
	cp         *evoCheckpointer // one-run searches only
	err        error            // the last checkpoint write's
	res        *Result          // set when the run stops
	pairs, xs  []*xpair         // pair slots, reused; xs is this generation's prefix
	// keyBuf holds the generation's member keys back to back; member
	// i's key ends at keyEnd[i].
	keyBuf []byte
	keyEnd []int
	// cs and ks are the cubes the latest evaluation had never seen, and
	// their keys; their counts start at lo in the lockstep's batch.
	cs           []cube.Cube
	ks           []string
	lo           int
	lastDistinct int // the latest distinct-genome count, kept when observed
}

type fitEntry struct {
	sparsity float64
	count    int
}

// newSearch assembles a run context over an already-validated source.
// opt must already carry its defaults.
func newSearch(src CountSource, opt EvoOptions) *search {
	return &search{
		src:   src,
		opt:   opt,
		dims:  resolveDims(src.D(), opt.Dims),
		rng:   xrand.New(opt.Seed),
		bs:    evo.NewBestSet(opt.M),
		cache: make(map[string]fitEntry),
		pop:   evo.NewPopulation(opt.PopSize, src.D()),
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
	return EvolutionaryOver(d.Source(), opt)
}

// EvolutionaryOver runs the same search against an arbitrary
// CountSource — the entry point of the distributed fit, where the
// source sums per-shard cube counts. The trajectory depends on the
// data only through counts, so any source that reports the counts of
// the concatenated data reproduces the single-node Result bit for
// bit. It is the one-run case of EvolutionaryRestartsOver, and the
// only one that checkpoints.
func EvolutionaryOver(src CountSource, opt EvoOptions) (*Result, error) {
	return EvolutionaryRestartsOver(src, opt, 1)
}

// lockstep advances searches over one source a generation at a time:
// the one loop behind a single run, restarts and islands. Each run
// draws from its own RNG and counts into its own memo, so it follows
// the trajectory it would alone; the runs share a team of workers and,
// over a BatchSource, every round trip: one ExtendBatch per crossover
// round and one CountBatch per evaluation, for all runs together.
type lockstep struct {
	src    CountSource
	team   *fanout.Team
	runs   []*search   // the unfinished runs, in run order
	xs     []*xpair    // every run's pairs of the generation
	xreq   []Extension // a batched round's extensions
	xend   []int       // each pair's end offset in xreq
	cs     []cube.Cube // every run's misses, their keys and counts
	ks     []string
	counts []int
}

// newLockstep sets runs to advance together on a team of workers; the
// caller closes the team.
func newLockstep(src CountSource, workers int, runs []*search) *lockstep {
	return &lockstep{src: src, team: fanout.NewTeam(workers), runs: slices.Clone(runs)}
}

// each runs phase on every unfinished run, the runs at once: a phase
// touches only its own run's state.
func (l *lockstep) each(phase func(s *search)) {
	l.team.For(len(l.runs), func(i int) { phase(l.runs[i]) })
}

// seed scores a random initial population for every run.
func (l *lockstep) seed() {
	l.each(func(s *search) {
		s.randomPopulation(s.pop)
		s.queueMisses(s.pop)
	})
	l.count()
	l.each(func(s *search) { s.score(s.pop, l.counts[s.lo:][:len(s.ks)]) })
}

// step advances every unfinished run one generation of Figure 3: each
// run selects and starts its pairs from its own RNG, the pairs of all
// runs recombine together, each run mutates and queues its misses, all
// misses are counted together, and each run scores, offers to its best
// set and measures its convergence. The caller then sends the events
// and checks the stops in run order.
func (l *lockstep) step() {
	l.each(func(s *search) {
		s.pop.Select(s.opt.Selection, s.rng)
		s.startPairs()
	})
	l.recombine()
	l.each(func(s *search) {
		s.finishPairs()
		s.mutateAll(s.pop)
		s.queueMisses(s.pop)
	})
	l.count()
	l.each(func(s *search) {
		s.score(s.pop, l.counts[s.lo:][:len(s.ks)])
		s.improved = s.offerAll(s.pop)
		s.frac = s.pop.ConvergedFraction(0.95) // also the event's field
	})
}

// count resolves every run's misses, in run order: over a BatchSource
// in one CountBatch, one round trip; otherwise in blocks on the team.
// Two runs may queue one cube; a memoizing source counts it once.
func (l *lockstep) count() {
	l.cs, l.ks = l.cs[:0], l.ks[:0]
	for _, s := range l.runs {
		s.lo = len(l.ks)
		l.cs, l.ks = append(l.cs, s.cs...), append(l.ks, s.ks...)
	}
	switch _, batch := l.src.(BatchSource); {
	case len(l.cs) == 0:
	case batch:
		l.counts = l.src.CountBatch(l.cs, l.ks, 0)
	default:
		l.counts = slices.Grow(l.counts[:0], len(l.cs))[:len(l.cs)]
		l.team.Blocks(len(l.cs), func(lo, hi int) {
			copy(l.counts[lo:hi], l.src.CountBatch(l.cs[lo:hi], l.ks[lo:hi], 1))
		})
	}
}

// evolve advances the runs until each has stopped — after
// MaxGenerations, once its population meets the De Jong criterion, or
// after Patience generations without a best-set improvement — and
// finishes each, in run order, in the generation it stops.
func (l *lockstep) evolve(start time.Time) {
	live := func(s *search) bool { return s.gen < s.opt.MaxGenerations }
	for {
		kept := l.runs[:0]
		for _, s := range l.runs {
			if live(s) {
				kept = append(kept, s)
			} else {
				s.finish(start)
			}
		}
		if l.runs = kept; len(kept) == 0 {
			return
		}
		l.step()
		live = (*search).conclude // from now on, the generation's checks
	}
}

// conclude ends the run's generation — its observer event, stall count
// and checkpoint — and reports whether the run goes on.
func (s *search) conclude() bool {
	s.notifyGeneration(s.pop, s.gen, s.frac)
	s.stall++
	if s.improved {
		s.stall = 0
	}
	s.gen++
	if s.cp != nil {
		s.cp.snapshot(s, false)
	}
	patience := s.opt.Patience > 0 && s.stall >= s.opt.Patience
	return s.frac < 1 && !patience && s.gen < s.opt.MaxGenerations
}

// finish builds the stopped run's Result with one cover pass, sends its
// summary, writes its last checkpoint and drops its population and memo.
func (s *search) finish(start time.Time) {
	s.res = &Result{Generations: s.gen, Evaluations: s.evals, ConvergedDeJong: s.frac >= 1}
	finalizeOver(s.src, s.bs, s.res)
	s.res.Elapsed = time.Since(start)
	notifySummary(s.opt.Observer, s.opt.RunID, "evo", s.res, false)
	if s.cp != nil {
		s.cp.snapshot(s, true)
		s.err = s.cp.firstErr
	}
	s.pop, s.cache, s.pairs, s.xs, s.keyBuf, s.keyEnd, s.cs, s.ks = nil, nil, nil, nil, nil, nil, nil, nil
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

// queueMisses starts scoring the population: it builds each member's
// key once, from its position list, into the key buffer, and queues in
// cs and ks the cubes the run's memo lacks, deduplicated serially —
// which fixes Evaluations at any worker count — with a placeholder
// memo entry each until score fills it. Infeasible genomes (wrong
// dimensionality, possible only under two-point crossover) get +Inf at
// once, the worst value for the minimizing search ("assigned very low
// fitness values", §2.2).
func (s *search) queueMisses(pop *evo.Population) {
	s.keyBuf, s.keyEnd = s.keyBuf[:0], s.keyEnd[:0]
	for i, g := range pop.Members {
		s.keyBuf = cube.Cube(g).AppendKeyAt(s.keyBuf, pop.Pos[i])
		s.keyEnd = append(s.keyEnd, len(s.keyBuf))
	}
	s.cs, s.ks = s.cs[:0], s.ks[:0]
	for i := range pop.Members {
		if _, ok := s.cache[string(s.memberKey(i))]; ok {
			continue
		}
		key := string(s.memberKey(i))
		if len(pop.Pos[i]) != s.opt.K {
			s.cache[key] = fitEntry{sparsity: math.Inf(1), count: -1}
			continue
		}
		s.cache[key] = fitEntry{}
		s.cs = append(s.cs, cube.Cube(pop.Members[i]))
		s.ks = append(s.ks, key)
		s.evals++
	}
}

// score completes the evaluation queueMisses started, given the counts
// of the queued cubes: it fills their memo entries, then pop.Fitness.
func (s *search) score(pop *evo.Population, counts []int) {
	for j, key := range s.ks {
		s.cache[key] = fitEntry{sparsity: s.sparsityOf(counts[j]), count: counts[j]}
	}
	n := pop.Len()
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

// memberKey returns member i's key from the latest queueMisses, a view
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
// queueMisses built for the population.
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
