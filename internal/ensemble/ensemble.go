// Package ensemble aggregates many cheap subspace searches into one
// outlier ranking — the feature-bagging / subspace-ensemble extension
// of the paper's single best-projection search (ROADMAP item 4; cf.
// Lazarevic & Kumar's feature bagging and He et al.'s unified subspace
// outlier ensemble in PAPERS.md).
//
// Each member draws a random feature bag (a subset of the data's
// dimensions), runs the existing brute-force or evolutionary search
// restricted to that bag (core.BruteForceOptions.Dims /
// core.EvoOptions.Dims), and scores every record by the most negative
// sparsity coefficient among its covering projections. The per-member
// evidence columns are then aggregated by a pluggable Combiner.
//
// Determinism matches the rest of the library: bags and member seeds
// are derived serially from the master seed before any parallel work
// starts, members run in fixed result slots on a shared worker pool
// (surplus workers fan out inside each member's search), and combiners
// are deterministic — so ensemble scores are bit-identical for a given
// seed at every worker count.
package ensemble

import (
	"fmt"
	"sort"
	"time"

	"hido/internal/core"
	"hido/internal/fanout"
	"hido/internal/obs"
	"hido/internal/xrand"
)

// Algo selects the per-member search algorithm.
type Algo int

const (
	// EvoAlgo runs the Figure 3 evolutionary search per member — the
	// default: cheap per member, and member diversity compensates for
	// the stochastic misses of any single run.
	EvoAlgo Algo = iota
	// BruteAlgo enumerates each bag exhaustively. With small bags the
	// per-member space C(bag, k)·phi^k stays tractable even when the
	// full enumeration would not be.
	BruteAlgo
)

func (a Algo) String() string {
	switch a {
	case EvoAlgo:
		return "evo"
	case BruteAlgo:
		return "brute"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// ParseAlgo maps the CLI/API spelling to an Algo.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "evo", "":
		return EvoAlgo, nil
	case "brute":
		return BruteAlgo, nil
	default:
		return 0, fmt.Errorf("ensemble: unknown algo %q (want evo or brute)", s)
	}
}

// Options configures an ensemble fit. Zero values select the
// documented defaults.
type Options struct {
	// Members is the number of independent searches (default 10).
	Members int
	// BagSize is the number of dimensions each member's feature bag
	// samples. Zero selects the default (D+1)/2 clamped to [K, D]; a
	// bag of D dims disables subspace sampling (every member sees all
	// features and differs only by seed — pointless for brute force,
	// where all members would then be identical).
	BagSize int
	// Algo selects the per-member search (default EvoAlgo).
	Algo Algo
	// K is the projection dimensionality; M the number of projections
	// each member retains. Required.
	K, M int
	// MinCoverage is forwarded to the member searches (see
	// core.EvoOptions.MinCoverage).
	MinCoverage int
	// Combiner aggregates the evidence (default RankCombiner).
	Combiner Combiner
	// Workers sizes the pool: up to Members searches run concurrently
	// and surplus workers fan out inside each search. Zero runs
	// serially; negative selects GOMAXPROCS. Scores are bit-identical
	// at every worker count.
	Workers int
	// Seed drives bag sampling and the member searches; runs are
	// reproducible per seed. Member r's search seed is derived with the
	// golden-ratio increment, so member 0 of a 1-member ensemble runs
	// with exactly this seed (the differential tests rely on it).
	Seed uint64
	// PopSize, MaxGenerations, and Patience tune the evolutionary
	// member searches (ignored under BruteAlgo); zero keeps the
	// core defaults.
	PopSize, MaxGenerations, Patience int
	// Observer, when set, receives each member's events under derived
	// run IDs ("ens.m0", "ens.m1", …) plus one aggregate summary under
	// the parent ID. Implementations must be safe for concurrent use.
	Observer obs.Observer
	// RunID labels observer events (default "ens").
	RunID string
}

// Member is one fitted ensemble member: its feature bag, its derived
// seed, and the projections its search retained.
type Member struct {
	// Dims is the member's feature bag, strictly increasing.
	Dims []int
	// Seed is the member's derived search seed (meaningful under
	// EvoAlgo; brute force is deterministic without one).
	Seed uint64
	// Projections are the member's retained sparse projections, most
	// negative sparsity first.
	Projections []core.Projection
	// Evaluations counts the member search's distinct fitness
	// computations.
	Evaluations int
}

// Result is a fitted ensemble.
type Result struct {
	// Members holds the fitted members in fixed order.
	Members []Member
	// Evidence[r][i] is member r's outlierness for record i: the
	// negated Result.Score, so 0 means "covered by nothing" and larger
	// means more outlying.
	Evidence [][]float64
	// Combined is the per-record ensemble score (higher = more
	// outlying), Evidence aggregated by the configured Combiner.
	Combined []float64
	// Evaluations sums the member searches' distinct fitness
	// computations; Elapsed is wall clock.
	Evaluations int
	Elapsed     time.Duration
}

// Ranked returns record indices ordered most-outlying first, ties
// broken by record index (ascending) so the ordering is total and
// deterministic under the heavy ties rank aggregation produces.
func (r *Result) Ranked() []int {
	idx := make([]int, len(r.Combined))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if r.Combined[idx[a]] != r.Combined[idx[b]] {
			return r.Combined[idx[a]] > r.Combined[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

func (o Options) withDefaults(d *core.Detector) Options {
	if o.Members == 0 {
		o.Members = 10
	}
	if o.BagSize == 0 {
		o.BagSize = (d.D() + 1) / 2
		if o.BagSize < o.K {
			o.BagSize = o.K
		}
	}
	if o.RunID == "" {
		o.RunID = "ens"
	}
	return o
}

func validateOptions(d *core.Detector, opt Options) error {
	if opt.Members < 1 {
		return fmt.Errorf("ensemble: members=%d must be positive", opt.Members)
	}
	if opt.BagSize < 0 || opt.BagSize > d.D() {
		return fmt.Errorf("ensemble: bag size %d outside [1,%d]", opt.BagSize, d.D())
	}
	if opt.BagSize != 0 && opt.BagSize < opt.K {
		return fmt.Errorf("ensemble: bag size %d smaller than projection dimensionality k=%d", opt.BagSize, opt.K)
	}
	switch opt.Algo {
	case EvoAlgo, BruteAlgo:
	default:
		return fmt.Errorf("ensemble: unknown algo %v", opt.Algo)
	}
	switch opt.Combiner {
	case RankCombiner, ZScoreCombiner, MaxCombiner:
	default:
		return fmt.Errorf("ensemble: unknown combiner %v", opt.Combiner)
	}
	return nil
}

// SampleBags draws members' feature bags: sorted BagSize-subsets of
// [0, D), sampled serially from a stream derived from seed (separate
// from the member search streams, so adding members never perturbs
// existing bags or searches). A full-size bag comes out as [0..D),
// which the core searches treat bit-identically to "no restriction".
func SampleBags(d, members, bagSize int, seed uint64) [][]int {
	// Offset the stream so a bag sampler never aliases a member search
	// seeded with the same master seed.
	rng := xrand.New(seed ^ 0xba9b0a6e35f3f0c7)
	bags := make([][]int, members)
	for r := range bags {
		bag := rng.Sample(d, bagSize)
		sort.Ints(bag)
		bags[r] = bag
	}
	return bags
}

// memberSeed derives member r's search seed with the golden-ratio
// increment (the EvolutionaryRestarts scheme), so member 0 keeps the
// base seed and successive members never collide.
func memberSeed(base uint64, r int) uint64 {
	return base + uint64(r)*0x9e3779b97f4a7c15
}

// Fit runs the ensemble against a fitted detector and returns the
// per-member evidence and combined scores. Scores are bit-identical
// for a fixed seed at every worker count.
func Fit(d *core.Detector, opt Options) (*Result, error) {
	if opt.Members < 0 {
		return nil, fmt.Errorf("ensemble: members=%d must be positive", opt.Members)
	}
	opt = opt.withDefaults(d)
	if err := validateOptions(d, opt); err != nil {
		return nil, err
	}
	start := time.Now()

	bags := SampleBags(d.D(), opt.Members, opt.BagSize, opt.Seed)

	outer, inner := fanout.Split(fanout.Workers(opt.Workers), opt.Members)

	res := &Result{
		Members:  make([]Member, opt.Members),
		Evidence: make([][]float64, opt.Members),
	}
	errs := make([]error, opt.Members)
	fanout.For(opt.Members, outer, func(r int) {
		bag := bags[r]
		seed := memberSeed(opt.Seed, r)
		runID := fmt.Sprintf("%s.m%d", opt.RunID, r)
		var sr *core.Result
		var err error
		switch opt.Algo {
		case BruteAlgo:
			sr, err = d.BruteForce(core.BruteForceOptions{
				K: opt.K, M: opt.M, Dims: bag,
				MinCoverage: opt.MinCoverage,
				Workers:     inner,
				Observer:    opt.Observer,
				RunID:       runID,
			})
		default:
			sr, err = d.Evolutionary(core.EvoOptions{
				K: opt.K, M: opt.M, Dims: bag,
				MinCoverage:    opt.MinCoverage,
				PopSize:        opt.PopSize,
				MaxGenerations: opt.MaxGenerations,
				Patience:       opt.Patience,
				Workers:        inner,
				Seed:           seed,
				Observer:       opt.Observer,
				RunID:          runID,
			})
		}
		if err != nil {
			errs[r] = err
			return
		}
		res.Members[r] = Member{
			Dims:        bag,
			Seed:        seed,
			Projections: sr.Projections,
			Evaluations: sr.Evaluations,
		}
		// Evidence: flip the "most negative covering sparsity" score to
		// an outlierness (0 = uncovered, larger = sparser subspace).
		col := d.Scores(sr.Projections)
		for i, s := range col {
			col[i] = -s
		}
		res.Evidence[r] = col
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for _, m := range res.Members {
		res.Evaluations += m.Evaluations
	}
	combined, err := Combine(opt.Combiner, res.Evidence)
	if err != nil {
		return nil, err
	}
	res.Combined = combined
	res.Elapsed = time.Since(start)
	notifySummary(opt, res, d)
	return res, nil
}

// notifySummary emits the aggregate terminal record: the sum of the
// member searches, labeled "ensemble" under the parent run ID.
func notifySummary(opt Options, res *Result, d *core.Detector) {
	if opt.Observer == nil {
		return
	}
	distinct := map[string]bool{}
	for _, m := range res.Members {
		for _, p := range m.Projections {
			distinct[p.Cube.Key()] = true
		}
	}
	opt.Observer.OnDone(obs.SummaryEvent{
		Run:         opt.RunID,
		Algo:        "ensemble",
		Evaluations: res.Evaluations,
		Projections: len(distinct),
		Elapsed:     res.Elapsed,
	})
}
