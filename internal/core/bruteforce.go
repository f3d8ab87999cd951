package core

import (
	"errors"
	"sync/atomic"
	"time"

	"hido/internal/cube"
	"hido/internal/evo"
	"hido/internal/fanout"
	"hido/internal/obs"
	"hido/internal/stats"
)

// ErrBudgetExceeded reports that brute force hit its candidate or time
// budget before finishing the enumeration; the returned Result holds
// the best projections found so far. The paper's Table 1 reports "-"
// for the musk data set for exactly this reason: at d=160 the space
// C(d,k)·φ^k is astronomically large.
var ErrBudgetExceeded = errors.New("core: brute-force budget exceeded")

// BruteForceOptions configures Figure 2's exhaustive search.
type BruteForceOptions struct {
	// K is the projection dimensionality; M the number of projections
	// to retain.
	K, M int
	// Dims, when non-nil, restricts the enumeration to this feature bag
	// (strictly increasing, unique, at least K dims): only cubes whose
	// constrained dimensions all lie in the bag are visited. The
	// ensemble layer samples one bag per member; nil enumerates every
	// dimension. Enumerating the full bag [0..D) is bit-identical to
	// Dims == nil.
	Dims []int
	// MinCoverage excludes cubes covering fewer records from the result
	// set. Zero selects the default of 1 — the paper reports the best
	// "non-empty" projections; a negative value admits empty cubes.
	MinCoverage int
	// MaxCandidates aborts after evaluating this many k-dimensional
	// cubes (0 = unlimited). Accounting is atomic across workers: when
	// the budget is hit, exactly MaxCandidates leaves were evaluated.
	MaxCandidates uint64
	// MaxDuration aborts after this much wall-clock time (0 = unlimited).
	// The deadline is checked at interior levels of the enumeration as
	// well as at leaves, so a run cannot overshoot by a whole subtree
	// even when pruning skips every leaf in it.
	MaxDuration time.Duration
	// Workers sizes the pool mining the enumeration subtrees. Zero runs
	// serially; negative selects GOMAXPROCS. Results are bit-for-bit
	// identical at every worker count (see BruteForce).
	Workers int
	// DisablePruning turns off coverage pruning, visiting every leaf
	// like Figure 2 verbatim. The pruned and unpruned searches retain
	// identical projections (pruned subtrees contain only cubes below
	// MinCoverage, which the leaf filter would discard anyway); only
	// Evaluations and Pruned differ. Used by the pruning-correctness
	// differential test and the speedup ablation.
	DisablePruning bool
	// Observer, when set, receives periodic progress heartbeats (tasks
	// completed, leaves evaluated, subtrees pruned, evaluations/sec)
	// and a terminal run summary (see internal/obs). A nil observer
	// costs zero allocations on the hot path; an attached observer only
	// reads the shared telemetry counters from a side goroutine, so the
	// Result stays bit-identical with or without one, at every worker
	// count. Implementations must be safe for concurrent use.
	Observer obs.Observer
	// ProgressInterval is the heartbeat period when an Observer is
	// attached (default 1s). Ignored without an Observer.
	ProgressInterval time.Duration
	// RunID labels observer events and trace lines (default "brute").
	RunID string
	// Checkpoint, when non-nil with a Path, periodically persists
	// completed subtree tasks so a killed run can be resumed (see
	// CheckpointOptions). A resumed run skips the checkpointed tasks
	// and its Result — projections, outliers, Evaluations, Pruned —
	// is bit-for-bit what the uninterrupted run would have produced,
	// at any worker count.
	Checkpoint *CheckpointOptions
}

// bfTask is one top-level (dimension, range) prefix of the enumeration
// tree — the unit of work sharding. Each cube is generated under
// exactly one prefix (dimensions are taken in increasing order), so
// tasks are independent and their best sets merge without overlap.
// di indexes into bfShared.dims, not the raw dimension, so the
// recursion can continue from the next searched dimension.
type bfTask struct {
	di  int
	rng uint16
}

// bfShared is the state one BruteForce run shares across its workers.
type bfShared struct {
	src      CountSource
	opt      BruteForceOptions
	dims     []int // searched dimensions (the bag, or all of them)
	n        int   // src.N(), cached off the hot loops
	phi      int   // src.Phi(), cached off the hot loops
	k        int
	minCov   int
	prune    bool
	deadline time.Time

	tasks []bfTask
	next  atomic.Int64
	// results[t] is task t's best set, filled by whichever worker
	// claimed it; nil marks a task skipped after the budget was hit.
	results []*evo.BestSet
	// done[t] marks tasks restored from a checkpoint (nil without a
	// resume); workers skip them. cp records newly completed tasks.
	done []bool
	cp   *bruteCheckpointer

	// evaluated is the atomic candidate-budget reservation counter
	// (only advanced when MaxCandidates > 0); evals and pruned
	// accumulate the per-worker telemetry.
	evaluated atomic.Uint64
	budgetHit atomic.Bool
	evals     atomic.Uint64
	pruned    atomic.Uint64
	// tasksDone counts completed subtree tasks for progress heartbeats;
	// advanced (and read) only when an observer is attached.
	tasksDone atomic.Int64
}

// bfWorker carries one worker's scratch: the per-level partial record
// sets, the in-progress cube, and the local telemetry counters merged
// into bfShared when the worker drains.
type bfWorker struct {
	sh         *bfShared
	bs         *evo.BestSet // current task's best set
	partials   []Partial
	c          cube.Cube
	evals      uint64
	pruned     uint64
	sinceCheck int
	// evalsFlushed/prunedFlushed track how much of the local telemetry
	// has been folded into the shared counters already; with an
	// observer attached checkTime flushes the delta every budget stride
	// so heartbeats see live counts, and the drain flushes the rest.
	evalsFlushed  uint64
	prunedFlushed uint64
}

// flushCounts folds the not-yet-flushed local telemetry into the
// shared counters.
func (w *bfWorker) flushCounts() {
	w.sh.evals.Add(w.evals - w.evalsFlushed)
	w.sh.pruned.Add(w.pruned - w.prunedFlushed)
	w.evalsFlushed = w.evals
	w.prunedFlushed = w.pruned
}

// Budget checks are amortized: leaves weigh 1, interior nodes weigh
// bfInteriorWeight (their bitmap AND is ~an order of magnitude more
// work than a leaf's fused intersection-count), and the wall clock is
// consulted every bfBudgetStride units. Pruning can discard entire
// subtrees between leaves, so interior nodes must advance the counter
// too or a skewed grid could run far past its deadline unchecked.
const (
	bfBudgetStride   = 1024
	bfInteriorWeight = 64
)

// BruteForce enumerates every k-dimensional cube — the candidate sets
// R_i of Figure 2, built as R_{i−1} ⊕ Q_1 with dimensions taken in
// increasing order so each cube is generated exactly once — and
// retains the M with the most negative sparsity coefficients.
//
// The enumeration is depth-first with an incrementally maintained
// record bitmap per level, so a leaf costs one bitmap intersection
// count. Two accelerations preserve the exact result:
//
//   - Sharding: the top-level (dimension, range) prefixes are
//     distributed over opt.Workers goroutines, each mining its
//     subtrees with private scratch bitmaps and a per-task best set;
//     the per-task sets are merged in prefix order, so the Result —
//     projections, sparsity values, outliers, Evaluations — is
//     bit-for-bit identical at every worker count.
//   - Coverage pruning: when a partial record set's count falls below
//     MinCoverage, every cube in the subtree below it is also below
//     MinCoverage (counts only shrink as constraints are added) and
//     would be discarded by the leaf filter, so the subtree is skipped
//     without enumerating its φ^(k−depth) leaves. Result.Pruned counts
//     the skipped subtrees.
//
// If a budget is exceeded, the partial result is returned along with
// ErrBudgetExceeded; which subtrees completed then depends on
// scheduling, but the MaxCandidates accounting stays exact.
func (d *Detector) BruteForce(opt BruteForceOptions) (*Result, error) {
	return BruteForceOver(d.source(), opt)
}

// BruteForceOver runs the same enumeration against an arbitrary
// CountSource — the entry point of the distributed fit. The walk
// depends on the data only through partial-set counts, so any source
// reporting the counts of the concatenated data reproduces the
// single-node Result bit for bit.
func BruteForceOver(src CountSource, opt BruteForceOptions) (*Result, error) {
	if err := validateKM(src.D(), opt.K, opt.M); err != nil {
		return nil, err
	}
	if err := validateDims(src.D(), opt.Dims, opt.K); err != nil {
		return nil, err
	}
	if opt.MinCoverage == 0 {
		opt.MinCoverage = 1
	} else if opt.MinCoverage < 0 {
		opt.MinCoverage = 0
	}
	if opt.RunID == "" {
		opt.RunID = "brute"
	}
	start := time.Now()

	sh := &bfShared{
		src:  src,
		opt:  opt,
		dims: resolveDims(src.D(), opt.Dims),
		n:    src.N(),
		phi:  src.Phi(),
		k:    opt.K,
		// Pruning cuts subtrees whose partial count is already below
		// MinCoverage; at MinCoverage 0 no count qualifies (empty cubes
		// are admissible results), so pruning is a no-op there.
		minCov: opt.MinCoverage,
		prune:  !opt.DisablePruning && opt.MinCoverage > 0,
	}
	if opt.MaxDuration > 0 {
		sh.deadline = start.Add(opt.MaxDuration)
	}
	for di := 0; di <= len(sh.dims)-opt.K; di++ {
		for r := 1; r <= sh.phi; r++ {
			sh.tasks = append(sh.tasks, bfTask{di: di, rng: uint16(r)})
		}
	}
	sh.results = make([]*evo.BestSet, len(sh.tasks))

	if copt := opt.Checkpoint; copt != nil && copt.Path != "" {
		sh.cp = newBruteCheckpointer(*copt, bruteFingerprint(src, opt))
		if copt.Resume {
			if err := sh.cp.restore(sh); err != nil {
				return nil, err
			}
		}
	}

	sh.runWorkers(start, min(fanout.Workers(opt.Workers), len(sh.tasks)))

	// Deterministic merge: per-task best sets in prefix order, entries
	// already sorted by fitness within each. No genome appears under
	// two prefixes, so ties are resolved identically at every worker
	// count.
	merged := evo.NewBestSet(opt.M)
	for _, bs := range sh.results {
		if bs == nil {
			continue
		}
		for _, e := range bs.Entries() {
			merged.Offer(e.Genome, e.Fitness)
		}
	}
	res := &Result{
		Evaluations: int(sh.evals.Load()),
		Pruned:      int(sh.pruned.Load()),
	}
	finalizeOver(src, merged, res)
	res.Elapsed = time.Since(start)
	sh.notifyProgress(start)
	notifySummary(opt.Observer, opt.RunID, "brute", res, sh.budgetHit.Load())
	// The final snapshot makes a budget-stopped run resumable; a failed
	// snapshot surfaces unless the budget error takes precedence (the
	// partial Result is valid either way).
	var cpErr error
	if sh.cp != nil {
		cpErr = sh.cp.flush()
	}
	if sh.budgetHit.Load() {
		return res, ErrBudgetExceeded
	}
	if cpErr != nil {
		return res, cpErr
	}
	return res, nil
}

// runWorkers runs the enumeration on workers fan-out workers. Every
// worker claims tasks from sh.next with scratch of its own, so one
// worker is the serial search: the bit-identical guarantee is
// checkable rather than aspirational. With an observer attached,
// heartbeats run until the workers return, or until a worker's panic
// unwinds through here on its way to the caller.
func (sh *bfShared) runWorkers(start time.Time, workers int) {
	if sh.opt.Observer != nil {
		interval := sh.opt.ProgressInterval
		if interval <= 0 {
			interval = time.Second
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go sh.heartbeat(start, interval, stop, done)
		defer func() {
			close(stop)
			<-done
		}()
	}
	fanout.For(workers, workers, func(int) { sh.runWorker() })
}

// runWorker claims tasks from the shared counter until they run out,
// then folds the local telemetry into the shared counters.
func (sh *bfShared) runWorker() {
	w := &bfWorker{
		sh:       sh,
		partials: make([]Partial, sh.k),
		c:        cube.New(sh.src.D()),
	}
	for i := range w.partials {
		w.partials[i] = sh.src.NewPartial()
	}
	for {
		t := int(sh.next.Add(1)) - 1
		if t >= len(sh.tasks) {
			break
		}
		if sh.done != nil && sh.done[t] {
			continue // restored from a checkpoint
		}
		if sh.budgetHit.Load() {
			continue // drain the remaining task indices
		}
		ev0, pr0 := w.evals, w.pruned
		completed := w.runTask(t)
		if completed && sh.cp != nil {
			sh.cp.taskDone(t, w.bs, w.evals-ev0, w.pruned-pr0)
		}
		if sh.opt.Observer != nil {
			sh.tasksDone.Add(1)
		}
	}
	w.flushCounts()
}

// runTask mines the subtree under one top-level prefix into a fresh
// per-task best set. It reports whether the subtree was enumerated to
// completion — a budget or deadline stop returns false, and the task
// is then excluded from checkpoints so a resume re-runs it whole.
func (w *bfWorker) runTask(t int) bool {
	sh := w.sh
	w.bs = evo.NewBestSet(sh.opt.M)
	sh.results[t] = w.bs
	tk := sh.tasks[t]
	dim := sh.dims[tk.di]
	if sh.k == 1 {
		// The prefix is the leaf: the range bitmap itself is the cube.
		return w.leaf(dim, tk.rng, nil)
	}
	root := w.partials[0]
	root.Reset()
	root.Constrain(dim, tk.rng)
	if sh.prune && root.Count() < sh.minCov {
		w.pruned++
		return true
	}
	w.c[dim] = tk.rng
	ok := w.rec(1, tk.di+1, root)
	w.c[dim] = cube.DontCare
	return ok
}

// rec enumerates the cubes extending the partial record set parent
// (whose constraints occupy searched dimensions below index startIdx
// into sh.dims), reporting false when a budget stop was hit.
func (w *bfWorker) rec(depth, startIdx int, parent Partial) bool {
	sh := w.sh
	if sh.budgetHit.Load() {
		return false
	}
	lastLevel := depth == sh.k-1
	for idx := startIdx; idx <= len(sh.dims)-(sh.k-depth); idx++ {
		j := sh.dims[idx]
		for r := 1; r <= sh.phi; r++ {
			if lastLevel {
				if !w.leaf(j, uint16(r), parent) {
					return false
				}
				continue
			}
			if w.checkTime(bfInteriorWeight) {
				return false
			}
			next := w.partials[depth]
			n := next.ConstrainFrom(parent, j, uint16(r))
			if sh.prune && n < sh.minCov {
				w.pruned++
				continue
			}
			w.c[j] = uint16(r)
			ok := w.rec(depth+1, idx+1, next)
			w.c[j] = cube.DontCare
			if !ok {
				return false
			}
		}
	}
	return true
}

// leaf evaluates one full k-dimensional cube: the parent partial
// extended by range r of dimension j (parent is nil only at k=1). It
// reports false when a budget stop was hit.
func (w *bfWorker) leaf(j int, r uint16, parent Partial) bool {
	sh := w.sh
	var ev uint64
	if sh.opt.MaxCandidates > 0 {
		// Reserve a budget slot before evaluating: reservations past
		// the cap are abandoned, so exactly MaxCandidates leaves are
		// evaluated no matter how many workers race here.
		ev = sh.evaluated.Add(1)
		if ev > sh.opt.MaxCandidates {
			sh.budgetHit.Store(true)
			return false
		}
	}
	w.c[j] = r
	var n int
	if parent == nil {
		// k = 1: the top-level prefix is the whole cube.
		n = sh.src.CountKey(w.c, w.c.Key())
	} else {
		n = parent.Extend(j, r)
	}
	w.evals++
	if n >= sh.minCov {
		if s := stats.Sparsity(n, sh.n, sh.k, sh.phi); s < w.bs.Worst() {
			w.bs.Offer(evo.Genome(w.c), s)
		}
	}
	w.c[j] = cube.DontCare
	if ev != 0 && ev == sh.opt.MaxCandidates {
		sh.budgetHit.Store(true)
		return false
	}
	return !w.checkTime(1)
}

// checkTime advances the amortized budget counter by weight and, every
// bfBudgetStride units, consults the shared stop flag and the wall
// clock. It reports whether the worker should abort.
func (w *bfWorker) checkTime(weight int) bool {
	w.sinceCheck += weight
	if w.sinceCheck < bfBudgetStride {
		return false
	}
	w.sinceCheck = 0
	if w.sh.opt.Observer != nil {
		// Live counts for the heartbeat goroutine; without an observer
		// the shared counters are touched only at the drain.
		w.flushCounts()
	}
	if w.sh.budgetHit.Load() {
		return true
	}
	if !w.sh.deadline.IsZero() && time.Now().After(w.sh.deadline) {
		w.sh.budgetHit.Store(true)
		return true
	}
	return false
}
