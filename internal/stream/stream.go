// Package stream applies a fitted projection-outlier model to records
// that arrive after fitting — the deployment mode of the paper's
// motivating applications (credit-card fraud, network intrusion),
// where the abnormality patterns are mined offline on a reference
// window and incoming events are scored against them online.
//
// A Monitor holds the reference detector plus its mined sparse
// projections. Scoring one record is O(m·k): assign the record's grid
// cells (the reference grid's equi-depth cuts are reused verbatim)
// and test it against each retained projection. Missing attributes
// follow the offline semantics: a record lacking an attribute never
// matches a cube constraining it.
//
// Refit rebuilds the model on a new reference window, giving a simple
// sliding-window deployment; the paper's algorithmics are unchanged —
// this package only packages them behind an online interface.
package stream

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hido/internal/core"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/ensemble"
	"hido/internal/fanout"
	"hido/internal/obs"
)

// Alert describes why a scored record was flagged.
type Alert struct {
	// Score is the most negative sparsity coefficient among matching
	// projections (0 when none matched). For an ensemble model it is
	// the negated combined ensemble score — still "lower is more
	// outlying", though combiners whose scores can go negative (the
	// z-score combiner) make positive alert scores possible.
	Score float64
	// Matches indexes the monitor's Projections that cover the record.
	Matches []int
}

// Flagged reports whether any projection matched.
func (a Alert) Flagged() bool { return len(a.Matches) > 0 }

// Options configures model fitting.
type Options struct {
	// Phi is the grid resolution (required, >= 2).
	Phi int
	// TargetS is the §2.4 advisor target (default −3); it picks the
	// projection dimensionality k and serves as the projection
	// retention threshold.
	TargetS float64
	// M is how many best projections each search run tracks
	// (default 100).
	M int
	// Restarts unions this many evolutionary runs (default 3). The
	// runs execute concurrently on GOMAXPROCS workers; the fitted
	// model is identical at every worker count.
	Restarts int
	// Seed drives the searches.
	Seed uint64
	// Ensemble, when non-nil, fits a subspace-ensemble model instead of
	// the single restarted search: Members searches over sampled
	// feature bags, aggregated by a pluggable combiner (see
	// internal/ensemble). The fitted model carries per-member
	// projections plus score calibration, so serving reproduces the
	// fit-time combine exactly.
	Ensemble *EnsembleOptions `json:"ensemble,omitempty"`
	// Observer, when set, receives the fitting searches' generation
	// events and run summaries (see internal/obs). Excluded from the
	// persisted model JSON; never changes the fitted model.
	Observer obs.Observer `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.TargetS == 0 {
		o.TargetS = -3
	}
	if o.M == 0 {
		o.M = 100
	}
	if o.Restarts == 0 {
		o.Restarts = 3
	}
	return o
}

// Validate checks the options every fit takes, after the zero fields
// take their defaults: φ within discretize.CheckPhi's bounds, a
// negative finite target, positive M and Restarts, and a well-formed
// ensemble section. A fit checks them before it touches any data.
func (o Options) Validate() error {
	o = o.withDefaults()
	if err := discretize.CheckPhi(o.Phi); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if !(o.TargetS < 0) || math.IsInf(o.TargetS, -1) {
		return fmt.Errorf("stream: target sparsity %v must be negative and finite", o.TargetS)
	}
	if o.M < 1 {
		return fmt.Errorf("stream: m=%d must be positive", o.M)
	}
	if o.Restarts < 1 {
		return fmt.Errorf("stream: restarts=%d must be positive", o.Restarts)
	}
	if o.Ensemble != nil {
		return o.Ensemble.validate()
	}
	return nil
}

// Monitor scores records against a model mined from a reference
// window. Score is safe for concurrent use; Refit takes an exclusive
// lock.
type Monitor struct {
	opt Options

	// scorers recycles per-batch scoring scratch (grid cells, ensemble
	// dedup marks) so steady-state serving does not allocate per record.
	scorers sync.Pool

	// ingest holds the continuous-ingestion state once EnableIngest has
	// run (nil otherwise); see ingest.go. Atomic so the hot Ingest path
	// reads it without touching mu.
	ingest atomic.Pointer[ingestState]

	mu          sync.RWMutex
	grid        *discretize.Grid
	names       []string
	projections []core.Projection
	k           int
	// members and combiner are set only for ensemble models;
	// projections then holds the deduplicated union of the member
	// projections (the index space of Alert.Matches).
	members  []memberModel
	combiner ensemble.Combiner
}

// NewMonitor fits the initial model on the reference window.
func NewMonitor(reference *dataset.Dataset, opt Options) (*Monitor, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	m := &Monitor{opt: opt.withDefaults()}
	if err := m.Refit(reference); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMonitorOver fits a single-search model over counts that src takes
// under cuts, with names for the attributes — the distributed fit,
// whose source sums the counts of row shards. The model is the one
// NewMonitor fits over the same rows: both run one fit body. An
// ensemble needs the rows themselves, so opt.Ensemble must be nil.
func NewMonitorOver(src core.CountSource, cuts [][]float64, names []string, opt Options) (*Monitor, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Ensemble != nil {
		return nil, fmt.Errorf("stream: an ensemble fit needs the reference rows, not only their counts")
	}
	m := &Monitor{opt: opt.withDefaults()}
	if err := m.refitOver(src, discretize.FromCuts(src.Phi(), cuts), names); err != nil {
		return nil, err
	}
	return m, nil
}

// Refit replaces the model with one mined from a new reference window
// (same dimensionality). On any error the held model is left untouched.
func (m *Monitor) Refit(reference *dataset.Dataset) error {
	// Reject a mismatched window before discretizing or searching: the
	// mismatch used to surface only after the full evolutionary run had
	// burned CPU on a result that was then thrown away.
	if err := m.checkDims(reference.D()); err != nil {
		return err
	}
	det := core.NewDetector(reference, m.opt.Phi)
	if m.opt.Ensemble != nil {
		return m.refitEnsemble(reference, det)
	}
	// Keep the cuts only, as a loaded model does: the detector's grid
	// is bound to the reference window, which the model must not pin.
	return m.refitOver(det.Source(), discretize.FromCuts(det.Phi(), det.Grid.AllCuts()), reference.Names)
}

// checkDims rejects a refit window whose dimensionality disagrees with
// the held model. A monitor without a model yet (first fit) accepts any
// width.
func (m *Monitor) checkDims(d int) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.grid != nil && d != m.grid.D {
		return fmt.Errorf("stream: refit window has %d dims, model has %d", d, m.grid.D)
	}
	return nil
}

// refitOver is the single-search fit, the one body behind NewMonitor,
// Refit, ingest window refits and NewMonitorOver: the §2.4 advisor
// picks k, the restarted Figure 3 search mines the sparsest
// projections, and the §2.3 filter keeps those at or below TargetS.
// The model keeps grid, which holds cuts only (discretize.FromCuts),
// never the rows behind src.
func (m *Monitor) refitOver(src core.CountSource, grid *discretize.Grid, names []string) error {
	advice := core.Advise(src.N(), src.Phi(), m.opt.TargetS)
	// MinCoverage -1 admits cubes that are EMPTY in the reference
	// window — offline mining discards them (they cover no record),
	// but online they are the strongest alarms: a new record landing
	// in a region the reference never occupied. Over a local source
	// the restarts run concurrently, as the ensemble's members do.
	res, err := core.EvolutionaryRestartsOver(src, core.EvoOptions{
		K: advice.K, M: m.opt.M, Seed: m.opt.Seed, MinCoverage: -1,
		Workers: -1, Observer: m.opt.Observer, RunID: "fit",
	}, m.opt.Restarts)
	if err != nil {
		return err
	}
	res = res.FilterProjectionsOver(src, m.opt.TargetS)

	m.mu.Lock()
	defer m.mu.Unlock()
	// Backstop for the up-front checkDims: a racing Refit could have
	// swapped in a different-width model while this fit ran off-lock.
	if m.grid != nil && src.D() != m.grid.D {
		return fmt.Errorf("stream: refit window has %d dims, model has %d", src.D(), m.grid.D)
	}
	m.grid = grid
	m.names = append([]string(nil), names...)
	m.projections = res.Projections
	m.k = advice.K
	m.members = nil
	return nil
}

// view is an immutable snapshot of the current model: scoring against
// a view is lock-free and a whole batch sees one consistent model even
// if Refit swaps it mid-batch.
type view struct {
	grid        *discretize.Grid
	names       []string
	projections []core.Projection
	members     []memberModel
	combiner    ensemble.Combiner
}

// snapshot captures the current model under the read lock.
func (m *Monitor) snapshot() view {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return view{grid: m.grid, names: m.names, projections: m.projections,
		members: m.members, combiner: m.combiner}
}

// explain renders the matching projections of an alert against the
// snapshot. Matches beyond the snapshot's projection list (an alert
// scored against an older, larger model) are skipped rather than
// trusted.
func (v view) explain(a Alert) []string {
	out := make([]string, 0, len(a.Matches))
	for _, pi := range a.Matches {
		if pi < 0 || pi >= len(v.projections) {
			continue
		}
		out = append(out, v.projections[pi].DescribeRanges(v.names, v.grid))
	}
	return out
}

// Scorer evaluates records against one immutable model snapshot with
// reusable scratch (grid cells, ensemble dedup marks), so steady-state
// scoring allocates only when a flagged record's match list must grow.
// A Scorer is not safe for concurrent use; batch scoring gives each
// worker its own. It keeps serving its snapshot even across a
// concurrent Refit — take a new one to pick up a newer model.
type Scorer struct {
	v     view
	cells []uint16
	// matched holds per-union-projection dedup marks for ensemble
	// scoring. Invariant: all false between records (ScoreInto restores
	// the marks it set), so a record costs O(its matches), not
	// O(projections).
	matched []bool
}

// NewScorer snapshots the current model into a reusable scorer — the
// form for callers that score many individual records (cluster storage
// RPCs) without paying a snapshot plus scratch allocation per record.
func (m *Monitor) NewScorer() *Scorer {
	s := &Scorer{}
	s.reset(m.snapshot())
	return s
}

// reset points the scorer at a model snapshot, resizing scratch only
// when the model got wider.
func (s *Scorer) reset(v view) {
	s.v = v
	d := v.grid.D
	if cap(s.cells) < d {
		s.cells = make([]uint16, d)
	}
	s.cells = s.cells[:d]
	if len(v.members) > 0 {
		if cap(s.matched) < len(v.projections) {
			s.matched = make([]bool, len(v.projections))
		}
		s.matched = s.matched[:len(v.projections)]
		// ScoreInto leaves the marks all false, but a scorer from the
		// pool may carry marks for a different model; never trust them.
		clear(s.matched)
	}
}

// Score evaluates one record. The record must have the model's
// dimensionality; NaN marks missing attributes.
func (s *Scorer) Score(record []float64) Alert {
	return s.ScoreInto(record, nil)
}

// ScoreInto is Score appending matches into matches[:0] — the
// allocation-free form batch scoring uses to recycle each alert's
// match backing across batches. The returned alert's Matches stays nil
// when matches is nil and nothing covered the record, matching Score.
func (s *Scorer) ScoreInto(record []float64, matches []int) Alert {
	v := s.v
	if len(record) != v.grid.D {
		panic(fmt.Sprintf("stream: record has %d values, model has %d dims", len(record), v.grid.D))
	}
	cells := v.grid.AssignRowInto(record, s.cells)
	if len(v.members) > 0 {
		return s.scoreEnsemble(cells, matches)
	}
	a := Alert{Matches: matches[:0]}
	for pi, p := range v.projections {
		if p.Cube.Covers(cells) {
			a.Matches = append(a.Matches, pi)
			if p.Sparsity < a.Score {
				a.Score = p.Sparsity
			}
		}
	}
	return a
}

// scorer hands out a pooled scorer bound to the given snapshot.
func (m *Monitor) scorer(v view) *Scorer {
	s, _ := m.scorers.Get().(*Scorer)
	if s == nil {
		s = &Scorer{}
	}
	s.reset(v)
	return s
}

// recycle returns a scorer to the pool, dropping its model reference
// so the pool never pins a replaced model in memory.
func (m *Monitor) recycle(s *Scorer) {
	s.v = view{}
	m.scorers.Put(s)
}

// Score evaluates one record against the current model. The record
// must have the model's dimensionality; NaN marks missing attributes.
func (m *Monitor) Score(record []float64) Alert {
	s := m.scorer(m.snapshot())
	a := s.Score(record)
	m.recycle(s)
	return a
}

// ScoreBatch scores every row of a dataset, returning one alert per
// record. The whole batch is scored against one consistent model
// snapshot even if a concurrent Refit lands mid-batch. Like Score, it
// panics when the rows do not have the model's dimensionality.
func (m *Monitor) ScoreBatch(ds *dataset.Dataset) []Alert {
	out, err := m.ScoreBatchContext(context.Background(), ds, 1)
	if err != nil {
		panic(err)
	}
	return out
}

// scoreChunk is how many rows a batch worker claims at once: each
// chunk checks the context once and scores on one pooled scorer.
const scoreChunk = 256

// ScoreBatchContext scores every row of a dataset against one
// consistent model snapshot, fanning the rows across up to `workers`
// goroutines (workers <= 1, or a single-chunk batch, scores inline;
// workers == 0 means GOMAXPROCS). It returns an error, before scoring
// anything, if the rows do not have the model's dimensionality, and
// ctx.Err if the context is cancelled before the batch completes; the
// partial alerts are discarded. This is the serving path of cmd/hidod:
// request handlers pass their per-request context so timeouts and
// client disconnects abandon the batch instead of burning the worker
// pool.
func (m *Monitor) ScoreBatchContext(ctx context.Context, ds *dataset.Dataset, workers int) ([]Alert, error) {
	return m.ScoreBatchBuf(ctx, ds, workers, nil)
}

// ScoreBatchBuf is ScoreBatchContext scoring into buf's backing
// storage when its capacity allows, recycling both the alert slice and
// each alert's Matches backing array — the allocation-free steady
// state of the hidod scoring arena. Ownership of buf transfers to the
// returned slice; results are identical to ScoreBatchContext.
func (m *Monitor) ScoreBatchBuf(ctx context.Context, ds *dataset.Dataset, workers int, buf []Alert) ([]Alert, error) {
	v := m.snapshot()
	if ds.D() != v.grid.D {
		return nil, fmt.Errorf("stream: batch has %d dims, model has %d", ds.D(), v.grid.D)
	}
	n := ds.N()
	var out []Alert
	if cap(buf) >= n {
		// Every index below n is overwritten before return; the stale
		// alerts only donate their Matches backing arrays.
		out = buf[:n]
	} else {
		out = make([]Alert, n)
		copy(out, buf[:cap(buf)])
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fanout.For((n+scoreChunk-1)/scoreChunk, workers, func(c int) {
		if ctx.Err() != nil {
			return
		}
		sc := m.scorer(v)
		lo, hi := c*scoreChunk, min((c+1)*scoreChunk, n)
		for i := lo; i < hi; i++ {
			out[i] = sc.ScoreInto(ds.RowView(i), out[i].Matches)
		}
		m.recycle(sc)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Projections returns the current model's retained projections
// (shared slice; do not mutate).
func (m *Monitor) Projections() []core.Projection {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.projections
}

// Explain renders the matching projections of an alert with attribute
// names from the current model. Matches that no longer exist (the
// alert was scored before a Refit shrank the model) are skipped.
func (m *Monitor) Explain(a Alert) []string {
	return m.snapshot().explain(a)
}

// K returns the model's projection dimensionality.
func (m *Monitor) K() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.k
}

// D returns the model's data dimensionality (attributes per record).
func (m *Monitor) D() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.grid.D
}
