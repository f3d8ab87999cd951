package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hido/internal/core"
	"hido/internal/discretize"
	"hido/internal/evo"
	"hido/internal/synth"
)

// AblationResult collects the design-choice ablations DESIGN.md calls
// out: crossover operator, selection strategy, grid construction,
// population size, grid resolution, search topology, and the worker
// pools.
type AblationResult struct {
	Crossover  []CrossoverAblationRow
	Selection  []SelectionAblationRow
	GridMethod []GridAblationRow
	PopSize    []PopAblationRow
	PhiSweep   []PhiAblationRow
	Topology   []TopologyAblationRow
	Parallel   []ParallelAblationRow
	Brute      []BruteAblationRow
}

// BruteAblationRow measures one workers × pruning cell of the sharded
// brute-force enumeration on the paper's d=20, k=4 reference workload
// (§3's C(20,4)·φ⁴ combinatorics argument, with every attribute in a
// correlated group so anti-correlated subtrees actually empty out).
// Identical re-checks the determinism guarantee against the serial
// unpruned reference in situ.
type BruteAblationRow struct {
	Workers   int
	Pruning   bool
	Time      time.Duration
	Speedup   float64 // serial pruning-off wall clock / this cell's
	Evals     int
	Pruned    int // subtrees skipped by coverage pruning
	Identical bool
}

// ParallelAblationRow measures one worker count: several repeated
// searches with derived seeds (the repeated-search shape of restarts
// and islands, isolated for measurement). Identical reports whether
// the first run's projections matched the serial reference — the
// determinism guarantee, re-checked in situ.
type ParallelAblationRow struct {
	Workers   int
	Quality   float64 // mean over the repeated runs
	Time      time.Duration
	Speedup   float64 // serial wall clock / this cell's
	Identical bool
}

// TopologyAblationRow compares search topologies at an equal total
// population budget: one population, unioned restarts, and the island
// model. Distinct counts how many distinct projections were retained —
// the diversity the topologies trade off.
type TopologyAblationRow struct {
	Name     string
	Quality  float64
	Distinct int
	Evals    int
	Time     time.Duration
}

// CrossoverAblationRow compares the two crossover operators on one
// profile (the Gen vs Gen° columns of Table 1, isolated).
type CrossoverAblationRow struct {
	Profile  string
	Kind     core.CrossoverKind
	Quality  float64
	Time     time.Duration
	Recall   float64 // planted-outlier recall
	Converge bool    // stopped on the De Jong criterion
}

// SelectionAblationRow compares selection strategies.
type SelectionAblationRow struct {
	Strategy evo.Selection
	Quality  float64
	Recall   float64
}

// GridAblationRow compares equi-depth against equi-width grids.
type GridAblationRow struct {
	Method  discretize.Method
	Quality float64
	Recall  float64
}

// PopAblationRow sweeps the population size.
type PopAblationRow struct {
	PopSize int
	Quality float64
	Time    time.Duration
}

// PhiAblationRow sweeps the grid resolution, reporting the advised k
// and the singleton-cube sparsity that governs coverage (§2.4).
type PhiAblationRow struct {
	Phi               int
	AdvisedK          int
	SingletonSparsity float64
	Quality           float64
	Recall            float64
}

// AblationOptions configures the ablations.
type AblationOptions struct {
	Seed uint64
	// Profile defaults to Ionosphere (34 dims: large enough for the
	// operators to matter, small enough to iterate).
	Profile string
	// M is the best-set size (default 20).
	M int
	// Workers caps the worker sweep of the parallel ablation
	// (0 selects GOMAXPROCS).
	Workers int
	// BrutePhi is the grid resolution of the brute-force workers ×
	// pruning sweep (default 10, the paper's d=20, k=4, φ=10 reference
	// point; tests pass a smaller φ to keep the enumeration cheap).
	BrutePhi int
}

func (o AblationOptions) withDefaults() AblationOptions {
	if o.Profile == "" {
		o.Profile = "Ionosphere"
	}
	if o.M == 0 {
		o.M = 20
	}
	if o.BrutePhi == 0 {
		o.BrutePhi = 10
	}
	return o
}

// RunAblation runs every ablation on the configured profile.
func RunAblation(opt AblationOptions) (*AblationResult, error) {
	opt = opt.withDefaults()
	p, err := synth.ProfileByName(opt.Profile)
	if err != nil {
		return nil, err
	}
	ds, err := p.Generate(opt.Seed)
	if err != nil {
		return nil, err
	}
	truth := synth.OutlierIndices(ds)
	out := &AblationResult{}

	// Crossover.
	det := core.NewDetector(ds, p.Phi)
	for _, kind := range []core.CrossoverKind{core.OptimizedCrossover, core.TwoPointCrossover} {
		res, err := det.Evolutionary(core.EvoOptions{
			K: p.K, M: opt.M, Seed: opt.Seed, Crossover: kind,
		})
		if err != nil {
			return nil, err
		}
		out.Crossover = append(out.Crossover, CrossoverAblationRow{
			Profile: p.Name, Kind: kind,
			Quality: res.Quality(), Time: res.Elapsed,
			Recall:   synth.Recall(res.Outliers, truth),
			Converge: res.ConvergedDeJong,
		})
	}

	// Selection.
	for _, strat := range []evo.Selection{evo.RankRoulette, evo.Tournament, evo.Uniform} {
		res, err := det.Evolutionary(core.EvoOptions{
			K: p.K, M: opt.M, Seed: opt.Seed, Selection: strat,
		})
		if err != nil {
			return nil, err
		}
		out.Selection = append(out.Selection, SelectionAblationRow{
			Strategy: strat, Quality: res.Quality(),
			Recall: synth.Recall(res.Outliers, truth),
		})
	}

	// Grid method.
	for _, method := range []discretize.Method{discretize.EquiDepth, discretize.EquiWidth} {
		d := core.NewDetectorMethod(ds, p.Phi, method)
		res, err := d.Evolutionary(core.EvoOptions{K: p.K, M: opt.M, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		out.GridMethod = append(out.GridMethod, GridAblationRow{
			Method: method, Quality: res.Quality(),
			Recall: synth.Recall(res.Outliers, truth),
		})
	}

	// Population size.
	for _, pop := range []int{20, 50, 100, 200} {
		res, err := det.Evolutionary(core.EvoOptions{
			K: p.K, M: opt.M, Seed: opt.Seed, PopSize: pop,
		})
		if err != nil {
			return nil, err
		}
		out.PopSize = append(out.PopSize, PopAblationRow{
			PopSize: pop, Quality: res.Quality(), Time: res.Elapsed,
		})
	}

	// Search topology at equal total population budget (120 members).
	addTopology := func(name string, res *core.Result, err error) error {
		if err != nil {
			return err
		}
		out.Topology = append(out.Topology, TopologyAblationRow{
			Name: name, Quality: res.Quality(),
			Distinct: len(res.Projections),
			Evals:    res.Evaluations, Time: res.Elapsed,
		})
		return nil
	}
	single, err := det.Evolutionary(core.EvoOptions{K: p.K, M: opt.M, Seed: opt.Seed, PopSize: 120})
	if err := addTopology("single-pop-120", single, err); err != nil {
		return nil, err
	}
	restarts, err := det.EvolutionaryRestarts(core.EvoOptions{K: p.K, M: opt.M, Seed: opt.Seed, PopSize: 40}, 3)
	if err := addTopology("restarts-3x40", restarts, err); err != nil {
		return nil, err
	}
	isl, err := det.EvolutionaryIslands(core.IslandOptions{
		Evo: core.EvoOptions{K: p.K, M: opt.M, Seed: opt.Seed, PopSize: 40}, Islands: 3,
	})
	if err := addTopology("islands-3x40", isl, err); err != nil {
		return nil, err
	}

	// Workers. Each cell repeats the search with derived seeds, as
	// restarts do.
	maxW := opt.Workers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	sweep := []int{}
	for _, w := range []int{1, 2, 4} {
		if w <= maxW {
			sweep = append(sweep, w)
		}
	}
	if sweep[len(sweep)-1] != maxW {
		sweep = append(sweep, maxW)
	}
	const parallelRuns = 3
	var refProjections []core.Projection
	var baseTime time.Duration
	for _, w := range sweep {
		start := time.Now()
		quality := 0.0
		identical := true
		for r := 0; r < parallelRuns; r++ {
			res, err := det.Evolutionary(core.EvoOptions{
				K: p.K, M: opt.M,
				Seed:    opt.Seed + uint64(r)*0x9e3779b97f4a7c15,
				Workers: w,
			})
			if err != nil {
				return nil, err
			}
			quality += res.Quality()
			if r == 0 {
				if refProjections == nil {
					refProjections = res.Projections
				} else {
					identical = sameProjections(refProjections, res.Projections)
				}
			}
		}
		elapsed := time.Since(start)
		if baseTime == 0 {
			baseTime = elapsed
		}
		out.Parallel = append(out.Parallel, ParallelAblationRow{
			Workers:   w,
			Quality:   quality / parallelRuns,
			Time:      elapsed,
			Speedup:   float64(baseTime) / float64(elapsed),
			Identical: identical,
		})
	}

	// Brute-force workers × pruning on the paper's d=20, k=4 reference
	// workload. Every attribute belongs to a correlated group, so the
	// anti-correlated grid-cell combinations the paper mines are empty
	// and coverage pruning has real subtrees to skip.
	if out.Brute, err = runBruteAblation(opt); err != nil {
		return nil, err
	}

	// Phi sweep (rebuilds the grid each time; k follows §2.4).
	for _, phi := range []int{3, 5, 8, 12} {
		d := core.NewDetector(ds, phi)
		advice := d.Advise(-3)
		res, err := d.Evolutionary(core.EvoOptions{K: advice.K, M: opt.M, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		out.PhiSweep = append(out.PhiSweep, PhiAblationRow{
			Phi: phi, AdvisedK: advice.K,
			SingletonSparsity: advice.SingletonSparsity,
			Quality:           res.Quality(),
			Recall:            synth.Recall(res.Outliers, truth),
		})
	}
	return out, nil
}

// runBruteAblation sweeps worker count × coverage pruning over one
// exact enumeration of the d=20, k=4 space. The baseline cell
// (workers=1, pruning off) is the pre-sharding serial path; every
// other cell must reproduce its projections bit for bit.
func runBruteAblation(opt AblationOptions) ([]BruteAblationRow, error) {
	ds, err := synth.Generate(synth.Config{
		Name: "brute-d20", N: 600, D: 20,
		Groups: []synth.Group{
			{Dims: []int{0, 1, 2, 3, 4, 5, 6}, Noise: 0.015},
			{Dims: []int{7, 8, 9, 10, 11, 12, 13}, Noise: 0.015},
			{Dims: []int{14, 15, 16, 17, 18, 19}, Noise: 0.015},
		},
		Outliers: 6, Scale: true,
	}, opt.Seed)
	if err != nil {
		return nil, err
	}
	det := core.NewDetector(ds, opt.BrutePhi)
	var rows []BruteAblationRow
	var ref []core.Projection
	var baseTime time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		for _, pruning := range []bool{false, true} {
			start := time.Now()
			res, err := det.BruteForce(core.BruteForceOptions{
				K: 4, M: opt.M, Workers: w, DisablePruning: !pruning,
			})
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if ref == nil {
				ref = res.Projections
				baseTime = elapsed
			}
			rows = append(rows, BruteAblationRow{
				Workers: w, Pruning: pruning,
				Time:    elapsed,
				Speedup: float64(baseTime) / float64(elapsed),
				Evals:   res.Evaluations, Pruned: res.Pruned,
				Identical: sameProjections(ref, res.Projections),
			})
		}
	}
	return rows, nil
}

// sameProjections reports whether two projection lists agree exactly
// (cube, sparsity, count, order).
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

// FormatAblation renders every ablation table.
func FormatAblation(r *AblationResult) string {
	var b strings.Builder
	b.WriteString("crossover ablation:\n")
	for _, row := range r.Crossover {
		fmt.Fprintf(&b, "  %-10s quality=%.3f recall=%.2f time=%s dejong=%v\n",
			row.Kind, row.Quality, row.Recall, row.Time.Round(time.Millisecond), row.Converge)
	}
	b.WriteString("selection ablation:\n")
	for _, row := range r.Selection {
		fmt.Fprintf(&b, "  %-14s quality=%.3f recall=%.2f\n", row.Strategy, row.Quality, row.Recall)
	}
	b.WriteString("grid-method ablation:\n")
	for _, row := range r.GridMethod {
		fmt.Fprintf(&b, "  %-11s quality=%.3f recall=%.2f\n", row.Method, row.Quality, row.Recall)
	}
	b.WriteString("population-size ablation:\n")
	for _, row := range r.PopSize {
		fmt.Fprintf(&b, "  p=%-4d quality=%.3f time=%s\n",
			row.PopSize, row.Quality, row.Time.Round(time.Millisecond))
	}
	b.WriteString("search-topology ablation (equal 120-member budget):\n")
	for _, row := range r.Topology {
		fmt.Fprintf(&b, "  %-15s quality=%.3f distinct=%d evals=%d time=%s\n",
			row.Name, row.Quality, row.Distinct, row.Evals, row.Time.Round(time.Millisecond))
	}
	b.WriteString("parallel ablation (workers, 3 repeated runs):\n")
	for _, row := range r.Parallel {
		fmt.Fprintf(&b, "  w=%-2d quality=%.3f time=%s speedup=%.2fx identical=%v\n",
			row.Workers, row.Quality, row.Time.Round(time.Millisecond), row.Speedup, row.Identical)
	}
	b.WriteString("brute-force ablation (workers × coverage pruning, d=20 k=4):\n")
	for _, row := range r.Brute {
		pruning := "off"
		if row.Pruning {
			pruning = "on"
		}
		fmt.Fprintf(&b, "  w=%-2d pruning=%-3s time=%s speedup=%.2fx evals=%d pruned=%d identical=%v\n",
			row.Workers, pruning, row.Time.Round(time.Millisecond),
			row.Speedup, row.Evals, row.Pruned, row.Identical)
	}
	b.WriteString("phi sweep (k from Eq. 2 at s=-3):\n")
	for _, row := range r.PhiSweep {
		fmt.Fprintf(&b, "  phi=%-3d k*=%d singletonS=%.2f quality=%.3f recall=%.2f\n",
			row.Phi, row.AdvisedK, row.SingletonSparsity, row.Quality, row.Recall)
	}
	return b.String()
}
