package bench

import (
	"fmt"
	"strings"

	"hido/internal/core"
	"hido/internal/obs"
	"hido/internal/synth"
)

// ConvergenceRow is one generation of the crossover convergence
// comparison: the best-set mean quality after each generation for the
// optimized and the two-point operator — the time-resolved view of
// Table 1's Gen vs Gen° quality gap.
type ConvergenceRow struct {
	Gen            int
	Optimized      float64
	TwoPoint       float64
	OptimizedConv  float64 // fraction of genes De Jong-converged
	TwoPointConv   float64
	OptimizedEvals int
	TwoPointEvals  int
}

// ConvergenceOptions configures the comparison.
type ConvergenceOptions struct {
	Seed uint64
	// Profile defaults to Ionosphere.
	Profile string
	// Generations caps the observation window (default 60).
	Generations int
	// M is the best-set size (default 20).
	M int
}

func (o ConvergenceOptions) withDefaults() ConvergenceOptions {
	if o.Profile == "" {
		o.Profile = "Ionosphere"
	}
	if o.Generations == 0 {
		o.Generations = 60
	}
	if o.M == 0 {
		o.M = 20
	}
	return o
}

// RunConvergence traces best-set quality generation by generation for
// both crossover operators on the same data and seed.
func RunConvergence(opt ConvergenceOptions) ([]ConvergenceRow, error) {
	opt = opt.withDefaults()
	p, err := synth.ProfileByName(opt.Profile)
	if err != nil {
		return nil, err
	}
	ds, err := p.Generate(opt.Seed)
	if err != nil {
		return nil, err
	}
	det := core.NewDetector(ds, p.Phi)

	trace := func(kind core.CrossoverKind) ([]obs.GenerationEvent, error) {
		var gens []obs.GenerationEvent
		_, err := det.Evolutionary(core.EvoOptions{
			K: p.K, M: opt.M, Seed: opt.Seed, Crossover: kind,
			MaxGenerations: opt.Generations, Patience: -1,
			Observer: obs.Funcs{Generation: func(e obs.GenerationEvent) { gens = append(gens, e) }},
		})
		return gens, err
	}
	optStats, err := trace(core.OptimizedCrossover)
	if err != nil {
		return nil, err
	}
	twoStats, err := trace(core.TwoPointCrossover)
	if err != nil {
		return nil, err
	}

	n := len(optStats)
	if len(twoStats) < n {
		n = len(twoStats)
	}
	rows := make([]ConvergenceRow, 0, n)
	for g := 0; g < n; g++ {
		rows = append(rows, ConvergenceRow{
			Gen:            g,
			Optimized:      optStats[g].BestSoFar,
			TwoPoint:       twoStats[g].BestSoFar,
			OptimizedConv:  optStats[g].Converged,
			TwoPointConv:   twoStats[g].Converged,
			OptimizedEvals: optStats[g].Evaluations,
			TwoPointEvals:  twoStats[g].Evaluations,
		})
	}
	return rows, nil
}

// FormatConvergence renders the trace (every 5th generation plus the
// last, to keep the table readable).
func FormatConvergence(rows []ConvergenceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %12s %12s\n",
		"gen", "Gen°(quality)", "Gen(quality)", "Gen°(evals)", "Gen(evals)")
	for i, r := range rows {
		if i%5 != 0 && i != len(rows)-1 {
			continue
		}
		fmt.Fprintf(&b, "%6d %14.3f %14.3f %12d %12d\n",
			r.Gen, r.Optimized, r.TwoPoint, r.OptimizedEvals, r.TwoPointEvals)
	}
	return b.String()
}
