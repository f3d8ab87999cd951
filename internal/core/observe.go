package core

import (
	"math"
	"time"

	"hido/internal/cube"
	"hido/internal/evo"
	"hido/internal/obs"
)

// This file is the only bridge between the searches and the
// observability layer. Every emission helper returns immediately when
// no observer is attached, before building any event payload — the
// nil-observer path adds zero allocations to the search hot paths
// (guarded by TestNilObserverZeroAlloc) and an attached observer only
// ever reads derived snapshots, so Results stay bit-identical with or
// without one.

// finiteOr0 maps the sentinel non-finite fitness values (+Inf for "no
// member", NaN for "empty best set") to 0 so trace events stay valid
// JSON.
func finiteOr0(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// notifyGeneration computes the per-generation snapshot and delivers
// it to the Observer. Without one it returns before computing
// anything. converged is the generation's De Jong fraction, which the
// caller already needs for its termination check; the distinct count
// comes from score's key pass.
func (s *search) notifyGeneration(pop *evo.Population, gen int, converged float64) {
	o := s.opt.Observer
	if o == nil {
		return
	}
	st := pop.FitnessStats(gen)
	ev := obs.GenerationEvent{
		Run:         s.opt.RunID,
		Gen:         gen,
		PopSize:     pop.Len(),
		BestFit:     finiteOr0(st.BestFit),
		MeanFit:     finiteOr0(st.MeanFit),
		WorstFit:    finiteOr0(st.WorstFit),
		BestSoFar:   finiteOr0(s.bs.MeanFitness()),
		Converged:   converged,
		Distinct:    s.lastDistinct,
		Evaluations: s.evals,
	}
	if e := s.bs.Entries(); len(e) > 0 {
		ev.Best = cube.Cube(e[0].Genome).String()
	}
	o.OnGeneration(ev)
}

// notifySummary delivers the terminal run record for a finished
// search; a nil observer returns immediately.
func notifySummary(o obs.Observer, run, algo string, res *Result, budgetExceeded bool) {
	if o == nil {
		return
	}
	ev := obs.SummaryEvent{
		Run:             run,
		Algo:            algo,
		Evaluations:     res.Evaluations,
		Pruned:          res.Pruned,
		Generations:     res.Generations,
		Projections:     len(res.Projections),
		Outliers:        len(res.Outliers),
		MeanSparsity:    finiteOr0(res.Quality()),
		ConvergedDeJong: res.ConvergedDeJong,
		BudgetExceeded:  budgetExceeded,
		Elapsed:         res.Elapsed,
	}
	if len(res.Projections) > 0 {
		ev.BestSparsity = res.Projections[0].Sparsity
	}
	o.OnDone(ev)
}

// notifyProgress delivers one brute-force heartbeat from the shared
// counters; a nil observer returns immediately. Called from the
// heartbeat goroutine and once after the workers drain, never from the
// enumeration itself.
func (sh *bfShared) notifyProgress(start time.Time) {
	o := sh.opt.Observer
	if o == nil {
		return
	}
	evals := sh.evals.Load()
	elapsed := time.Since(start)
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(evals) / secs
	}
	o.OnProgress(obs.ProgressEvent{
		Run:         sh.opt.RunID,
		TasksDone:   int(sh.tasksDone.Load()),
		TasksTotal:  len(sh.tasks),
		Evaluations: evals,
		Pruned:      sh.pruned.Load(),
		EvalsPerSec: rate,
		Elapsed:     elapsed,
	})
}

// heartbeat emits periodic progress events until stopped. It only
// reads the shared atomic counters, so it cannot perturb the search.
func (sh *bfShared) heartbeat(start time.Time, every time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			sh.notifyProgress(start)
		case <-stop:
			return
		}
	}
}
