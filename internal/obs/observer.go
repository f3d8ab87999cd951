package obs

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// GenerationEvent summarizes one evolutionary generation: the fitness
// distribution, the De Jong convergence fraction and population
// diversity (distinct genomes).
type GenerationEvent struct {
	Run         string
	Gen         int
	PopSize     int
	BestFit     float64 // lowest fitness in this generation's population
	MeanFit     float64
	WorstFit    float64
	BestSoFar   float64 // mean fitness of the best-set so far
	Best        string  // best retained cube, empty until one is retained
	Converged   float64 // fraction of genes meeting the De Jong criterion
	Distinct    int     // distinct genomes in the population
	Evaluations int     // cumulative distinct fitness evaluations
}

// ProgressEvent is a brute-force heartbeat: subtree tasks completed,
// leaves evaluated, subtrees pruned, and the evaluation rate since the
// search started.
type ProgressEvent struct {
	Run         string
	TasksDone   int
	TasksTotal  int
	Evaluations uint64 // leaves evaluated so far
	Pruned      uint64 // subtrees skipped by coverage pruning so far
	EvalsPerSec float64
	Elapsed     time.Duration
}

// SummaryEvent is the terminal record of one search run.
type SummaryEvent struct {
	Run             string
	Algo            string // "evo" or "brute"
	Evaluations     int
	Pruned          int
	Generations     int
	Projections     int
	Outliers        int
	BestSparsity    float64 // most negative retained sparsity (0 when none)
	MeanSparsity    float64 // mean retained sparsity (0 when none)
	ConvergedDeJong bool
	BudgetExceeded  bool
	Elapsed         time.Duration
}

// Observer receives search progress. An evolutionary search — one run,
// restarts or islands — delivers its events from the calling goroutine
// in a fixed order, each generation's in run order, distinguished by
// the Run field. Brute-force heartbeats and ensemble members deliver
// from several goroutines, so implementations must be safe for
// concurrent use. Observers must treat events as read-only snapshots;
// nothing an observer does can influence the search, so results stay
// bit-identical with or without one attached.
type Observer interface {
	// OnGeneration is delivered once per evolutionary generation.
	OnGeneration(GenerationEvent)
	// OnProgress is delivered periodically by long-running brute-force
	// enumerations (and once at completion).
	OnProgress(ProgressEvent)
	// OnDone is delivered once per search run, after the result is
	// assembled.
	OnDone(SummaryEvent)
}

// Funcs adapts optional callbacks to the Observer interface; nil
// fields ignore their events.
type Funcs struct {
	Generation func(GenerationEvent)
	Progress   func(ProgressEvent)
	Done       func(SummaryEvent)
}

// OnGeneration implements Observer.
func (f Funcs) OnGeneration(e GenerationEvent) {
	if f.Generation != nil {
		f.Generation(e)
	}
}

// OnProgress implements Observer.
func (f Funcs) OnProgress(e ProgressEvent) {
	if f.Progress != nil {
		f.Progress(e)
	}
}

// OnDone implements Observer.
func (f Funcs) OnDone(e SummaryEvent) {
	if f.Done != nil {
		f.Done(e)
	}
}

// Multi fans events out to several observers in order, skipping nils.
// It returns nil when no non-nil observer remains, preserving the
// zero-cost nil fast path for callers composing optional sinks.
func Multi(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multi(kept)
}

type multi []Observer

func (m multi) OnGeneration(e GenerationEvent) {
	for _, o := range m {
		o.OnGeneration(e)
	}
}

func (m multi) OnProgress(e ProgressEvent) {
	for _, o := range m {
		o.OnProgress(e)
	}
}

func (m multi) OnDone(e SummaryEvent) {
	for _, o := range m {
		o.OnDone(e)
	}
}

// NewLogObserver returns an observer printing compact single-line
// progress to w — the -v view of a search. Safe for concurrent use;
// lines from interleaved runs are distinguished by their run ID.
func NewLogObserver(w io.Writer) Observer {
	return &logObserver{w: w}
}

type logObserver struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *logObserver) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format, args...)
}

func (l *logObserver) OnGeneration(e GenerationEvent) {
	l.printf("[%s] gen %-3d best=%.3f mean=%.3f conv=%.0f%% distinct=%d evals=%d\n",
		e.Run, e.Gen, e.BestFit, e.MeanFit, 100*e.Converged, e.Distinct, e.Evaluations)
}

func (l *logObserver) OnProgress(e ProgressEvent) {
	l.printf("[%s] %d/%d tasks  %d leaves  %d pruned  %.0f evals/s\n",
		e.Run, e.TasksDone, e.TasksTotal, e.Evaluations, e.Pruned, e.EvalsPerSec)
}

func (l *logObserver) OnDone(e SummaryEvent) {
	l.printf("[%s] done %s: %d projections (best S=%.3f, mean S=%.3f), %d outliers, %d evals, %s\n",
		e.Run, e.Algo, e.Projections, e.BestSparsity, e.MeanSparsity,
		e.Outliers, e.Evaluations, e.Elapsed.Round(time.Millisecond))
}

// NewSlogObserver routes search events through a structured logger:
// per-generation events at debug (they are high-volume), brute-force
// heartbeats and run summaries at info. Safe for concurrent use (slog
// loggers are).
func NewSlogObserver(l *slog.Logger) Observer {
	return slogObserver{l}
}

type slogObserver struct{ l *slog.Logger }

func (s slogObserver) OnGeneration(e GenerationEvent) {
	s.l.Debug("generation", "run", e.Run, "gen", e.Gen, "best", e.BestFit, "mean", e.MeanFit,
		"converged", e.Converged, "distinct", e.Distinct, "evals", e.Evaluations)
}

func (s slogObserver) OnProgress(e ProgressEvent) {
	s.l.Info("progress", "run", e.Run, "tasks_done", e.TasksDone, "tasks_total", e.TasksTotal,
		"evals", e.Evaluations, "pruned", e.Pruned, "evals_per_sec", e.EvalsPerSec)
}

func (s slogObserver) OnDone(e SummaryEvent) {
	s.l.Info("search done", "run", e.Run, "algo", e.Algo, "projections", e.Projections,
		"outliers", e.Outliers, "best_sparsity", e.BestSparsity, "evals", e.Evaluations,
		"elapsed", e.Elapsed.Round(time.Millisecond).String())
}
