package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer writes JSON-lines trace events: one JSON object per line with
// a monotonic timestamp (ts_ms, milliseconds since the tracer was
// created, from the runtime's monotonic clock so wall-clock steps never
// reorder a trace), a run ID and an event name, plus event-specific
// fields. The format is jq-friendly by construction:
//
//	jq -c 'select(.ev=="generation") | [.run,.gen,.best]' trace.jsonl
//
// All methods are safe for concurrent use; lines are written atomically
// under one mutex. Write errors are sticky and reported by Err rather
// than interrupting the traced computation.
type Tracer struct {
	start time.Time
	seq   atomic.Uint64

	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer returns a tracer writing to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{start: time.Now(), w: w}
}

// RunID mints a tracer-unique run identifier with the given prefix
// ("evo-1", "brute-2", ...). Distinct concurrent runs sharing one
// tracer label their events with distinct IDs.
func (t *Tracer) RunID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, t.seq.Add(1))
}

// Emit writes one event line. fields must not contain the reserved
// keys ts_ms, run and ev (they would be overwritten).
func (t *Tracer) Emit(run, ev string, fields map[string]any) {
	// Once the error is sticky (or there is no writer) every later event
	// is dropped anyway — skip the map copy and marshal, not just the
	// write, so a dead tracer stops costing allocations.
	t.mu.Lock()
	dead := t.w == nil || t.err != nil
	t.mu.Unlock()
	if dead {
		return
	}
	line := make(map[string]any, len(fields)+3)
	for k, v := range fields {
		line[k] = v
	}
	line["ts_ms"] = float64(time.Since(t.start).Microseconds()) / 1000
	line["run"] = run
	line["ev"] = ev
	buf, err := json.Marshal(line)
	if err != nil {
		// Only non-serializable field values can land here; record and
		// drop rather than corrupt the trace.
		t.recordErr(fmt.Errorf("obs: encoding trace event %q: %w", ev, err))
		return
	}
	buf = append(buf, '\n')
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(buf); err != nil {
		t.err = fmt.Errorf("obs: writing trace: %w", err)
	}
}

func (t *Tracer) recordErr(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
	}
}

// Err returns the first write or encoding error, if any. CLIs check it
// once after the traced run instead of handling an error per event.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Observer returns an observer that records every search event as a
// trace line. Events carry their own run IDs, so one trace observer
// serves any number of concurrent searches.
func (t *Tracer) Observer() Observer {
	return traceObserver{t}
}

type traceObserver struct{ t *Tracer }

func (o traceObserver) OnGeneration(e GenerationEvent) {
	o.t.Emit(e.Run, "generation", map[string]any{
		"gen":         e.Gen,
		"pop":         e.PopSize,
		"best":        e.BestFit,
		"mean":        e.MeanFit,
		"worst":       e.WorstFit,
		"best_so_far": e.BestSoFar,
		"best_cube":   e.Best,
		"converged":   e.Converged,
		"distinct":    e.Distinct,
		"evals":       e.Evaluations,
	})
}

func (o traceObserver) OnProgress(e ProgressEvent) {
	o.t.Emit(e.Run, "progress", map[string]any{
		"tasks_done":    e.TasksDone,
		"tasks_total":   e.TasksTotal,
		"evals":         e.Evaluations,
		"pruned":        e.Pruned,
		"evals_per_sec": e.EvalsPerSec,
		"elapsed_ms":    float64(e.Elapsed.Microseconds()) / 1000,
	})
}

func (o traceObserver) OnDone(e SummaryEvent) {
	o.t.Emit(e.Run, "summary", map[string]any{
		"algo":             e.Algo,
		"evals":            e.Evaluations,
		"pruned":           e.Pruned,
		"generations":      e.Generations,
		"projections":      e.Projections,
		"outliers":         e.Outliers,
		"best_s":           e.BestSparsity,
		"mean_s":           e.MeanSparsity,
		"converged_dejong": e.ConvergedDeJong,
		"budget_exceeded":  e.BudgetExceeded,
		"elapsed_ms":       float64(e.Elapsed.Microseconds()) / 1000,
	})
}

// IDSource mints short process-unique IDs ("req-5f21c3-42"): a random
// per-source salt so IDs from different processes or restarts never
// collide in aggregated logs, plus an atomic counter so IDs stay cheap
// and ordered within a process.
type IDSource struct {
	prefix string
	n      atomic.Uint64
}

// NewIDSource returns an ID source whose IDs carry the given prefix.
func NewIDSource(prefix string) *IDSource {
	var salt [3]byte
	_, _ = rand.Read(salt[:])
	return &IDSource{prefix: prefix + "-" + hex.EncodeToString(salt[:])}
}

// Next returns the next ID.
func (s *IDSource) Next() string {
	return fmt.Sprintf("%s-%d", s.prefix, s.n.Add(1))
}
