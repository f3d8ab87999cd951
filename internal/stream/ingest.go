package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hido/internal/dataset"
	"hido/internal/discretize"
)

// ErrIngestDisabled is returned by the ingestion entry points of a
// monitor that never ran EnableIngest.
var ErrIngestDisabled = errors.New("stream: ingest not enabled on this monitor")

// IngestOptions configures continuous ingestion on a fitted Monitor:
// how many records the sliding reference window retains, and how often
// the model refits from it.
type IngestOptions struct {
	// Window is the maximum number of buffered records (required, > 0).
	// The window holds the last Window records ingested; its memory
	// grows with the records it holds, not with Window.
	Window int
	// RefitEvery triggers a background refit after this many ingested
	// records (required, > 0).
	RefitEvery int
	// OnRefit, when set, observes every background refit attempt —
	// success or failure — after the model swap (or the abort). Called
	// from the refit goroutine; keep it cheap and non-blocking.
	OnRefit func(RefitResult)
}

func (o IngestOptions) validate() error {
	if o.Window <= 0 {
		return fmt.Errorf("stream: ingest window %d must be positive", o.Window)
	}
	if o.RefitEvery <= 0 {
		return fmt.Errorf("stream: refit-every %d must be positive", o.RefitEvery)
	}
	return nil
}

// RefitResult reports one background refit attempt to OnRefit.
type RefitResult struct {
	// Rows is how many buffered records the refit window held.
	Rows int
	// Drift is Monitor.Drift's divergence of the refit's window from the
	// model the refit replaced — the signal that made (or would have
	// made) the refit worthwhile.
	Drift float64
	// Err is nil when the new model was swapped in.
	Err error
}

// IngestStats is a point-in-time snapshot of the ingestion state.
type IngestStats struct {
	// WindowRows is the number of currently buffered records.
	WindowRows int
	// SinceRefit counts records ingested since the last refit snapshot.
	SinceRefit int
	// Refits and RefitErrs count completed background refits.
	Refits, RefitErrs uint64
	// Drift is the divergence of the last refit's window (see
	// Monitor.Drift for a live value).
	Drift float64
	// Refitting reports whether a background refit is in flight.
	Refitting bool
}

// ingestState is the mutable half of continuous ingestion, guarded by
// its own mutex so buffer appends never contend with scoring (which
// only touches the monitor's model lock).
type ingestState struct {
	opt IngestOptions
	d   int

	mu sync.Mutex
	// ring holds the last rows records row-major. It grows by append
	// until it holds Window records; from then on each record
	// overwrites the oldest, which starts at row next.
	ring       []float64
	rows       int
	next       int
	sinceRefit int
	drift      float64 // divergence of the last refit's window
	refits     uint64
	refitErrs  uint64

	// refitting gates the single in-flight background refit; refitWG
	// lets WaitIngest observe its completion.
	refitting atomic.Bool
	refitWG   sync.WaitGroup
}

// EnableIngest switches a fitted monitor into continuous-ingestion
// mode. It can be called once per monitor; the window starts empty —
// the current model keeps serving until the first background refit.
func (m *Monitor) EnableIngest(opt IngestOptions) error {
	if err := opt.validate(); err != nil {
		return err
	}
	if !m.ingest.CompareAndSwap(nil, &ingestState{opt: opt, d: m.D()}) {
		return errors.New("stream: ingest already enabled")
	}
	return nil
}

// IngestEnabled reports whether EnableIngest has run.
func (m *Monitor) IngestEnabled() bool { return m.ingest.Load() != nil }

// Ingest scores one arriving record against the current model and
// appends it to the sliding reference window, triggering a background
// refit when due. Scoring is lock-free against the model (snapshot
// semantics, like Score); the append takes only the ingest buffer's
// own lock — a concurrent background refit never blocks either.
func (m *Monitor) Ingest(record []float64) (Alert, error) {
	ing := m.ingest.Load()
	if ing == nil {
		return Alert{}, ErrIngestDisabled
	}
	if len(record) != ing.d {
		return Alert{}, fmt.Errorf("stream: ingest record has %d values, model has %d dims", len(record), ing.d)
	}
	a := m.Score(record)
	ing.mu.Lock()
	ing.appendLocked(record)
	due := ing.sinceRefit >= ing.opt.RefitEvery
	ing.mu.Unlock()
	if due {
		m.maybeBackgroundRefit(ing)
	}
	return a, nil
}

// IngestBatch is Ingest over a whole dataset: the batch is scored
// against one consistent model snapshot (ScoreBatchBuf semantics,
// including buf recycling), then appended to the window under a single
// buffer lock. A refit due after the append starts in the background
// before IngestBatch returns.
func (m *Monitor) IngestBatch(ctx context.Context, ds *dataset.Dataset, workers int, buf []Alert) ([]Alert, error) {
	ing := m.ingest.Load()
	if ing == nil {
		return nil, ErrIngestDisabled
	}
	if ds.D() != ing.d {
		return nil, fmt.Errorf("stream: ingest batch has %d dims, model has %d", ds.D(), ing.d)
	}
	out, err := m.ScoreBatchBuf(ctx, ds, workers, buf)
	if err != nil {
		return nil, err
	}
	ing.mu.Lock()
	for i := 0; i < ds.N(); i++ {
		ing.appendLocked(ds.RowView(i))
	}
	due := ing.sinceRefit >= ing.opt.RefitEvery
	ing.mu.Unlock()
	if due {
		m.maybeBackgroundRefit(ing)
	}
	return out, nil
}

// appendLocked adds one record to the window, in place of the oldest
// once the window is full. Caller holds ing.mu.
func (ing *ingestState) appendLocked(record []float64) {
	if ing.rows < ing.opt.Window {
		ing.ring = append(ing.ring, record...)
		ing.rows++
	} else {
		copy(ing.ring[ing.next*ing.d:], record)
		if ing.next++; ing.next == ing.rows {
			ing.next = 0
		}
	}
	ing.sinceRefit++
}

// IngestStats snapshots the ingestion state (zero value when ingest is
// disabled).
func (m *Monitor) IngestStats() IngestStats {
	ing := m.ingest.Load()
	if ing == nil {
		return IngestStats{}
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return IngestStats{
		WindowRows: ing.rows,
		SinceRefit: ing.sinceRefit,
		Refits:     ing.refits,
		RefitErrs:  ing.refitErrs,
		Drift:      ing.drift,
		Refitting:  ing.refitting.Load(),
	}
}

// Drift measures how far the buffered window has slid from the serving
// model: the mean absolute difference, over dimensions and interior
// grid boundaries, between each boundary's rank in the window (the
// fraction of the dimension's non-missing window values at or below
// it) and its equi-depth target r/phi. Zero means the model's grid
// still splits the window into equal-depth ranges; the theoretical
// maximum approaches (phi−1)/(2·phi)… in practice values above ~1/phi
// mean whole ranges have drained or flooded.
func (m *Monitor) Drift() float64 {
	ing := m.ingest.Load()
	if ing == nil {
		return 0
	}
	g := m.snapshot().grid
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return drift(g, ing.ring)
}

// drift is Drift's divergence of the row-major records vals from grid
// g. Every rank is exact: a value lies at or below boundary r exactly
// when its range is r or lower, so one range count per dimension gives
// every boundary's rank.
func drift(g *discretize.Grid, vals []float64) float64 {
	n := len(vals) / g.D
	hist := make([]int, g.Phi+1) // hist[0] counts missing values
	total, count := 0.0, 0
	for j := 0; j < g.D; j++ {
		clear(hist)
		for i := j; i < len(vals); i += g.D {
			hist[g.AssignValue(j, vals[i])]++
		}
		present := n - hist[0]
		if present == 0 {
			continue
		}
		below := 0
		for r := 1; r < g.Phi; r++ {
			below += hist[r]
			total += math.Abs(float64(below)/float64(present) - float64(r)/float64(g.Phi))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// maybeBackgroundRefit starts the background refit unless one is
// already in flight.
func (m *Monitor) maybeBackgroundRefit(ing *ingestState) {
	if !ing.refitting.CompareAndSwap(false, true) {
		return
	}
	ing.refitWG.Add(1)
	go func() {
		defer ing.refitWG.Done()
		defer ing.refitting.Store(false)
		m.runWindowRefit(ing)
	}()
}

// RefitFromWindow refits synchronously from the buffered window — the
// foreground form of the background refit, for tests and operators
// that want the error in hand. It reports ErrIngestDisabled without a
// window and fails when a background refit is already in flight.
func (m *Monitor) RefitFromWindow() error {
	ing := m.ingest.Load()
	if ing == nil {
		return ErrIngestDisabled
	}
	if !ing.refitting.CompareAndSwap(false, true) {
		return errors.New("stream: a background refit is already in flight")
	}
	defer ing.refitting.Store(false)
	return m.runWindowRefit(ing).Err
}

// WaitIngest blocks until no background refit is in flight — the
// shutdown/test barrier. It does not prevent new refits from starting.
func (m *Monitor) WaitIngest() {
	if ing := m.ingest.Load(); ing != nil {
		ing.refitWG.Wait()
	}
}

// runWindowRefit performs one refit attempt end to end. It copies the
// window, oldest record first, under the ingest lock, and does
// everything else off it: concurrent Score and Ingest calls proceed
// while the copy's drift is measured and Refit fits the copy, so the
// new model is the one NewMonitor fits over the same rows. Refit's
// exclusive-lock swap means scoring sees the old model or the new one,
// never a mixture; a failed or panicking fit leaves the old model
// serving.
func (m *Monitor) runWindowRefit(ing *ingestState) RefitResult {
	v := m.snapshot()
	ing.mu.Lock()
	win := dataset.New(v.names, 0)
	vals := win.AppendRows(ing.rows)
	// Oldest first: the rows from next on, then the rows before it.
	older := copy(vals, ing.ring[ing.next*ing.d:])
	copy(vals[older:], ing.ring)
	// Reset at snapshot time: records arriving while the fit runs count
	// toward the next refit, not this one.
	ing.sinceRefit = 0
	ing.mu.Unlock()

	res := RefitResult{Rows: win.N()}
	if res.Rows == 0 {
		res.Err = errors.New("stream: ingest window is empty")
	} else {
		res.Drift = drift(v.grid, vals)
		res.Err = m.refitRecovered(win)
	}
	ing.mu.Lock()
	if res.Rows > 0 {
		ing.drift = res.Drift
	}
	if res.Err != nil {
		ing.refitErrs++
	} else {
		ing.refits++
	}
	ing.mu.Unlock()
	if ing.opt.OnRefit != nil {
		ing.opt.OnRefit(res)
	}
	return res
}

// refitRecovered is Refit with a panic in the fit turned into an
// error, so a poisoned window cannot kill the process.
func (m *Monitor) refitRecovered(win *dataset.Dataset) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: ingest refit panicked: %v", r)
		}
	}()
	return m.Refit(win)
}
