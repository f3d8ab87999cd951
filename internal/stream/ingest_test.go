package stream

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/dataset"
	"hido/internal/obs"
	"hido/internal/synth"
	"hido/internal/xrand"
)

func TestIngestValidation(t *testing.T) {
	m, err := NewMonitor(reference(300, 1), Options{Phi: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(make([]float64, 8)); err != ErrIngestDisabled {
		t.Fatalf("ingest before enable: %v, want ErrIngestDisabled", err)
	}
	if err := m.RefitFromWindow(); err != ErrIngestDisabled {
		t.Fatalf("refit before enable: %v, want ErrIngestDisabled", err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 0, RefitEvery: 10}); err == nil {
		t.Error("zero window accepted")
	}
	if err := m.EnableIngest(IngestOptions{Window: 100, RefitEvery: 0}); err == nil {
		t.Error("zero refit-every accepted")
	}
	if err := m.EnableIngest(IngestOptions{Window: 100, RefitEvery: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 100, RefitEvery: 10}); err == nil {
		t.Error("double enable accepted")
	}
	if _, err := m.Ingest([]float64{1, 2}); err == nil {
		t.Error("wrong-width record accepted")
	}
	if !m.IngestEnabled() {
		t.Error("IngestEnabled false after enable")
	}
}

func TestIngestScoresLikeScore(t *testing.T) {
	m, err := NewMonitor(reference(800, 1), Options{Phi: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// RefitEvery beyond the test's volume: the model never swaps, so
	// Ingest must agree with Score exactly.
	if err := m.EnableIngest(IngestOptions{Window: 500, RefitEvery: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	for i := 0; i < 50; i++ {
		rec := typical(r)
		if i%10 == 0 {
			rec = contrarian(r)
		}
		want := m.Score(rec)
		got, err := m.Ingest(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("record %d: ingest alert %+v, score alert %+v", i, got, want)
		}
	}
	st := m.IngestStats()
	if st.WindowRows != 50 || st.SinceRefit != 50 {
		t.Fatalf("stats after 50 ingests: %+v", st)
	}
}

func TestIngestWindowSlides(t *testing.T) {
	m, err := NewMonitor(reference(300, 5), Options{Phi: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 100, RefitEvery: 1 << 20, Epochs: 4}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	for i := 0; i < 1000; i++ {
		if _, err := m.Ingest(typical(r)); err != nil {
			t.Fatal(err)
		}
		st := m.IngestStats()
		if st.WindowRows > 100 {
			t.Fatalf("after %d ingests window holds %d rows, cap 100", i+1, st.WindowRows)
		}
	}
	st := m.IngestStats()
	// Whole-epoch expiry keeps at least window − epochSize rows around.
	if st.WindowRows <= 100-25 {
		t.Fatalf("window shrank to %d rows", st.WindowRows)
	}
	if st.Epochs > 5 {
		t.Fatalf("ring grew to %d epochs", st.Epochs)
	}
}

// TestIngestRefitMatchesOffline is the load-bearing exactness check:
// with the window inside the sketch capacity, a refit driven by the
// merged epoch sketches must produce bit-identical projections to an
// offline fit over the same rows — the sketch path is the sorted pass,
// just incremental.
func TestIngestRefitMatchesOffline(t *testing.T) {
	opt := Options{Phi: 5, Seed: 11}
	m, err := NewMonitor(reference(500, 10), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 1000, RefitEvery: 1 << 20, SketchCap: 1024}); err != nil {
		t.Fatal(err)
	}
	win := reference(400, 99)
	for i := 0; i < win.N(); i++ {
		if _, err := m.Ingest(win.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RefitFromWindow(); err != nil {
		t.Fatal(err)
	}
	offline, err := NewMonitor(win, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != offline.K() {
		t.Fatalf("sketch-refit k=%d, offline k=%d", m.K(), offline.K())
	}
	if !reflect.DeepEqual(m.Projections(), offline.Projections()) {
		t.Fatalf("sketch-refit projections diverge from offline fit:\n%d vs %d projections",
			len(m.Projections()), len(offline.Projections()))
	}
	st := m.IngestStats()
	if st.Refits != 1 || st.RefitErrs != 0 {
		t.Fatalf("stats after one refit: %+v", st)
	}
}

func TestIngestBackgroundRefitOnDrift(t *testing.T) {
	m, err := NewMonitor(reference(500, 20), Options{Phi: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var results []RefitResult
	var resMu sync.Mutex
	if err := m.EnableIngest(IngestOptions{
		Window: 300, RefitEvery: 200,
		OnRefit: func(r RefitResult) {
			resMu.Lock()
			results = append(results, r)
			resMu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Stream from a shifted regime: every value moved up by 3, so the
	// reference grid's boundaries all sit below the live data.
	r := xrand.New(22)
	shifted := func() []float64 {
		row := typical(r)
		for j := range row {
			row[j] += 3
		}
		return row
	}
	for i := 0; i < 200; i++ {
		if _, err := m.Ingest(shifted()); err != nil {
			t.Fatal(err)
		}
	}
	if d := m.Drift(); d < 0.2 {
		t.Fatalf("drift %v for a fully shifted window, want large", d)
	}
	before := m.Projections()
	// The 200th ingest made the refit due and started it in the
	// background; scoring must keep working while it runs.
	for i := 0; i < 50; i++ {
		m.Score(shifted())
	}
	m.WaitIngest()
	st := m.IngestStats()
	if st.Refits == 0 {
		t.Fatalf("no background refit fired: %+v", st)
	}
	if st.RefitErrs != 0 {
		t.Fatalf("background refit errored: %+v", st)
	}
	resMu.Lock()
	defer resMu.Unlock()
	if len(results) == 0 {
		t.Fatal("OnRefit never called")
	}
	if results[0].Err != nil || results[0].Rows == 0 || results[0].Drift < 0.2 {
		t.Fatalf("refit result %+v", results[0])
	}
	// The refit rebuilt the grid on the shifted window, so the model
	// changed observably.
	if reflect.DeepEqual(before, m.Projections()) && m.Drift() >= 0.2 {
		t.Error("refit left both projections and drift unchanged")
	}
	// Post-refit the grid tracks the shifted stream again.
	if d := m.Drift(); d > 0.15 {
		t.Errorf("post-refit drift %v, want small", d)
	}
}

func TestIngestBatch(t *testing.T) {
	m, err := NewMonitor(reference(500, 30), Options{Phi: 5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 400, RefitEvery: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	batch := reference(120, 32)
	alerts, err := m.IngestBatch(context.Background(), batch, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != batch.N() {
		t.Fatalf("%d alerts for %d records", len(alerts), batch.N())
	}
	want := m.ScoreBatch(batch)
	for i := range want {
		if alerts[i].Score != want[i].Score {
			t.Fatalf("batch alert %d: %v vs %v", i, alerts[i].Score, want[i].Score)
		}
	}
	if st := m.IngestStats(); st.WindowRows != batch.N() {
		t.Fatalf("window holds %d rows after a %d-row batch", st.WindowRows, batch.N())
	}
	// Dimensionality mismatch is rejected before scoring.
	bad, err := synth.Generate(synth.Config{Name: "bad", N: 10, D: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.IngestBatch(context.Background(), bad, 1, nil); err == nil {
		t.Error("mismatched batch accepted")
	}
}

func TestIngestConcurrentWithRefit(t *testing.T) {
	// The acceptance shape: scoring requests issued concurrently with
	// background refits complete without blocking or error.
	m, err := NewMonitor(reference(400, 40), Options{Phi: 5, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 200, RefitEvery: 100}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
					m.Score(typical(r))
				}
			}
		}(uint64(42 + w))
	}
	r := xrand.New(50)
	for i := 0; i < 600; i++ {
		if _, err := m.Ingest(typical(r)); err != nil {
			t.Fatal(err)
		}
	}
	m.WaitIngest()
	close(stop)
	wg.Wait()
	if st := m.IngestStats(); st.Refits == 0 {
		t.Fatalf("no refit fired over 600 ingests with RefitEvery=100: %+v", st)
	}
}

func TestRefitFromWindowEmpty(t *testing.T) {
	m, err := NewMonitor(reference(300, 60), Options{Phi: 5, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 100, RefitEvery: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.RefitFromWindow(); err == nil {
		t.Error("refit from an empty window succeeded")
	}
	if st := m.IngestStats(); st.RefitErrs != 1 {
		t.Fatalf("empty-window refit not counted as error: %+v", st)
	}
}

// TestRefitDimMismatchSkipsSearch pins the up-front validation: a
// mismatched window must be rejected before any search work runs, not
// after the full evolutionary run. The observer would see generation
// events if a search started. Ensemble members run in parallel and
// deliver events from several goroutines, hence the atomic counter.
func TestRefitDimMismatchSkipsSearch(t *testing.T) {
	var events atomic.Int64
	o := obs.Funcs{Generation: func(obs.GenerationEvent) { events.Add(1) }}
	m, err := NewMonitor(reference(300, 70), Options{Phi: 5, Seed: 71, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	fitEvents := events.Load()
	if fitEvents == 0 {
		t.Fatal("observer saw no events from the initial fit")
	}
	bad, err := synth.Generate(synth.Config{Name: "bad", N: 200, D: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refit(bad); err == nil {
		t.Fatal("mismatched refit accepted")
	}
	if n := events.Load(); n != fitEvents {
		t.Errorf("mismatched refit ran %d search generations before failing", n-fitEvents)
	}

	// Same for the ensemble path.
	em, err := NewMonitor(reference(300, 72), Options{Phi: 5, Seed: 73,
		Ensemble: &EnsembleOptions{Members: 3}, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	before := events.Load()
	if err := em.Refit(bad); err == nil {
		t.Fatal("mismatched ensemble refit accepted")
	}
	if n := events.Load(); n != before {
		t.Errorf("mismatched ensemble refit ran %d search generations", n-before)
	}
}

// TestFailedRefitKeepsModel pins the swap contract: a refit that fails
// must leave the previous model exactly as it was — byte-identical
// when saved, and scoring records as before — not zeroed and not
// half-updated.
func TestFailedRefitKeepsModel(t *testing.T) {
	m, err := NewMonitor(reference(300, 80), Options{Phi: 5, Seed: 81,
		Ensemble: &EnsembleOptions{Members: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	probe := typical(xrand.New(83))
	scored := m.Score(probe)
	// Corrupt the ensemble config so Refit fails at parse time — the
	// shape of a bad config arriving via a loaded model.
	m.opt.Ensemble.Algo = "bogus"
	if err := m.Refit(reference(300, 82)); err == nil {
		t.Fatal("refit with a bogus ensemble algo succeeded")
	}
	// The options are part of the saved model; undo the corruption so
	// the comparison sees only what the failed refit could have touched.
	m.opt.Ensemble.Algo = ""
	var again bytes.Buffer
	if err := m.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Error("failed refit changed the saved model")
	}
	if got := m.Score(probe); !reflect.DeepEqual(got, scored) {
		t.Errorf("failed refit changed the score: %+v -> %+v", scored, got)
	}
}

// A monitor keeps its model's cuts, not the window it fitted them on:
// after NewMonitor, Refit and a window refit its grid is bound to no
// records, and the window a model was fitted on is collected while
// that model is still current (a finalizer stands in for
// weak.Pointer, which needs a newer Go than go.mod pins).
func TestMonitorRetainsNoDataset(t *testing.T) {
	for _, ens := range []*EnsembleOptions{nil, {Members: 3}} {
		opt := Options{Phi: 5, Seed: 11, Ensemble: ens}
		// fit runs fn on a fresh window the caller does not keep, then
		// waits for the window to be collected.
		fit := func(step string, seed uint64, fn func(*dataset.Dataset) error) {
			t.Helper()
			collected := make(chan struct{})
			func() {
				win := reference(300, seed)
				runtime.SetFinalizer(win, func(*dataset.Dataset) { close(collected) })
				if err := fn(win); err != nil {
					t.Fatal(err)
				}
			}()
			// Finalizers run on their own goroutine after the cycle that
			// finds the object unreachable.
			for deadline := time.Now().Add(5 * time.Second); ; {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatalf("ensemble=%v: the window fitted by %s is still reachable", ens != nil, step)
				}
			}
		}
		var m *Monitor
		fit("NewMonitor", 3, func(win *dataset.Dataset) (err error) {
			m, err = NewMonitor(win, opt)
			return err
		})
		if m.grid.N != 0 {
			t.Fatalf("ensemble=%v: grid after NewMonitor bound to %d records", ens != nil, m.grid.N)
		}
		fit("Refit", 4, func(win *dataset.Dataset) error { return m.Refit(win) })
		if m.grid.N != 0 {
			t.Fatalf("ensemble=%v: grid after Refit bound to %d records", ens != nil, m.grid.N)
		}
		if err := m.EnableIngest(IngestOptions{Window: 200, RefitEvery: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		win := reference(200, 5)
		for i := 0; i < win.N(); i++ {
			if _, err := m.Ingest(win.RowView(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.RefitFromWindow(); err != nil {
			t.Fatal(err)
		}
		if m.grid.N != 0 {
			t.Fatalf("ensemble=%v: grid after a window refit bound to %d records", ens != nil, m.grid.N)
		}
	}
}
