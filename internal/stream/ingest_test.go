package stream

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/dataset"
	"hido/internal/discretize"
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
	if err := m.EnableIngest(IngestOptions{Window: 100, RefitEvery: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	for i := 0; i < 1000; i++ {
		if _, err := m.Ingest(typical(r)); err != nil {
			t.Fatal(err)
		}
		if got, want := m.IngestStats().WindowRows, min(i+1, 100); got != want {
			t.Fatalf("after %d ingests window holds %d rows, want %d", i+1, got, want)
		}
	}
}

// TestIngestRefitMatchesOffline is the load-bearing exactness check: a
// refit from a window that has not yet filled must produce
// bit-identical projections to an offline fit over the same rows.
func TestIngestRefitMatchesOffline(t *testing.T) {
	opt := Options{Phi: 5, Seed: 11}
	m, err := NewMonitor(reference(500, 10), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 1000, RefitEvery: 1 << 20}); err != nil {
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
		t.Fatalf("window refit k=%d, offline k=%d", m.K(), offline.K())
	}
	if !reflect.DeepEqual(m.Projections(), offline.Projections()) {
		t.Fatalf("window refit projections diverge from offline fit:\n%d vs %d projections",
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

// savedBytes is m's saved model.
func savedBytes(t *testing.T, m *Monitor) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWindowRefitIsOfflineFit pins what a window refit is: Refit over
// the last Window records, oldest first, so it saves the bytes
// NewMonitor saves over those records — for both model kinds, after
// the window has wrapped, and with batches that wrap it mid-batch.
func TestWindowRefitIsOfflineFit(t *testing.T) {
	const window, ingested = 1500, 4000
	arrivals := reference(ingested, 90)
	last := make([]int, window)
	for i := range last {
		last[i] = ingested - window + i
	}
	for _, opt := range []Options{
		{Phi: 5, Seed: 91},
		{Phi: 5, Seed: 92, Ensemble: &EnsembleOptions{Members: 3}},
	} {
		m, err := NewMonitor(reference(600, 93), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.EnableIngest(IngestOptions{Window: window, RefitEvery: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 700; i++ {
			if _, err := m.Ingest(arrivals.RowView(i)); err != nil {
				t.Fatal(err)
			}
		}
		for lo := 700; lo < ingested; lo += 700 {
			rows := make([]int, 0, 700)
			for i := lo; i < min(lo+700, ingested); i++ {
				rows = append(rows, i)
			}
			if _, err := m.IngestBatch(context.Background(), arrivals.SelectRows(rows), 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.RefitFromWindow(); err != nil {
			t.Fatal(err)
		}
		offline, err := NewMonitor(arrivals.SelectRows(last), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := savedBytes(t, m), savedBytes(t, offline); !bytes.Equal(got, want) {
			t.Errorf("%s: the window refit saves %d bytes that differ from the offline fit's %d",
				m.Kind(), len(got), len(want))
		}
	}
}

// TestIngestWindowGrowsWithRows pins that a window's memory follows
// the records it holds, not its bound: a monitor whose Window is far
// larger than any machine's memory ingests a few hundred records and
// refits from exactly those.
func TestIngestWindowGrowsWithRows(t *testing.T) {
	opt := Options{Phi: 5, Seed: 94}
	m, err := NewMonitor(reference(300, 95), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 1 << 40, RefitEvery: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	win := reference(300, 96)
	if _, err := m.IngestBatch(context.Background(), win, 1, nil); err != nil {
		t.Fatal(err)
	}
	if st := m.IngestStats(); st.WindowRows != win.N() {
		t.Fatalf("window holds %d rows after ingesting %d", st.WindowRows, win.N())
	}
	if err := m.RefitFromWindow(); err != nil {
		t.Fatal(err)
	}
	offline, err := NewMonitor(win, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, m), savedBytes(t, offline)) {
		t.Error("the refit of a partly filled window differs from the offline fit of its rows")
	}
}

// bruteDrift is Monitor.Drift's definition counted record by record:
// for every dimension and interior boundary of g, the fraction of the
// dimension's non-missing values in rows at or below the boundary,
// against its equi-depth target.
func bruteDrift(g *discretize.Grid, rows [][]float64) float64 {
	total, count := 0.0, 0
	for j := 0; j < g.D; j++ {
		cuts := g.Cuts(j)
		for r := 1; r < g.Phi; r++ {
			present, below := 0, 0
			for _, row := range rows {
				if math.IsNaN(row[j]) {
					continue
				}
				present++
				if row[j] <= cuts[r-1] {
					below++
				}
			}
			if present == 0 {
				continue
			}
			total += math.Abs(float64(below)/float64(present) - float64(r)/float64(g.Phi))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// TestDriftIsExactRank checks Drift, the drift a refit reports and the
// one IngestStats keeps against a brute-force count over the window,
// on a wrapped window of more than 1 024 records with missing values,
// a shifted dimension and values equal to a serving cut.
func TestDriftIsExactRank(t *testing.T) {
	const window = 1300
	m, err := NewMonitor(reference(800, 97), Options{Phi: 5, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	var refit RefitResult
	if err := m.EnableIngest(IngestOptions{Window: window, RefitEvery: 1 << 20,
		OnRefit: func(res RefitResult) { refit = res }}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(99)
	onCut := m.grid.Cuts(4)[1]
	var ingested [][]float64
	for i := 0; i < 2000; i++ {
		row := typical(r)
		row[3] += 0.4
		switch i % 7 {
		case 0:
			row[5] = math.NaN()
		case 1:
			row[4] = onCut
		}
		if _, err := m.Ingest(row); err != nil {
			t.Fatal(err)
		}
		ingested = append(ingested, row)
	}
	held := ingested[len(ingested)-window:]
	want := bruteDrift(m.grid, held)
	if want < 0.02 {
		t.Fatalf("brute-force drift %v: the shifted dimension should show", want)
	}
	if got := m.Drift(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Drift %v, brute-force count %v", got, want)
	}
	if err := m.RefitFromWindow(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(refit.Drift-want) > 1e-12 || refit.Rows != window {
		t.Fatalf("refit reported %+v, want drift %v over %d rows", refit, want, window)
	}
	if st := m.IngestStats(); st.Drift != refit.Drift {
		t.Fatalf("IngestStats drift %v, refit drift %v", st.Drift, refit.Drift)
	}
	if got, want := m.Drift(), bruteDrift(m.grid, held); math.Abs(got-want) > 1e-12 {
		t.Fatalf("after the refit Drift %v, brute-force count %v", got, want)
	}
}
