package stream

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"hido/internal/dataset"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// reference builds a correlated window: dims 0-2 share a factor, the
// rest are noise.
func reference(n int, seed uint64) *dataset.Dataset {
	ds, err := synth.Generate(synth.Config{
		Name: "ref", N: n, D: 8,
		Groups: []synth.Group{{Dims: []int{0, 1, 2}, Noise: 0.03}},
	}, seed)
	if err != nil {
		panic(err)
	}
	return ds
}

// contrarian returns a record violating the (0,1) correlation while
// staying in-range marginally.
func contrarian(r *xrand.RNG) []float64 {
	row := make([]float64, 8)
	for j := range row {
		row[j] = r.Float64()
	}
	row[0], row[1], row[2] = 0.03, 0.97, 0.5
	return row
}

// typical returns a factor-consistent record.
func typical(r *xrand.RNG) []float64 {
	row := make([]float64, 8)
	f := r.Float64()
	row[0], row[1], row[2] = f, f, f
	for j := 3; j < 8; j++ {
		row[j] = r.Float64()
	}
	return row
}

func TestMonitorFlagsContrarian(t *testing.T) {
	m, err := NewMonitor(reference(800, 1), Options{Phi: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	a := m.Score(contrarian(r))
	if !a.Flagged() {
		t.Fatal("contrarian record not flagged")
	}
	if a.Score >= -3 {
		t.Errorf("alert score = %v, want <= -3", a.Score)
	}
	if exp := m.Explain(a); len(exp) == 0 || exp[0] == "" {
		t.Error("no explanation")
	}
	// Most typical records pass.
	flagged := 0
	for i := 0; i < 200; i++ {
		if m.Score(typical(r)).Flagged() {
			flagged++
		}
	}
	if flagged > 20 {
		t.Errorf("%d/200 typical records flagged", flagged)
	}
}

func TestMonitorMissingAttributes(t *testing.T) {
	m, err := NewMonitor(reference(600, 4), Options{Phi: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(6)
	rec := contrarian(r)
	rec[0] = math.NaN() // the constrained attribute is missing
	rec[1] = math.NaN()
	a := m.Score(rec)
	// With both signature attributes missing, the record cannot match
	// cubes constraining them; it may still match other projections but
	// must not match any cube constraining dims 0 or 1.
	for _, pi := range a.Matches {
		for _, pr := range m.Projections()[pi].Cube.Pairs() {
			if pr.Dim == 0 || pr.Dim == 1 {
				t.Errorf("matched projection constraining a missing attribute")
			}
		}
	}
}

func TestMonitorScoreBatch(t *testing.T) {
	m, err := NewMonitor(reference(500, 7), Options{Phi: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	batch := dataset.New(make([]string, 8), 10)
	for i := 0; i < 9; i++ {
		batch.AppendRow(typical(r), "")
	}
	batch.AppendRow(contrarian(r), "")
	alerts := m.ScoreBatch(batch)
	if len(alerts) != 10 {
		t.Fatalf("got %d alerts", len(alerts))
	}
	if !alerts[9].Flagged() {
		t.Error("batch missed the contrarian")
	}
}

func TestMonitorRefit(t *testing.T) {
	m, err := NewMonitor(reference(500, 10), Options{Phi: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refit(reference(500, 12)); err != nil {
		t.Fatal(err)
	}
	if len(m.Projections()) == 0 {
		t.Error("refit produced no projections")
	}
	// Dimensionality mismatch is rejected.
	bad, err := synth.Generate(synth.Config{Name: "bad", N: 100, D: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refit(bad); err == nil {
		t.Error("refit with wrong dimensionality accepted")
	}
}

// TestMonitorValidation: every option set a fit cannot run is an
// error from Options.Validate and from NewMonitor, before any
// discretization; φ above 65 535 used to pass NewMonitor's check and
// panic in discretize.Fit.
func TestMonitorValidation(t *testing.T) {
	for _, opt := range []Options{
		{}, {Phi: 1}, {Phi: 65536}, {Phi: -3},
		{Phi: 5, TargetS: 3}, {Phi: 5, TargetS: math.NaN()}, {Phi: 5, TargetS: math.Inf(-1)},
		{Phi: 5, M: -1}, {Phi: 5, Restarts: -2},
		{Phi: 5, Ensemble: &EnsembleOptions{Members: -1}},
		{Phi: 5, Ensemble: &EnsembleOptions{Algo: "annealing"}},
	} {
		if opt.Validate() == nil {
			t.Errorf("%+v: Validate accepted", opt)
		}
		if _, err := NewMonitor(reference(100, 13), opt); err == nil {
			t.Errorf("%+v: NewMonitor accepted", opt)
		}
	}
	for _, opt := range []Options{{Phi: 2}, {Phi: 65535}, {Phi: 5, TargetS: -2, M: 1, Restarts: 1}} {
		if err := opt.Validate(); err != nil {
			t.Errorf("%+v: %v", opt, err)
		}
	}
	m, err := NewMonitor(reference(200, 14), Options{Phi: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-width record did not panic")
		}
	}()
	m.Score([]float64{1, 2})
}

func TestScoreBatchContextMatchesSerial(t *testing.T) {
	m, err := NewMonitor(reference(500, 20), Options{Phi: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(22)
	batch := dataset.New(make([]string, 8), 1000)
	for i := 0; i < 997; i++ {
		batch.AppendRow(typical(r), "")
	}
	for i := 0; i < 3; i++ {
		batch.AppendRow(contrarian(r), "")
	}
	want := make([]Alert, batch.N())
	for i := range want {
		want[i] = m.Score(batch.RowView(i))
	}
	for _, workers := range []int{0, 1, 2, 7} {
		got, err := m.ScoreBatchContext(context.Background(), batch, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d alerts differ from serial scoring", workers)
		}
	}
}

func TestScoreBatchContextCancelled(t *testing.T) {
	m, err := NewMonitor(reference(300, 23), Options{Phi: 5, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(25)
	batch := dataset.New(make([]string, 8), 4000)
	for i := 0; i < 4000; i++ {
		batch.AppendRow(typical(r), "")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ScoreBatchContext(ctx, batch, 4); err != context.Canceled {
		t.Errorf("cancelled batch returned err=%v, want context.Canceled", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-ctx2.Done()
	if _, err := m.ScoreBatchContext(ctx2, batch, 1); err != context.DeadlineExceeded {
		t.Errorf("timed-out batch returned err=%v, want context.DeadlineExceeded", err)
	}
}

func TestResults(t *testing.T) {
	m, err := NewMonitor(reference(600, 26), Options{Phi: 5, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(28)
	batch := dataset.New(make([]string, 8), 10)
	for i := 0; i < 9; i++ {
		batch.AppendRow(typical(r), "ok")
	}
	batch.AppendRow(contrarian(r), "bad")
	alerts := m.ScoreBatch(batch)
	if !alerts[9].Flagged() {
		t.Fatal("contrarian not flagged; cannot exercise Results")
	}

	all := m.Results(batch, alerts, true, false)
	if len(all) != 10 {
		t.Fatalf("all results: got %d, want 10", len(all))
	}
	last := all[9]
	if !last.Flagged || last.Record != 9 || last.Label != "bad" ||
		last.Score != alerts[9].Score || len(last.Explanations) == 0 {
		t.Errorf("flagged result malformed: %+v", last)
	}

	flagged := m.Results(batch, alerts, false, true)
	for _, res := range flagged {
		if !res.Flagged {
			t.Errorf("flaggedOnly returned clean record %d", res.Record)
		}
		if res.Explanations != nil {
			t.Errorf("explanations present without explain: %+v", res)
		}
	}
}

// TestMonitorConcurrentRefitAndScore hammers the hot-swap path the
// server's PUT /api/v1/models/{name} relies on: many goroutines score
// single records and whole batches while several others Refit the
// shared monitor. Run under -race in CI; correctness here is "every
// alert came from one coherent model" — batch scoring snapshots the
// model, so within a batch all alerts agree.
func TestMonitorConcurrentRefitAndScore(t *testing.T) {
	m, err := NewMonitor(reference(400, 30), Options{Phi: 5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(32)
	batch := dataset.New(make([]string, 8), 400)
	for i := 0; i < 399; i++ {
		batch.AppendRow(typical(r), "")
	}
	batch.AppendRow(contrarian(r), "")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rr := xrand.New(seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					_ = m.Score(typical(rr))
				case 1:
					alerts, err := m.ScoreBatchContext(context.Background(), batch, 3)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					if len(alerts) != batch.N() {
						t.Errorf("batch returned %d alerts", len(alerts))
						return
					}
				case 2:
					a := m.Score(contrarian(rr))
					_ = m.Explain(a)
				}
			}
		}(uint64(100 + w))
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if err := m.Refit(reference(400, seed+uint64(i))); err != nil {
					t.Errorf("refit: %v", err)
					return
				}
			}
		}(uint64(200 + 10*w))
	}
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	// Let scorers overlap all refits, then stop them.
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent refit/score deadlocked")
	}
	if m.K() < 1 || m.D() != 8 {
		t.Error("model lost after concurrent refit/score")
	}
}

func TestMonitorConcurrentScore(t *testing.T) {
	m, err := NewMonitor(reference(400, 15), Options{Phi: 5, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < 200; i++ {
				_ = m.Score(typical(r))
			}
		}(uint64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.Refit(reference(400, 17))
	}()
	wg.Wait()
	if m.K() < 1 {
		t.Error("model lost after concurrent use")
	}
}
