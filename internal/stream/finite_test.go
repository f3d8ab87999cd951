package stream

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"hido/internal/dataset"
	"hido/internal/xrand"
)

// infWindow builds a 200×4 window whose column 3 is shaped by col3:
// the shapes that used to leave an infinite cut in the fitted grid.
func infWindow(seed uint64, col3 func(r *xrand.RNG) float64) *dataset.Dataset {
	r := xrand.New(seed)
	ds := dataset.New([]string{"a", "b", "c", "d"}, 200)
	for i := 0; i < 200; i++ {
		f := r.Float64()
		ds.AppendRow([]float64{f, f + 0.01*r.Float64(), r.Float64(), col3(r)}, "")
	}
	return ds
}

// checkFiniteRoundTrip asserts the monitor's grid holds only finite
// cuts, that it saves and loads, and that the loaded model scores every
// window row and a few hostile probes exactly like the original.
func checkFiniteRoundTrip(t *testing.T, m *Monitor, window *dataset.Dataset) {
	t.Helper()
	for j, cuts := range m.snapshot().grid.AllCuts() {
		for _, c := range cuts {
			if math.IsInf(c, 0) || math.IsNaN(c) {
				t.Fatalf("dimension %d has cut %v", j, c)
			}
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	probes := [][]float64{
		{0.5, 0.5, 0.5, math.Inf(1)},
		{0.5, 0.5, 0.5, math.Inf(-1)},
		{0.5, 0.5, 0.5, math.NaN()},
		{0.1, 0.9, 0.5, 3},
	}
	for i := 0; i < window.N(); i++ {
		probes = append(probes, window.Row(i))
	}
	for i, rec := range probes {
		a, b := m.Score(rec), loaded.Score(rec)
		if math.Float64bits(a.Score) != math.Float64bits(b.Score) || !reflect.DeepEqual(a.Matches, b.Matches) {
			t.Fatalf("probe %d %v: fitted %+v, loaded %+v", i, rec, a, b)
		}
	}
}

func TestInfiniteColumnsSaveAndLoad(t *testing.T) {
	shapes := map[string]func(r *xrand.RNG) float64{
		"all-missing": func(*xrand.RNG) float64 { return math.NaN() },
		// At phi=5 a third of +Inf values puts the top cuts on +Inf.
		"inf-tail": func(r *xrand.RNG) float64 {
			if r.Bernoulli(1.0 / 3) {
				return math.Inf(1)
			}
			return r.Float64()
		},
		"neg-inf-head": func(r *xrand.RNG) float64 {
			if r.Bernoulli(1.0 / 3) {
				return math.Inf(-1)
			}
			return r.Float64()
		},
	}
	for name, col3 := range shapes {
		t.Run(name, func(t *testing.T) {
			ds := infWindow(1, col3)
			m, err := NewMonitor(ds, Options{Phi: 5, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			checkFiniteRoundTrip(t, m, ds)
		})
	}
}

func TestIngestRefitAllMissingColumn(t *testing.T) {
	ref := infWindow(3, func(r *xrand.RNG) float64 { return r.Float64() })
	m, err := NewMonitor(ref, Options{Phi: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: 400, RefitEvery: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	window := infWindow(5, func(*xrand.RNG) float64 { return math.NaN() })
	for i := 0; i < window.N(); i++ {
		if _, err := m.Ingest(window.RowView(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RefitFromWindow(); err != nil {
		t.Fatal(err)
	}
	checkFiniteRoundTrip(t, m, window)
}
