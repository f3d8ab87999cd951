package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hido/internal/core"
	"hido/internal/ensemble"
	"hido/internal/xrand"
)

func ensembleMonitor(t *testing.T, eo *EnsembleOptions) *Monitor {
	t.Helper()
	m, err := NewMonitor(reference(400, 1), Options{Phi: 5, Seed: 2, Ensemble: eo})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEnsembleMonitorFlagsContrarian(t *testing.T) {
	m := ensembleMonitor(t, &EnsembleOptions{Members: 6})
	if m.Kind() != "ensemble" {
		t.Fatalf("Kind() = %q, want ensemble", m.Kind())
	}
	if m.Members() != 6 {
		t.Fatalf("Members() = %d, want 6", m.Members())
	}
	r := xrand.New(3)
	bad := m.Score(contrarian(r))
	good := m.Score(typical(r))
	if bad.Score >= good.Score {
		t.Fatalf("contrarian score %v not more outlying than typical %v", bad.Score, good.Score)
	}
	if !bad.Flagged() {
		t.Fatal("contrarian record not flagged")
	}
	// Matches index the union list and must explain cleanly.
	for _, line := range m.Explain(bad) {
		if !strings.Contains(line, "∈") {
			t.Fatalf("unexpected explanation %q", line)
		}
	}
}

// Serving a reference-window record must reproduce the fit-time
// combine bit-exactly. The expected value is built independently from
// public APIs: run the same ensemble.Fit the monitor runs, filter each
// member at the retention threshold, recompute its evidence column,
// and aggregate with ensemble.Combine (which scoreEnsemble does NOT
// call — this is a cross-implementation check of the serving path).
func TestEnsembleServeMatchesFit(t *testing.T) {
	ds := reference(300, 7)
	const targetS = -3.0
	for _, combiner := range []string{"rank", "zscore", "max"} {
		m, err := NewMonitor(ds, Options{
			Phi: 4, TargetS: targetS, Seed: 11,
			Ensemble: &EnsembleOptions{Members: 5, Combiner: combiner},
		})
		if err != nil {
			t.Fatal(err)
		}
		det := core.NewDetector(ds, 4)
		advice := det.Advise(targetS)
		comb, _ := ensemble.ParseCombiner(combiner)
		res, err := ensemble.Fit(det, ensemble.Options{
			Members: 5, K: advice.K, M: 100, MinCoverage: -1,
			Combiner: comb, Workers: -1, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := ds.N()
		evidence := make([][]float64, len(res.Members))
		for r, mem := range res.Members {
			col := make([]float64, n)
			for i := 0; i < n; i++ {
				cells := det.Grid.CellsRow(i)
				best := 0.0
				for _, p := range mem.Projections {
					if p.Sparsity <= targetS && p.Sparsity < best && p.Cube.Covers(cells) {
						best = p.Sparsity
					}
				}
				col[i] = -best
			}
			evidence[r] = col
		}
		want, err := ensemble.Combine(comb, evidence)
		if err != nil {
			t.Fatal(err)
		}
		alerts := m.ScoreBatch(ds)
		for i, a := range alerts {
			if a.Score != -want[i] {
				t.Fatalf("combiner %s: served score[%d] = %v, want %v",
					combiner, i, a.Score, -want[i])
			}
		}
	}
}

// Save → Load must reconstruct serving exactly: identical kind, union,
// and bit-identical scores and matches on fresh records, at any batch
// worker count.
func TestEnsembleModelRoundTrip(t *testing.T) {
	for _, combiner := range []string{"rank", "zscore", "max"} {
		m := ensembleMonitor(t, &EnsembleOptions{Members: 5, BagSize: 5, Combiner: combiner})
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("combiner %s: %v", combiner, err)
		}
		if loaded.Kind() != "ensemble" || loaded.Members() != m.Members() {
			t.Fatalf("combiner %s: loaded kind=%s members=%d", combiner, loaded.Kind(), loaded.Members())
		}
		if len(loaded.Projections()) != len(m.Projections()) {
			t.Fatalf("combiner %s: union size %d != %d", combiner, len(loaded.Projections()), len(m.Projections()))
		}
		r := xrand.New(17)
		for i := 0; i < 50; i++ {
			var row []float64
			if i%2 == 0 {
				row = contrarian(r)
			} else {
				row = typical(r)
			}
			want, got := m.Score(row), loaded.Score(row)
			if want.Score != got.Score {
				t.Fatalf("combiner %s: loaded score %v != %v", combiner, got.Score, want.Score)
			}
			if len(want.Matches) != len(got.Matches) {
				t.Fatalf("combiner %s: matches %v != %v", combiner, got.Matches, want.Matches)
			}
			for j := range want.Matches {
				if want.Matches[j] != got.Matches[j] {
					t.Fatalf("combiner %s: matches %v != %v", combiner, got.Matches, want.Matches)
				}
			}
		}
	}
}

// Batch scoring must be worker-count-invariant for ensemble models too.
func TestEnsembleScoreBatchWorkers(t *testing.T) {
	m := ensembleMonitor(t, &EnsembleOptions{Members: 4})
	ds := reference(600, 9)
	base, err := m.ScoreBatchContext(context.Background(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		got, err := m.ScoreBatchContext(context.Background(), ds, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if base[i].Score != got[i].Score {
				t.Fatalf("workers=%d: score[%d] = %v, want %v", w, i, got[i].Score, base[i].Score)
			}
		}
	}
}

func TestEnsembleOptionsValidation(t *testing.T) {
	ds := reference(100, 4)
	cases := []EnsembleOptions{
		{Members: -1},
		{Algo: "annealing"},
		{Combiner: "median"},
		{BagSize: -2},
	}
	for _, eo := range cases {
		eo := eo
		if _, err := NewMonitor(ds, Options{Phi: 5, Seed: 1, Ensemble: &eo}); err == nil {
			t.Fatalf("accepted invalid ensemble options %+v", eo)
		}
	}
}

// Version gating: a v1 model must not carry an ensemble section, a v2
// model must, and corrupt ensemble sections are rejected.
func TestEnsembleModelValidate(t *testing.T) {
	m := ensembleMonitor(t, &EnsembleOptions{Members: 3})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	decode := func(t *testing.T) *Model {
		t.Helper()
		var model Model
		if err := json.Unmarshal(pristine, &model); err != nil {
			t.Fatal(err)
		}
		return &model
	}

	model := decode(t)
	if model.Version != 2 {
		t.Fatalf("saved ensemble model version %d, want 2", model.Version)
	}
	if err := model.Validate(); err != nil {
		t.Fatalf("pristine model rejected: %v", err)
	}

	corruptions := []struct {
		name   string
		break_ func(*Model)
	}{
		{"v1 with ensemble", func(m *Model) { m.Version = 1 }},
		{"v2 without ensemble", func(m *Model) { m.Ensemble = nil }},
		{"unknown version", func(m *Model) { m.Version = 3 }},
		{"bad combiner", func(m *Model) { m.Ensemble.Combiner = "median" }},
		{"no members", func(m *Model) { m.Ensemble.Members = nil }},
		{"empty bag", func(m *Model) { m.Ensemble.Members[0].Dims = nil }},
		{"bag out of range", func(m *Model) { m.Ensemble.Members[0].Dims[0] = 99 }},
		{"bag not increasing", func(m *Model) {
			d := m.Ensemble.Members[0].Dims
			if len(d) > 1 {
				d[1] = d[0]
			} else {
				m.Ensemble.Members[0].Dims = []int{1, 1}
			}
		}},
		{"calibration unsorted", func(m *Model) {
			s := m.Ensemble.Members[0].Sorted
			if len(s) > 1 {
				s[0], s[len(s)-1] = s[len(s)-1]+1, s[0]
			}
		}},
		{"negative std", func(m *Model) { m.Ensemble.Members[0].Std = -1 }},
	}
	for _, c := range corruptions {
		model := decode(t)
		c.break_(model)
		if err := model.Validate(); err == nil {
			t.Fatalf("%s: corruption accepted", c.name)
		}
	}
}

// A single-search model still saves as v1 and loads unchanged.
func TestSingleModelStaysV1(t *testing.T) {
	m, err := NewMonitor(reference(300, 2), Options{Phi: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var model Model
	if err := json.Unmarshal(buf.Bytes(), &model); err != nil {
		t.Fatal(err)
	}
	if model.Version != 1 || model.Ensemble != nil {
		t.Fatalf("single model saved as version %d (ensemble %v)", model.Version, model.Ensemble)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind() != "single" || loaded.Members() != 0 {
		t.Fatalf("loaded kind=%s members=%d", loaded.Kind(), loaded.Members())
	}
}
