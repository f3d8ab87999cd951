package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hido/internal/batchwire"
	"hido/internal/dataset"
	"hido/internal/stream"
	"hido/internal/testutil"
	"hido/internal/xrand"
)

// diffWindow builds a labeled scoring batch with planted contrarians
// and missing values, sized to order.
func diffWindow(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	r := xrand.New(seed)
	ds := dataset.New([]string{"a", "b", "c", "d", "e", "f", "g", "h"}, n)
	for i := 0; i < n; i++ {
		f := r.Float64()
		row := []float64{f, f, f, r.Float64(), r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		label := "ok"
		switch {
		case i%11 == 3:
			row[1] = 1 - row[0] // break the planted correlation
			label = "bad"
		case i%13 == 7:
			row[4] = math.NaN() // missing attribute
			label = ""
		}
		ds.AppendRow(row, label)
	}
	return ds
}

// jsonLinesBody renders a dataset as the JSON-lines request format,
// alternating the object and bare-array forms; NaN becomes null.
func jsonLinesBody(t testing.TB, ds *dataset.Dataset) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < ds.N(); i++ {
		obj := i%2 == 0 || ds.Label(i) != ""
		if obj {
			b.WriteString(`{"values":[`)
		} else {
			b.WriteString("[")
		}
		for j := 0; j < ds.D(); j++ {
			if j > 0 {
				b.WriteString(",")
			}
			if v := ds.At(i, j); math.IsNaN(v) {
				b.WriteString("null")
			} else {
				b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		if obj {
			fmt.Fprintf(&b, `],"label":%q}`, ds.Label(i))
		} else {
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	return b.Bytes()
}

// diffServer builds a server over a single-search model ("default")
// and an ensemble ("ens"), returning the models by name for the
// oracle.
func diffServer(t testing.TB, workers int) (*Server, map[string]*stream.Monitor) {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	single := fitMonitor(t, 600, 40)
	ens, err := stream.NewMonitor(refWindow(t, 600, 40), stream.Options{
		Phi: 5, Seed: 41, Ensemble: &stream.EnsembleOptions{Members: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	mons := map[string]*stream.Monitor{"default": single, "ens": ens}
	s := New(Config{ScoreWorkers: workers, Now: func() time.Time { return base }})
	for name, mon := range mons {
		if err := s.registry.Set(name, Entry{Monitor: mon, FittedAt: base.Add(-time.Hour), Source: "test"}); err != nil {
			t.Fatal(err)
		}
	}
	return s, mons
}

// oracleScore is the score response body a server must send for
// batch, built from code the server's pooled path does not use: a
// fresh Scorer per row, a fresh result slice, and json.Marshal.
func oracleScore(t testing.TB, mon *stream.Monitor, model string, batch *dataset.Dataset, explain, all bool) []byte {
	t.Helper()
	alerts := make([]stream.Alert, batch.N())
	flagged := 0
	for i := range alerts {
		alerts[i] = mon.NewScorer().Score(batch.RowView(i))
		if alerts[i].Flagged() {
			flagged++
		}
	}
	b, err := json.Marshal(scoreResponse{
		Model:   model,
		Records: len(alerts),
		Flagged: flagged,
		Results: mon.ResultsAppend(nil, batch, alerts, explain, !all),
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func scoreOnce(t testing.TB, s *Server, url, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", url, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestScoreDifferentialPooling replays score requests against a
// pooled server — every format, batch size, model kind and worker
// fan-out — and requires each response to match the oracle byte for
// byte. Every format is hit repeatedly, each good body right after a
// malformed body of the same format (a truncated hib1 frame, a ragged
// CSV row, a bad JSON line), so requests land on recycled arenas that
// a failed decode left behind, not just fresh ones.
func TestScoreDifferentialPooling(t *testing.T) {
	sizes := []int{1, 7, 100}
	if !testing.Short() {
		sizes = append(sizes, 10000)
	}
	for _, workers := range []int{1, 4, 8} {
		pooled, mons := diffServer(t, workers)
		for _, model := range []string{"default", "ens"} {
			for _, size := range sizes {
				if size == 10000 && workers != 8 {
					continue
				}
				batch := diffWindow(t, size, uint64(size)*7+uint64(workers))
				var csvB bytes.Buffer
				if err := batch.WriteCSV(&csvB); err != nil {
					t.Fatal(err)
				}
				jsonl := jsonLinesBody(t, batch)
				hib1 := batchwire.Encode(batch)
				bodies := map[string][2][]byte{ // good, malformed
					"text/csv":            {csvB.Bytes(), append(bytes.Clone(csvB.Bytes()), "0.5,0.5\n"...)},
					"application/jsonl":   {jsonl, append(bytes.Clone(jsonl), `{"values":[0.5,`+"\n"...)},
					batchwire.ContentType: {hib1, hib1[:len(hib1)-3]},
				}
				variants := []string{"", "&explain=1", "&all=1&explain=1"}
				if size > 7 {
					variants = []string{"", "&explain=1"}
				}
				for ct, body := range bodies {
					for _, extra := range variants {
						url := "/api/v1/score?model=" + model + extra
						if ct == "text/csv" {
							url += "&label=8"
						}
						name := fmt.Sprintf("w%d/%s/n%d/%s%s", workers, model, size, ct, extra)
						want := oracleScore(t, mons[model], model, batch,
							strings.Contains(extra, "explain=1"), strings.Contains(extra, "all=1"))

						// Three passes: the first may build the arena, the
						// rest must reuse it without drift.
						for pass := 0; pass < 3; pass++ {
							if rec := scoreOnce(t, pooled, url, ct, body[1]); rec.Code != http.StatusBadRequest {
								t.Fatalf("%s: malformed body before pass %d: %d %s", name, pass, rec.Code, rec.Body.String())
							}
							rec := scoreOnce(t, pooled, url, ct, body[0])
							if rec.Code != http.StatusOK {
								t.Fatalf("%s: pass %d: %d %s", name, pass, rec.Code, rec.Body.String())
							}
							if !bytes.Equal(rec.Body.Bytes(), want) {
								t.Fatalf("%s: pass %d differs from the oracle\ngot:  %.300s\nwant: %.300s",
									name, pass, rec.Body.String(), want)
							}
							if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
								t.Fatalf("%s: pass %d: content-type %q", name, pass, ct)
							}
						}
					}
				}
			}
		}
	}
}

// replayBody is a reusable request body (Reset re-arms it without
// allocating).
type replayBody struct{ r bytes.Reader }

func (b *replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayBody) Close() error               { return nil }

// nullResponseWriter discards the response without per-request
// allocation, so AllocsPerRun sees only the server's own work.
type nullResponseWriter struct {
	h http.Header
	n int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestScoreSteadyStateAllocs is the tentpole's regression guard: a
// steady stream of single-record binary batches through the full
// middleware + handler stack must stay within the allocation budget.
// The budget is dominated by net/http plumbing the handler cannot
// avoid (request clone, deadline timer, header writes); the decode,
// score and encode phases themselves run allocation-free.
func TestScoreSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	allocs := steadyScoreAllocs(t, Config{}, diffWindow(t, 1, 9), 200)
	const budget = 24
	if allocs > budget {
		t.Fatalf("score request allocates %v per op, budget %d", allocs, budget)
	}
	t.Logf("steady-state allocs per scored batch-1 request: %v", allocs)
}

// A labeled binary request costs an unlabeled one's allocations plus at
// most one per distinct label: the decoder reuses the arena's label
// slice and shares one string among a label's repeats, where it used to
// allocate a string per row.
func TestScoreLabeledAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	const n = 10000
	src := diffWindow(t, n, 9)
	unlabeled := dataset.New(src.Names, n)
	labeled := dataset.New(src.Names, n)
	for i := 0; i < n; i++ {
		unlabeled.AppendRow(src.RowView(i), "")
		label := "normal"
		if i%17 == 5 {
			label = "outlier"
		}
		labeled.AppendRow(src.RowView(i), label)
	}
	base := steadyScoreAllocs(t, Config{ScoreWorkers: 1}, unlabeled, 40)
	got := steadyScoreAllocs(t, Config{ScoreWorkers: 1}, labeled, 40)
	if got > base+2 {
		t.Errorf("labeled batch-10000 request allocates %v per op, unlabeled %v: want at most 2 more", got, base)
	}
	t.Logf("steady-state allocs per batch-10000 request: unlabeled %v, labeled %v", base, got)
}

// steadyScoreAllocs serves one binary score request for batch through
// the full middleware and handler stack of a server built from cfg,
// warms the pools, and returns the mean allocations over runs
// requests.
func steadyScoreAllocs(t *testing.T, cfg Config, batch *dataset.Dataset, runs int) float64 {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := newTestServer(t, cfg)
	body := batchwire.Encode(batch)

	req := httptest.NewRequest("POST", "/api/v1/score", nil)
	req.Header.Set("Content-Type", batchwire.ContentType)
	req.Header.Set("X-Request-Id", "req-alloc-test")
	rb := &replayBody{}
	w := &nullResponseWriter{h: make(http.Header)}
	h := s.Handler()

	run := func() {
		rb.r.Reset(body)
		req.Body = rb
		h.ServeHTTP(w, req)
	}
	for i := 0; i < runs/4; i++ { // warm the pools
		run()
	}
	return testing.AllocsPerRun(runs, run)
}

// A batch large enough to fan out costs what a one-record batch costs,
// whatever the score worker count: the fan-out allocates nothing per
// request. ScoreWorkers stands in for the GOMAXPROCS that server.New
// reads on hosts of 1 to 8 cores. The rows carry no labels, whose
// strings would cost an allocation each.
func TestScoreFanOutAllocsIndependentOfWorkers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	unlabeled := func(n int) *dataset.Dataset {
		src := diffWindow(t, n, 9)
		ds := dataset.New(src.Names, n)
		for i := 0; i < n; i++ {
			ds.AppendRow(src.RowView(i), "")
		}
		return ds
	}
	batch1 := steadyScoreAllocs(t, Config{ScoreWorkers: 1}, unlabeled(1), 200)
	big := unlabeled(10000)
	base := steadyScoreAllocs(t, Config{ScoreWorkers: 1}, big, 40)
	if base > batch1 {
		t.Errorf("batch-10000 request allocates %v per op, batch-1 %v", base, batch1)
	}
	for _, w := range []int{2, 4, 8} {
		if got := steadyScoreAllocs(t, Config{ScoreWorkers: w}, big, 40); got != base {
			t.Errorf("ScoreWorkers=%d: batch-10000 request allocates %v per op, %v at one worker", w, got, base)
		}
	}
	t.Logf("steady-state allocs per request: batch-1 %v, batch-10000 %v", batch1, base)
}
