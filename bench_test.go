// Benchmarks regenerating the paper's evaluation (§3): one target per
// table/figure plus ablations. Run everything with
//
//	go test -bench=. -benchmem
//
// Table-1 rows are split per data set and per algorithm so that
// individual comparisons (Brute vs Gen vs Gen°) read directly off the
// benchmark output, mirroring the paper's columns. Absolute times
// differ from the 2001 hardware; the shapes — brute force exploding
// with dimensionality and failing on Musk, the optimized crossover
// beating two-point — are the reproduction targets (EXPERIMENTS.md
// records both).
package hido_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hido/internal/batchwire"
	"hido/internal/bench"
	"hido/internal/cluster"
	"hido/internal/core"
	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/grid"
	"hido/internal/obs"
	"hido/internal/server"
	"hido/internal/stream"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// table1Detector builds the detector for one Table 1 profile.
func table1Detector(b *testing.B, name string) (*core.Detector, synth.Profile) {
	b.Helper()
	p, err := synth.ProfileByName(name)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewDetector(ds, p.Phi), p
}

func benchBrute(b *testing.B, name string) {
	det, p := table1Detector(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.BruteForce(core.BruteForceOptions{K: p.K, M: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEvo(b *testing.B, name string, kind core.CrossoverKind) {
	det, p := table1Detector(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := det.Evolutionary(core.EvoOptions{
			K: p.K, M: 20, Seed: uint64(i + 1), Crossover: kind,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Quality()
	}
}

// --- Table 1: BreastCancer (14) ---

func BenchmarkTable1_BreastCancer_Brute(b *testing.B) { benchBrute(b, "BreastCancer") }
func BenchmarkTable1_BreastCancer_Gen(b *testing.B) {
	benchEvo(b, "BreastCancer", core.TwoPointCrossover)
}
func BenchmarkTable1_BreastCancer_GenOpt(b *testing.B) {
	benchEvo(b, "BreastCancer", core.OptimizedCrossover)
}

// --- Table 1: Ionosphere (34) ---

func BenchmarkTable1_Ionosphere_Brute(b *testing.B) { benchBrute(b, "Ionosphere") }
func BenchmarkTable1_Ionosphere_Gen(b *testing.B) {
	benchEvo(b, "Ionosphere", core.TwoPointCrossover)
}
func BenchmarkTable1_Ionosphere_GenOpt(b *testing.B) {
	benchEvo(b, "Ionosphere", core.OptimizedCrossover)
}

// --- Table 1: Segmentation (19) ---

func BenchmarkTable1_Segmentation_Brute(b *testing.B) { benchBrute(b, "Segmentation") }
func BenchmarkTable1_Segmentation_Gen(b *testing.B) {
	benchEvo(b, "Segmentation", core.TwoPointCrossover)
}
func BenchmarkTable1_Segmentation_GenOpt(b *testing.B) {
	benchEvo(b, "Segmentation", core.OptimizedCrossover)
}

// --- Table 1: Musk (160) — brute force cannot finish (the paper
// reports "-"); its bench runs with a budget and reports how far the
// enumeration got, preserving the phenomenon without hanging CI. ---

func BenchmarkTable1_Musk_BruteBudgeted(b *testing.B) {
	det, p := table1Detector(b, "Musk")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := det.BruteForce(core.BruteForceOptions{
			K: p.K, M: 20, MaxDuration: 2 * time.Second,
		})
		if err == nil {
			b.Fatal("brute force finished Musk inside 2s; the untenability claim needs checking")
		}
		b.ReportMetric(float64(res.Evaluations), "evals-before-budget")
	}
}
func BenchmarkTable1_Musk_Gen(b *testing.B)    { benchEvo(b, "Musk", core.TwoPointCrossover) }
func BenchmarkTable1_Musk_GenOpt(b *testing.B) { benchEvo(b, "Musk", core.OptimizedCrossover) }

// --- Worker pool on the paper's hardest profile: the evolutionary
// search at 1, 2, 4 and GOMAXPROCS workers. ---

func BenchmarkTable1_Musk_GenOptParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, -1} {
		name := fmt.Sprintf("workers-%d", workers)
		if workers == -1 {
			name = "workers-max"
		}
		b.Run(name, func(b *testing.B) {
			det, p := table1Detector(b, "Musk")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := det.Evolutionary(core.EvoOptions{
					K: p.K, M: 20, Seed: uint64(i + 1),
					Crossover: core.OptimizedCrossover,
					Workers:   workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Quality()
			}
		})
	}
}

// --- The fit path the bench gate pins: one stream.NewMonitor fit on
// the Musk profile (d=160) at phi=9 with a fixed search seed, the
// equi-depth discretization it starts with and the bitmap index built
// over that grid. allocs/op is deterministic per seed, so
// bench_baseline.json gates it sharply; so are the search's evaluation
// and generation counts, which it gates exactly. ---

// reportSearchCounts runs one more fit, observed, after the timed loop
// and reports its final summary's Evaluations and Generations. Both
// are fixed by the seed at any GOMAXPROCS, so a change to the search's
// draws moves them even when its allocations hold. The timer is
// stopped first, so the extra fit moves neither ns/op nor allocs/op.
func reportSearchCounts(b *testing.B, fit func(obs.Observer) error) {
	b.Helper()
	b.StopTimer()
	var mu sync.Mutex
	var last obs.SummaryEvent
	done := func(e obs.SummaryEvent) {
		mu.Lock()
		last = e
		mu.Unlock()
	}
	if err := fit(obs.Funcs{Done: done}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(last.Evaluations), "evaluations/op")
	b.ReportMetric(float64(last.Generations), "generations/op")
}

func muskData(b *testing.B) *dataset.Dataset {
	b.Helper()
	p, err := synth.ProfileByName("Musk")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkFit_Musk(b *testing.B) {
	ds := muskData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.NewMonitor(ds, stream.Options{Phi: 9, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	reportSearchCounts(b, func(o obs.Observer) error {
		_, err := stream.NewMonitor(ds, stream.Options{Phi: 9, Seed: 1, Observer: o})
		return err
	})
}

func BenchmarkDiscretize_Musk(b *testing.B) {
	ds := muskData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discretize.Fit(ds, 9, discretize.EquiDepth)
	}
}

// BenchmarkBuild_Musk is the other half of a fit's grid: the bitmap
// index built over one Musk equi-depth grid (φ 9), which is fitted once
// before the timed loop.
func BenchmarkBuild_Musk(b *testing.B) {
	g := discretize.Fit(muskData(b), 9, discretize.EquiDepth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.Build(g)
	}
}

// BenchmarkClusterFit is one distributed fit through the RPC path:
// Segmentation-profile rows split over three loopback storage shards,
// φ 6, one seed. A warm-up fit places the global cuts and builds the
// shard indexes, so each iteration is the steady-state fit: grid push,
// batched count rounds and cover passes. allocs/op, evaluations/op and
// generations/op are gated by bench_baseline.json.
func BenchmarkClusterFit(b *testing.B) {
	p, err := synth.ProfileByName("Segmentation")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	const shards = 3
	var peers []string
	for i := 0; i < shards; i++ {
		var rows []int
		for j := i * ds.N() / shards; j < (i+1)*ds.N()/shards; j++ {
			rows = append(rows, j)
		}
		srv := httptest.NewServer(cluster.NewStorage(ds.SelectRows(rows), nil).Handler())
		b.Cleanup(srv.Close)
		peers = append(peers, srv.URL)
	}
	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Peers: peers})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := cluster.FitOptions{Phi: 6, Seed: 1}
	if _, _, err := co.Fit(ctx, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := co.Fit(ctx, opt); err != nil {
			b.Fatal(err)
		}
	}
	reportSearchCounts(b, func(o obs.Observer) error {
		observed := opt
		observed.Observer = o
		_, _, err := co.Fit(ctx, observed)
		return err
	})
}

// --- Table 1: Machine (8) ---

func BenchmarkTable1_Machine_Brute(b *testing.B) { benchBrute(b, "Machine") }
func BenchmarkTable1_Machine_Gen(b *testing.B) {
	benchEvo(b, "Machine", core.TwoPointCrossover)
}
func BenchmarkTable1_Machine_GenOpt(b *testing.B) {
	benchEvo(b, "Machine", core.OptimizedCrossover)
}

// --- Table 2 + arrhythmia rare-class study (§3.1) ---

func BenchmarkTable2_ClassDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable2(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArrhythmia_RareClassStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunArrhythmia(bench.ArrhythmiaOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.RareFractionProjection(), "proj-rare-%")
		b.ReportMetric(100*res.RareFractionKNN(), "knn-rare-%")
	}
}

// --- Figure 1: subspace visibility demonstration ---

func BenchmarkFigure1_SubspaceVisibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure1(1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.FoundA || !res.FoundB {
			b.Fatal("planted points not found")
		}
	}
}

// --- Housing case study (§3.1) ---

func BenchmarkHousing_CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunHousing(1)
		if err != nil {
			b.Fatal(err)
		}
		covered := 0
		for _, ok := range res.PlantedCovered {
			if ok {
				covered++
			}
		}
		b.ReportMetric(float64(covered), "contrarians-covered")
	}
}

// --- Combinatorial scaling (§3's untenability argument) ---

func BenchmarkScaling_BruteVsEvo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunScaling(bench.ScalingOptions{
			Seed: 1, Dims: []int{8, 16, 24}, BruteBudget: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.BruteEvals), "brute-evals-d24")
		b.ReportMetric(float64(last.EvoEvals), "evo-evals-d24")
	}
}

// --- Ablations (design decisions from DESIGN.md §4) ---

func BenchmarkAblation_CrossoverOptimized(b *testing.B) {
	det, p := table1Detector(b, "Ionosphere")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := det.Evolutionary(core.EvoOptions{
			K: p.K, M: 20, Seed: uint64(i + 1), Crossover: core.OptimizedCrossover,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(-res.Quality(), "neg-quality")
	}
}

func BenchmarkAblation_CrossoverTwoPoint(b *testing.B) {
	det, p := table1Detector(b, "Ionosphere")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := det.Evolutionary(core.EvoOptions{
			K: p.K, M: 20, Seed: uint64(i + 1), Crossover: core.TwoPointCrossover,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(-res.Quality(), "neg-quality")
	}
}

func BenchmarkAblation_EquiDepthVsEquiWidth(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblation(bench.AblationOptions{Seed: 1, Profile: "Machine", BrutePhi: 4})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.GridMethod
	}
}

// --- Distance concentration (§1's thin-shell argument) ---

func BenchmarkShell_DistanceConcentration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunShell(bench.ShellOptions{Seed: 1, Dims: []int{2, 20, 60}, N: 300})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.RelContrast, "rel-contrast-d60")
		b.ReportMetric(last.WindowRel, "lambda-window-d60")
	}
}

// --- Search-topology ablation: single population vs restarts vs islands ---

func BenchmarkAblation_TopologyIslands(b *testing.B) {
	det, p := table1Detector(b, "Ionosphere")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := det.EvolutionaryIslands(core.IslandOptions{
			Evo:     core.EvoOptions{K: p.K, M: 20, Seed: uint64(i + 1), PopSize: 40},
			Islands: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(-res.Quality(), "neg-quality")
	}
}

func BenchmarkAblation_TopologyRestarts(b *testing.B) {
	det, p := table1Detector(b, "Ionosphere")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := det.EvolutionaryRestarts(
			core.EvoOptions{K: p.K, M: 20, Seed: uint64(i + 1), PopSize: 40}, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Projections)), "distinct-projections")
	}
}

// --- Counting backend ablation: bitmap index vs naive scan ---

func BenchmarkAblation_CountBitmap(b *testing.B) {
	det, p := table1Detector(b, "Segmentation")
	c := cubeFor(det, p.K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = det.Index.Count(c)
	}
}

func BenchmarkAblation_CountNaive(b *testing.B) {
	det, p := table1Detector(b, "Segmentation")
	c := cubeFor(det, p.K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = grid.NaiveCount(det.Grid, c)
	}
}

// --- Parallel brute force scaling ---

func BenchmarkBruteForceParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			det, p := table1Detector(b, "Segmentation")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.BruteForce(
					core.BruteForceOptions{K: p.K, M: 20, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cubeFor builds a deterministic k-dimensional probe cube.
func cubeFor(det *core.Detector, k int) cube.Cube {
	c := cube.New(det.D())
	for j := 0; j < k; j++ {
		c[j*2%det.D()] = uint16(j%det.Phi() + 1)
	}
	if c.K() < k { // collision from the stride; fall back to prefix dims
		c = cube.New(det.D())
		for j := 0; j < k; j++ {
			c[j] = 1
		}
	}
	return c
}

// --- Detection quality: full-ranking AUC comparison ---

func BenchmarkQuality_RankingComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunQuality(bench.QualityOptions{Seed: 1, Samples: 256})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "projection-sampled-tail" {
				b.ReportMetric(r.AUC, "tail-AUC")
			}
			if r.Method == "knn-dist[25]" {
				b.ReportMetric(r.AUC, "knn-AUC")
			}
		}
	}
}

// --- Serving: /api/v1/score throughput through the full HTTP stack ---

// benchScoreServer builds a hidod server with one fitted model behind
// a real loopback listener.
func benchScoreServer(b *testing.B) *httptest.Server {
	b.Helper()
	ref, err := synth.Generate(synth.Config{
		Name: "ref", N: 800, D: 8,
		Groups: []synth.Group{{Dims: []int{0, 1, 2}, Noise: 0.03}},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := stream.NewMonitor(ref, stream.Options{Phi: 5, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(server.Config{})
	if err := s.Registry().Set("default", server.Entry{Monitor: mon, FittedAt: time.Now()}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

// benchServerScore drives POST /api/v1/score with JSON-lines batches
// of the given size, reporting per-record throughput alongside
// per-request latency.
func benchServerScore(b *testing.B, batch int) {
	ts := benchScoreServer(b)
	r := xrand.New(3)
	var body bytes.Buffer
	for i := 0; i < batch; i++ {
		f := r.Float64()
		fmt.Fprintf(&body, "[%g,%g,%g,%g,%g,%g,%g,%g]\n",
			f, f, f, r.Float64(), r.Float64(), r.Float64(), r.Float64(), r.Float64())
	}
	payload := body.Bytes()
	url := ts.URL + "/api/v1/score"
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("score: %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkServerScore_Batch1(b *testing.B)     { benchServerScore(b, 1) }
func BenchmarkServerScore_Batch100(b *testing.B)   { benchServerScore(b, 100) }
func BenchmarkServerScore_Batch10000(b *testing.B) { benchServerScore(b, 10000) }

// benchHandlerServer builds the server without a listener: driving
// ServeHTTP directly isolates the serving path (decode, score, encode,
// middleware) from client and kernel socket costs, which is what the
// allocs/op gate cares about. The logger is set above Info so access
// logging is disabled, as a production deployment under load would run.
func benchHandlerServer(b *testing.B) http.Handler {
	b.Helper()
	ref, err := synth.Generate(synth.Config{
		Name: "ref", N: 800, D: 8,
		Groups: []synth.Group{{Dims: []int{0, 1, 2}, Noise: 0.03}},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	mon, err := stream.NewMonitor(ref, stream.Options{Phi: 5, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := server.New(server.Config{Logger: quiet})
	if err := s.Registry().Set("default", server.Entry{Monitor: mon, FittedAt: time.Now()}); err != nil {
		b.Fatal(err)
	}
	return s.Handler()
}

// benchBatchDS builds a deterministic unlabeled scoring batch.
func benchBatchDS(batch int) *dataset.Dataset {
	r := xrand.New(3)
	ds := dataset.New([]string{"a", "b", "c", "d", "e", "f", "g", "h"}, batch)
	for i := 0; i < batch; i++ {
		f := r.Float64()
		ds.AppendRow([]float64{f, f, f, r.Float64(), r.Float64(), r.Float64(), r.Float64(), r.Float64()}, "")
	}
	return ds
}

// replayBody re-arms one request body without allocating.
type replayBody struct{ r bytes.Reader }

func (rb *replayBody) Read(p []byte) (int, error) { return rb.r.Read(p) }
func (rb *replayBody) Close() error               { return nil }

// discardResponseWriter counts the response away so the benchmark
// measures only the server's own allocations.
type discardResponseWriter struct {
	h    http.Header
	n    int
	code int
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *discardResponseWriter) WriteHeader(c int)           { w.code = c }

// benchServerScoreHandler drives POST /api/v1/score through ServeHTTP
// with one body format, reporting allocs/op and records/s. These are
// the series the CI bench-gate compares against bench_baseline.json.
func benchServerScoreHandler(b *testing.B, h http.Handler, contentType string, payload []byte, batch int) {
	req := httptest.NewRequest("POST", "/api/v1/score", nil)
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Request-Id", "bench")
	rb := &replayBody{}
	w := &discardResponseWriter{h: make(http.Header)}
	run := func() {
		rb.r.Reset(payload)
		req.Body = rb
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("score: %d", w.code)
		}
	}
	for i := 0; i < 20; i++ { // warm the arenas and scorer pools
		run()
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkServerScoreHandler(b *testing.B) {
	h := benchHandlerServer(b)
	for _, batch := range []int{1, 100, 10000} {
		ds := benchBatchDS(batch)
		var csvBody bytes.Buffer
		if err := ds.WriteCSV(&csvBody); err != nil {
			b.Fatal(err)
		}
		var jsonBody bytes.Buffer
		for i := 0; i < ds.N(); i++ {
			jsonBody.WriteByte('[')
			for j := 0; j < ds.D(); j++ {
				if j > 0 {
					jsonBody.WriteByte(',')
				}
				fmt.Fprintf(&jsonBody, "%g", ds.At(i, j))
			}
			jsonBody.WriteString("]\n")
		}
		cases := []struct {
			format string
			ct     string
			body   []byte
		}{
			{"csv", "text/csv", csvBody.Bytes()},
			{"json", "application/x-ndjson", jsonBody.Bytes()},
			{"binary", batchwire.ContentType, batchwire.Encode(ds)},
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s_batch%d", c.format, batch), func(b *testing.B) {
				benchServerScoreHandler(b, h, c.ct, c.body, batch)
			})
		}
	}
}

// BenchmarkTracedScoreHandler prices distributed tracing on the same
// serving path the bench gate pins. "off" is the gated configuration
// (no recorder — the nil path must stay free); "sampled" records every
// request's span tree (root + decode/score/encode) into the ring, the
// worst case a production -trace-sample 1 deployment pays. Kept out of
// the CI gate on purpose: the gate pins the untraced series, and this
// one exists to measure the delta, not to freeze it.
func BenchmarkTracedScoreHandler(b *testing.B) {
	build := func(spans *obs.SpanRecorder) http.Handler {
		ref, err := synth.Generate(synth.Config{
			Name: "ref", N: 800, D: 8,
			Groups: []synth.Group{{Dims: []int{0, 1, 2}, Noise: 0.03}},
		}, 1)
		if err != nil {
			b.Fatal(err)
		}
		mon, err := stream.NewMonitor(ref, stream.Options{Phi: 5, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
		s := server.New(server.Config{Logger: quiet, Spans: spans})
		if err := s.Registry().Set("default", server.Entry{Monitor: mon, FittedAt: time.Now()}); err != nil {
			b.Fatal(err)
		}
		return s.Handler()
	}
	modes := []struct {
		name  string
		spans *obs.SpanRecorder
	}{
		{"off", nil},
		{"sampled", obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "bench"})},
	}
	for _, m := range modes {
		h := build(m.spans)
		for _, batch := range []int{1, 100} {
			ds := benchBatchDS(batch)
			body := batchwire.Encode(ds)
			b.Run(fmt.Sprintf("%s_binary_batch%d", m.name, batch), func(b *testing.B) {
				benchServerScoreHandler(b, h, batchwire.ContentType, body, batch)
			})
		}
	}
}
