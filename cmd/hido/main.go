// Command hido detects outliers in a CSV file by mining abnormally
// sparse low-dimensional projections (Aggarwal & Yu, SIGMOD 2001).
//
// Usage:
//
//	hido -in data.csv [-header] [-label -1] [-phi 8] [-k 0] [-s -3]
//	     [-m 20] [-algo evo|brute|sampled] [-crossover optimized|twopoint]
//	     [-restarts 1] [-islands 0] [-workers 1] [-samples 512]
//	     [-ensemble] [-members 10] [-bag 0] [-combiner rank|zscore|max]
//	     [-filter 0] [-minimal] [-baseline knn|lof|db|dod]
//	     [-checkpoint file] [-resume file] [-json]
//	     [-seed 1] [-top 10] [-explain]
//
// With -k 0 the projection dimensionality is chosen by the paper's
// §2.4 advisor from the target sparsity coefficient -s. The output
// lists the m sparsest projections and the records they cover (the
// outliers), optionally with per-record explanations; -algo sampled
// instead ranks every record by subspace-sampled sparsity scores.
// With -ensemble, -members independent searches (evo or brute) run
// over sampled feature bags and every record is ranked by the
// combined per-member evidence — deterministic per seed at any
// worker count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"hido/internal/baseline/dbout"
	"hido/internal/baseline/dod"
	"hido/internal/baseline/knnout"
	"hido/internal/baseline/lof"
	"hido/internal/core"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/ensemble"
	"hido/internal/obs"
)

func main() {
	var (
		in        = flag.String("in", "", "input CSV file (required)")
		header    = flag.Bool("header", true, "first CSV row is a header")
		labelCol  = flag.Int("label", -1, "column index holding class labels, -1 for none")
		phi       = flag.Int("phi", 8, "grid ranges per attribute")
		k         = flag.Int("k", 0, "projection dimensionality (0 = advise from -s)")
		s         = flag.Float64("s", -3, "target sparsity coefficient for the advisor")
		m         = flag.Int("m", 20, "number of sparse projections to mine")
		algo      = flag.String("algo", "evo", "search algorithm: evo, brute or sampled")
		crossover = flag.String("crossover", "optimized", "evo crossover: optimized or twopoint")
		seed      = flag.Uint64("seed", 1, "random seed for the evolutionary search")
		top       = flag.Int("top", 10, "how many outliers to print")
		explain   = flag.Bool("explain", false, "print covering projections per outlier")
		equiwidth = flag.Bool("equiwidth", false, "use equi-width ranges instead of equi-depth")
		budget    = flag.Duration("budget", time.Minute, "brute-force time budget")
		restarts  = flag.Int("restarts", 1, "evo: independent runs to union (at least 1; not with -islands)")
		islands   = flag.Int("islands", 0, "evo: island-model populations (0 = single population; not with -restarts)")
		workers   = flag.Int("workers", 1, "parallel workers for brute and evo searches (0 = all CPUs)")
		minimal   = flag.Bool("minimal", false, "reduce explanations to minimal sub-cubes")
		filter    = flag.Float64("filter", 0, "keep only projections with sparsity <= this (0 = keep all)")
		baseline  = flag.String("baseline", "", "also run a baseline for comparison: knn, lof, db or dod")
		ensFlag   = flag.Bool("ensemble", false, "run a subspace ensemble: -members searches over sampled feature bags, scores combined per record")
		members   = flag.Int("members", 10, "ensemble: number of member searches")
		bag       = flag.Int("bag", 0, "ensemble: feature-bag size per member (0 = (D+1)/2)")
		combiner  = flag.String("combiner", "rank", "ensemble: evidence combiner, rank, zscore or max")
		samples   = flag.Int("samples", 512, "subspaces for -algo sampled")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of text")
		ckpt      = flag.String("checkpoint", "", "periodically save search progress to this file")
		ckptEvery = flag.Duration("checkpoint-interval", 10*time.Second, "minimum spacing between checkpoint snapshots")
		resume    = flag.String("resume", "", "resume a killed search from this checkpoint file (implies -checkpoint)")
		trace     = flag.String("trace", "", "write JSON-lines search trace events to this file")
		verbose   = flag.Bool("v", false, "print live search progress to stderr")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("hido"))
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		in: *in, header: *header, labelCol: *labelCol, phi: *phi, k: *k,
		s: *s, m: *m, algo: *algo, crossover: *crossover, seed: *seed,
		top: *top, explain: *explain, equiwidth: *equiwidth, budget: *budget,
		restarts: *restarts, islands: *islands, workers: *workers,
		minimal: *minimal, filter: *filter, baseline: *baseline,
		ensemble: *ensFlag, members: *members, bag: *bag, combiner: *combiner,
		samples: *samples, jsonOut: *jsonOut,
		checkpoint: *ckpt, checkpointEvery: *ckptEvery, resume: *resume,
		trace: *trace, verbose: *verbose,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hido: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	in                 string
	header             bool
	labelCol, phi, k   int
	s                  float64
	m                  int
	algo, crossover    string
	seed               uint64
	top                int
	explain, equiwidth bool
	budget             time.Duration
	restarts, islands  int
	workers            int
	minimal            bool
	filter             float64
	baseline           string
	ensemble           bool
	members, bag       int
	combiner           string
	samples            int
	jsonOut            bool
	checkpoint         string
	checkpointEvery    time.Duration
	resume             string
	trace              string
	verbose            bool
}

// checkpointOptions resolves the -checkpoint/-resume flags into core
// options, or nil when neither is set. -resume implies checkpointing
// to the same file, so a twice-killed search keeps its progress.
func checkpointOptions(cfg config) (*core.CheckpointOptions, error) {
	if cfg.checkpoint == "" && cfg.resume == "" {
		return nil, nil
	}
	if cfg.resume != "" && cfg.checkpoint != "" && cfg.resume != cfg.checkpoint {
		return nil, fmt.Errorf("-checkpoint %s and -resume %s name different files", cfg.checkpoint, cfg.resume)
	}
	switch {
	case cfg.algo == "sampled":
		return nil, fmt.Errorf("-checkpoint/-resume are not supported with -algo sampled")
	case cfg.restarts > 1:
		return nil, fmt.Errorf("-checkpoint/-resume are not supported with -restarts (each restart is its own search)")
	case cfg.islands > 0:
		return nil, fmt.Errorf("-checkpoint/-resume are not supported with -islands")
	}
	opt := &core.CheckpointOptions{Path: cfg.checkpoint, Interval: cfg.checkpointEvery}
	if cfg.resume != "" {
		opt.Path = cfg.resume
		opt.Resume = true
	}
	return opt, nil
}

// buildObserver assembles the CLI's observer stack: a JSON-lines
// tracer when -trace names a file, compact stderr progress lines under
// -v, nil when neither is requested (the zero-cost default). The
// returned closer flushes the trace file and reports any write error.
func buildObserver(cfg config) (obs.Observer, func() error, error) {
	var tracer *obs.Tracer
	var sinks []obs.Observer
	closer := func() error { return nil }
	if cfg.trace != "" {
		f, err := os.Create(cfg.trace)
		if err != nil {
			return nil, nil, err
		}
		tracer = obs.NewTracer(f)
		sinks = append(sinks, tracer.Observer())
		closer = func() error {
			if err := tracer.Err(); err != nil {
				f.Close()
				return fmt.Errorf("trace write failed: %w", err)
			}
			return f.Close()
		}
	}
	if cfg.verbose {
		sinks = append(sinks, obs.NewLogObserver(os.Stderr))
	}
	return obs.Multi(sinks...), closer, nil
}

func run(cfg config) error {
	in, header, labelCol := cfg.in, cfg.header, cfg.labelCol
	phi, k, s, m := cfg.phi, cfg.k, cfg.s, cfg.m
	algo, crossover, seed := cfg.algo, cfg.crossover, cfg.seed
	top, explain, equiwidth, budget := cfg.top, cfg.explain, cfg.equiwidth, cfg.budget
	if err := discretize.CheckPhi(phi); err != nil {
		return fmt.Errorf("-phi: %w", err)
	}
	switch {
	case cfg.restarts < 1:
		return fmt.Errorf("-restarts %d: need at least 1 run", cfg.restarts)
	case cfg.islands < 0:
		return fmt.Errorf("-islands %d: need 0 (one population) or more", cfg.islands)
	case cfg.restarts > 1 && cfg.islands > 0:
		return fmt.Errorf("-restarts %d with -islands %d: choose one", cfg.restarts, cfg.islands)
	}

	ds, err := dataset.ReadCSVFile(in, dataset.ReadCSVOptions{
		Header: header, LabelColumn: labelCol,
	})
	if err != nil {
		return err
	}
	clean, kept := ds.DropConstantColumns()
	if len(kept) < ds.D() && !cfg.jsonOut {
		fmt.Printf("dropped %d constant column(s)\n", ds.D()-len(kept))
	}
	ds = clean
	if !cfg.jsonOut {
		fmt.Println(ds.Describe())
	}

	method := discretize.EquiDepth
	if equiwidth {
		method = discretize.EquiWidth
	}
	det := core.NewDetectorMethod(ds, phi, method)

	if k <= 0 {
		advice := det.Advise(s)
		k = advice.K
		if !cfg.jsonOut {
			fmt.Printf("advised parameters (s=%.1f): %s\n", s, advice)
		}
	}

	var kind core.CrossoverKind
	switch crossover {
	case "optimized":
		kind = core.OptimizedCrossover
	case "twopoint":
		kind = core.TwoPointCrossover
	default:
		return fmt.Errorf("unknown crossover %q", crossover)
	}

	ckptOpt, err := checkpointOptions(cfg)
	if err != nil {
		return err
	}

	if algo == "sampled" {
		if cfg.ensemble {
			return fmt.Errorf("-ensemble supports -algo evo or brute, not sampled")
		}
		return runSampled(cfg, ds, det, k)
	}

	observer, closeTrace, err := buildObserver(cfg)
	if err != nil {
		return err
	}

	if cfg.ensemble {
		if ckptOpt != nil {
			return fmt.Errorf("-checkpoint/-resume are not supported with -ensemble")
		}
		if err := runEnsemble(cfg, ds, det, k, observer); err != nil {
			return err
		}
		return closeTrace()
	}

	var res *core.Result
	switch algo {
	case "brute":
		// The CLI's 0 means "all CPUs" (matching evo); BruteForceOptions
		// encodes that as a negative worker count.
		bruteWorkers := cfg.workers
		if bruteWorkers == 0 {
			bruteWorkers = -1
		}
		res, err = det.BruteForce(core.BruteForceOptions{
			K: k, M: m, MaxDuration: budget, Workers: bruteWorkers, Observer: observer,
			Checkpoint: ckptOpt})
		if errors.Is(err, core.ErrBudgetExceeded) {
			fmt.Fprintf(os.Stderr, "warning: brute force hit the %s budget; results are partial\n", budget)
			if ckptOpt != nil {
				fmt.Fprintf(os.Stderr, "resume with: -resume %s\n", ckptOpt.Path)
			}
			err = nil
		}
	case "evo":
		// The CLI's 0 means "all CPUs" (matching brute); EvoOptions
		// encodes that as a negative worker count.
		evoWorkers := cfg.workers
		if evoWorkers == 0 {
			evoWorkers = -1
		}
		opt := core.EvoOptions{K: k, M: m, Seed: seed, Crossover: kind, Workers: evoWorkers,
			Observer: observer, Checkpoint: ckptOpt}
		switch {
		case cfg.islands > 0:
			res, err = det.EvolutionaryIslands(core.IslandOptions{Evo: opt, Islands: cfg.islands})
		case cfg.restarts > 1:
			res, err = det.EvolutionaryRestarts(opt, cfg.restarts)
		default:
			res, err = det.Evolutionary(opt)
		}
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		return err
	}
	if err := closeTrace(); err != nil {
		return err
	}
	if cfg.filter != 0 {
		res = res.FilterProjections(det, cfg.filter)
		if !cfg.jsonOut {
			fmt.Printf("kept %d projections with S <= %.2f\n", len(res.Projections), cfg.filter)
		}
	}
	if cfg.jsonOut {
		return res.WriteJSON(os.Stdout, det)
	}

	fmt.Printf("\nsearch: %d evaluations, %d generations, %s\n",
		res.Evaluations, res.Generations, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("mean quality of best %d projections: %.3f\n\n", len(res.Projections), res.Quality())

	fmt.Println("sparsest projections:")
	for i, p := range res.Projections {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(res.Projections)-10)
			break
		}
		fmt.Printf("  %2d. %s\n", i+1, p.Describe(det))
	}

	ranked := res.RankedOutliers(det)
	fmt.Printf("\noutliers (%d covered, showing %d):\n", len(ranked), min(top, len(ranked)))
	for i, rec := range ranked {
		if i >= top {
			break
		}
		label := ""
		if l := ds.Label(rec); l != "" {
			label = fmt.Sprintf("  label=%s", l)
		}
		fmt.Printf("  record %5d  score=%.3f%s\n", rec, res.Score(det, rec), label)
		switch {
		case cfg.minimal:
			threshold := cfg.filter
			if threshold == 0 {
				threshold = res.Score(det, rec)
			}
			for _, e := range res.MinimalExplanations(det, rec, threshold) {
				fmt.Printf("      minimal: %s\n", e.Describe(det))
			}
		case explain:
			for _, pi := range res.CoveringProjections(det, rec) {
				fmt.Printf("      via %s\n", res.Projections[pi].Describe(det))
			}
		}
	}

	if cfg.baseline != "" {
		if err := runBaseline(cfg.baseline, ds, res, det, top, cfg.workers); err != nil {
			return err
		}
	}
	return nil
}

// runEnsemble fits a subspace ensemble — cfg.members independent
// searches over sampled feature bags — and prints the per-record
// combined ranking. Scores are bit-identical per seed at any worker
// count.
func runEnsemble(cfg config, ds *dataset.Dataset, det *core.Detector, k int, observer obs.Observer) error {
	algo, err := ensemble.ParseAlgo(cfg.algo)
	if err != nil {
		return err
	}
	comb, err := ensemble.ParseCombiner(cfg.combiner)
	if err != nil {
		return err
	}
	workers := cfg.workers
	if workers == 0 {
		workers = -1
	}
	res, err := ensemble.Fit(det, ensemble.Options{
		Members: cfg.members, BagSize: cfg.bag, Algo: algo, K: k, M: cfg.m,
		Combiner: comb, Workers: workers, Seed: cfg.seed, Observer: observer,
	})
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		return writeEnsembleJSON(os.Stdout, res, comb)
	}

	bagSize := 0
	if len(res.Members) > 0 {
		bagSize = len(res.Members[0].Dims)
	}
	fmt.Printf("\nensemble: %d members (algo=%s, bag=%d/%d dims, combiner=%s), %d evaluations, %s\n",
		len(res.Members), algo, bagSize, ds.D(), comb,
		res.Evaluations, res.Elapsed.Round(time.Millisecond))

	ranked := res.Ranked()
	cells := make([]uint16, det.D())
	fmt.Printf("\ntop records by combined score:\n")
	for rank, i := range ranked {
		if rank == cfg.top {
			break
		}
		votes := 0
		for r := range res.Members {
			if res.Evidence[r][i] > 0 {
				votes++
			}
		}
		label := ""
		if l := ds.Label(i); l != "" {
			label = "  label=" + l
		}
		fmt.Printf("  %2d. record %5d  score=%.3f  members=%d/%d%s\n",
			rank+1, i, res.Combined[i], votes, len(res.Members), label)
		if cfg.explain {
			det.Grid.AssignRowInto(det.Data.RowView(i), cells)
			for r, mem := range res.Members {
				if res.Evidence[r][i] == 0 {
					continue
				}
				best := -1
				for pi, p := range mem.Projections {
					if p.Cube.Covers(cells) && (best < 0 || p.Sparsity < mem.Projections[best].Sparsity) {
						best = pi
					}
				}
				if best >= 0 {
					fmt.Printf("      member %2d via %s\n", r, mem.Projections[best].Describe(det))
				}
			}
		}
	}
	return nil
}

// writeEnsembleJSON emits the machine-readable ensemble result: the
// combined scores plus each member's bag, seed and projection count.
func writeEnsembleJSON(w io.Writer, res *ensemble.Result, comb ensemble.Combiner) error {
	type memberJSON struct {
		Dims        []int  `json:"dims"`
		Seed        uint64 `json:"seed"`
		Projections int    `json:"projections"`
		Evaluations int    `json:"evaluations"`
	}
	out := struct {
		Combiner    string       `json:"combiner"`
		Members     []memberJSON `json:"members"`
		Combined    []float64    `json:"combined"`
		Ranked      []int        `json:"ranked"`
		Evaluations int          `json:"evaluations"`
	}{
		Combiner: comb.String(), Combined: res.Combined,
		Ranked: res.Ranked(), Evaluations: res.Evaluations,
	}
	for _, m := range res.Members {
		out.Members = append(out.Members, memberJSON{
			Dims: m.Dims, Seed: m.Seed, Projections: len(m.Projections), Evaluations: m.Evaluations,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runSampled ranks every record by subspace-sampled sparsity and
// prints the top of the ranking — the continuous-score view of the
// detector, comparable record-for-record with the distance baselines.
func runSampled(cfg config, ds *dataset.Dataset, det *core.Detector, k int) error {
	sc, err := det.SampleScores(core.SampledScoreOptions{
		K: k, Samples: cfg.samples, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nsampled %d subspaces at k=%d; ranking all %d records by tail score\n",
		sc.Subspaces, k, ds.N())
	idx := make([]int, ds.N())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := sc.TailMean[idx[a]], sc.TailMean[idx[b]]
		switch {
		case math.IsNaN(sa):
			return false
		case math.IsNaN(sb):
			return true
		default:
			return sa < sb
		}
	})
	for rank, i := range idx {
		if rank == cfg.top {
			break
		}
		label := ""
		if l := ds.Label(i); l != "" {
			label = "  label=" + l
		}
		fmt.Printf("  %2d. record %5d  tail=%.3f  min=%.3f%s\n",
			rank+1, i, sc.TailMean[i], sc.Min[i], label)
	}
	return nil
}

// runBaseline executes a full-dimensional baseline at the projection
// method's outlier budget and reports the overlap.
func runBaseline(name string, ds *dataset.Dataset, res *core.Result, det *core.Detector, top, workers int) error {
	n := len(res.Outliers)
	if n == 0 {
		fmt.Println("\nbaseline skipped: projection method covered no records")
		return nil
	}
	full := ds.ImputeMissing(dataset.ImputeMean).Standardize()
	var idx []int
	switch name {
	case "knn":
		out, err := knnout.TopN(full, knnout.Options{K: 5, N: n})
		if err != nil {
			return err
		}
		for _, o := range out {
			idx = append(idx, o.Index)
		}
	case "lof":
		out, err := lof.Compute(full, lof.Options{K: 10})
		if err != nil {
			return err
		}
		idx = out.TopN(n)
	case "db":
		// λ at the median 5-NN distance makes roughly half the points
		// borderline; report what the definition yields there.
		scores, err := knnout.ScoresParallel(full, 5, 0, workers)
		if err != nil {
			return err
		}
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		lambda := sorted[len(sorted)/2]
		idx, err = dbout.NestedLoop(full, dbout.Options{K: 5, Lambda: lambda})
		if err != nil {
			return err
		}
		fmt.Printf("\nDB(k=5, λ=%.3f [median 5-NN distance])\n", lambda)
	case "dod":
		scores, err := dod.Scores(full, dod.Options{K: 10})
		if err != nil {
			return err
		}
		order := make([]int, len(scores))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
		idx = order[:n]
	default:
		return fmt.Errorf("unknown baseline %q (want knn, lof, db or dod)", name)
	}
	inProj := map[int]bool{}
	for _, i := range res.Outliers {
		inProj[i] = true
	}
	overlap := 0
	for _, i := range idx {
		if inProj[i] {
			overlap++
		}
	}
	fmt.Printf("\nbaseline %s: %d outliers, %d shared with the projection method\n",
		name, len(idx), overlap)
	shown := 0
	for _, i := range idx {
		if shown == top {
			break
		}
		shown++
		marker := " "
		if inProj[i] {
			marker = "*"
		}
		label := ""
		if l := ds.Label(i); l != "" {
			label = "  label=" + l
		}
		fmt.Printf("  %s record %5d%s\n", marker, i, label)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
