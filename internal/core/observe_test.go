package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hido/internal/evo"
	"hido/internal/obs"
)

// countingObserver records every event behind a mutex so restarts and
// islands can hammer it from many goroutines under -race.
type countingObserver struct {
	mu          sync.Mutex
	generations int
	progress    int
	summaries   []obs.SummaryEvent
	runs        map[string]bool
}

func newCountingObserver() *countingObserver {
	return &countingObserver{runs: map[string]bool{}}
}

func (c *countingObserver) OnGeneration(e obs.GenerationEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generations++
	c.runs[e.Run] = true
}

func (c *countingObserver) OnProgress(e obs.ProgressEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.progress++
	c.runs[e.Run] = true
}

func (c *countingObserver) OnDone(e obs.SummaryEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.summaries = append(c.summaries, e)
	c.runs[e.Run] = true
}

func (c *countingObserver) summaryFor(run string) (obs.SummaryEvent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.summaries {
		if s.Run == run {
			return s, true
		}
	}
	return obs.SummaryEvent{}, false
}

// An attached observer must be invisible in the Result at every
// worker count: same projections, outliers, and telemetry as the
// nil-observer run.
func TestObserverDoesNotPerturbEvolutionary(t *testing.T) {
	ds := plantedDataset(300, 8, 40)
	det := NewDetector(ds, 4)
	base := EvoOptions{K: 3, M: 8, Seed: 7, MaxGenerations: 25, Patience: -1}

	ref, err := det.Evolutionary(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		o := base
		o.Workers = workers
		co := newCountingObserver()
		o.Observer = co
		got, err := det.Evolutionary(o)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("evo+observer/w%d", workers), ref, got)
		if co.generations != got.Generations {
			t.Errorf("w%d: %d generation events for %d generations", workers, co.generations, got.Generations)
		}
		sum, ok := co.summaryFor("evo")
		if !ok {
			t.Fatalf("w%d: no summary event for run %q", workers, "evo")
		}
		if sum.Algo != "evo" || sum.Evaluations != got.Evaluations ||
			sum.Projections != len(got.Projections) {
			t.Errorf("w%d: summary %+v disagrees with result", workers, sum)
		}
	}
}

func TestObserverDoesNotPerturbBruteForce(t *testing.T) {
	ds := plantedDataset(350, 9, 45)
	det := NewDetector(ds, 4)
	base := BruteForceOptions{K: 3, M: 12}

	ref, err := det.BruteForce(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		o := base
		o.Workers = workers
		co := newCountingObserver()
		o.Observer = co
		o.ProgressInterval = time.Millisecond
		got, err := det.BruteForce(o)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("brute+observer/w%d", workers), ref, got)
		// The post-drain progress event always fires and must agree
		// with the final counters.
		if co.progress == 0 {
			t.Fatalf("w%d: no progress events", workers)
		}
		sum, ok := co.summaryFor("brute")
		if !ok {
			t.Fatalf("w%d: no summary event for run %q", workers, "brute")
		}
		if sum.Algo != "brute" || sum.Evaluations != got.Evaluations || sum.Pruned != got.Pruned {
			t.Errorf("w%d: summary %+v disagrees with result", workers, sum)
		}
	}
}

// Restarts and islands deliver every run's events into ONE shared
// observer, and the results must still match the unobserved baseline.
func TestObserverSharedAcrossRestartsAndIslands(t *testing.T) {
	ds := plantedDataset(250, 7, 41)
	det := NewDetector(ds, 4)

	evoBase := EvoOptions{K: 2, M: 6, Seed: 11, MaxGenerations: 20, Patience: -1, Workers: 8}
	refR, err := det.EvolutionaryRestarts(evoBase, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := evoBase
	co := newCountingObserver()
	o.Observer = co
	gotR, err := det.EvolutionaryRestarts(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "restarts+observer", refR, gotR)
	for r := 0; r < 4; r++ {
		run := fmt.Sprintf("evo.r%d", r)
		if !co.runs[run] {
			t.Errorf("restarts: no events for derived run %q", run)
		}
		if _, ok := co.summaryFor(run); !ok {
			t.Errorf("restarts: no summary for %q", run)
		}
	}
	if sum, ok := co.summaryFor("evo"); !ok {
		t.Error("restarts: aggregate summary missing")
	} else if sum.Algo != "evo-restarts" || sum.Evaluations != gotR.Evaluations {
		t.Errorf("restarts: aggregate summary %+v disagrees with merged result", sum)
	}

	islBase := IslandOptions{
		Evo:     EvoOptions{K: 2, M: 6, Seed: 13, MaxGenerations: 15, Patience: -1, PopSize: 30, Workers: 8},
		Islands: 3,
	}
	refI, err := det.EvolutionaryIslands(islBase)
	if err != nil {
		t.Fatal(err)
	}
	oi := islBase
	ci := newCountingObserver()
	oi.Evo.Observer = ci
	gotI, err := det.EvolutionaryIslands(oi)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "islands+observer", refI, gotI)
	for i := 0; i < 3; i++ {
		run := fmt.Sprintf("evo.i%d", i)
		if !ci.runs[run] {
			t.Errorf("islands: no generation events for island run %q", run)
		}
	}
	if sum, ok := ci.summaryFor("evo"); !ok {
		t.Error("islands: final summary missing")
	} else if sum.Algo != "evo-islands" {
		t.Errorf("islands: summary algo %q", sum.Algo)
	}
}

// orderObserver records the event sequence: each generation event's
// run, generation and evaluations, and each summary's run, algorithm,
// evaluations and generations.
type orderObserver struct {
	mu     sync.Mutex
	events []string
}

func (o *orderObserver) OnGeneration(e obs.GenerationEvent) {
	o.add(fmt.Sprintf("gen %s %d %d", e.Run, e.Gen, e.Evaluations))
}

func (o *orderObserver) OnProgress(obs.ProgressEvent) {}

func (o *orderObserver) OnDone(e obs.SummaryEvent) {
	o.add(fmt.Sprintf("done %s %s %d %d", e.Run, e.Algo, e.Evaluations, e.Generations))
}

func (o *orderObserver) add(ev string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, ev)
}

// Restarts and islands send their events from the calling goroutine in
// run order each generation, so the whole sequence — not only each
// run's own — is the same at every worker count.
func TestObserverOrderAcrossWorkers(t *testing.T) {
	det := NewDetector(plantedDataset(250, 7, 41), 4)
	searches := map[string]func(workers int, o obs.Observer) error{
		"restarts": func(workers int, o obs.Observer) error {
			_, err := det.EvolutionaryRestarts(EvoOptions{K: 2, M: 6, Seed: 11, MaxGenerations: 30,
				Patience: 8, Workers: workers, Observer: o}, 4)
			return err
		},
		"islands": func(workers int, o obs.Observer) error {
			_, err := det.EvolutionaryIslands(IslandOptions{Evo: EvoOptions{K: 2, M: 6, Seed: 13,
				MaxGenerations: 25, PopSize: 30, Workers: workers, Observer: o}, Islands: 3, MigrateEvery: 4})
			return err
		},
	}
	for name, search := range searches {
		var ref []string
		for _, workers := range []int{1, 2, 8} {
			o := &orderObserver{}
			if err := search(workers, o); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = o.events
				continue
			}
			if !reflect.DeepEqual(o.events, ref) {
				for i := range min(len(ref), len(o.events)) {
					if o.events[i] != ref[i] {
						t.Fatalf("%s workers=%d: event %d is %q, at one worker %q", name, workers, i, o.events[i], ref[i])
					}
				}
				t.Fatalf("%s workers=%d: %d events, at one worker %d", name, workers, len(o.events), len(ref))
			}
		}
	}
}

// BenchmarkEvolutionaryObserver backs the EXPERIMENTS.md
// observer-overhead table (d=20, k=4, φ=10): the attached and
// trace-to-file variants must stay within a few percent of the nil
// run.
func BenchmarkEvolutionaryObserver(b *testing.B) {
	ds := plantedDataset(800, 20, 47)
	det := NewDetector(ds, 10)
	base := EvoOptions{K: 4, M: 10, Seed: 5, MaxGenerations: 30, Patience: -1}

	run := func(b *testing.B, o obs.Observer) {
		opt := base
		opt.Observer = o
		for i := 0; i < b.N; i++ {
			if _, err := det.Evolutionary(opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("attached", func(b *testing.B) { run(b, newCountingObserver()) })
	b.Run("trace", func(b *testing.B) {
		f, err := os.Create(filepath.Join(b.TempDir(), "trace.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		run(b, obs.NewTracer(f).Observer())
	})
}

// BenchmarkBruteForceObserver measures the heartbeat observer's cost
// on the reference brute-force space (d=20, k=4, φ=10): the attached
// run must stay within 5% of the nil run (EXPERIMENTS.md).
func BenchmarkBruteForceObserver(b *testing.B) {
	ds := plantedDataset(800, 20, 47)
	det := NewDetector(ds, 10)
	base := BruteForceOptions{K: 4, M: 10, Workers: -1}

	run := func(b *testing.B, o obs.Observer) {
		opt := base
		opt.Observer = o
		opt.ProgressInterval = 250 * time.Millisecond
		for i := 0; i < b.N; i++ {
			if _, err := det.BruteForce(opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("heartbeat", func(b *testing.B) { run(b, newCountingObserver()) })
}

// The nil-observer contract: every emission helper returns before
// building any payload, so an unobserved search allocates nothing for
// observability on its hot path.
func TestNilObserverZeroAlloc(t *testing.T) {
	ds := plantedDataset(100, 5, 46)
	det := NewDetector(ds, 4)
	opt := EvoOptions{K: 2, M: 4, Seed: 3}.withDefaults()
	s := newSearch(det.Source(), opt)
	pop := evo.NewPopulation(opt.PopSize, det.D())
	for i := range pop.Members {
		s.randomGenome(pop.Members[i])
	}
	if n := testing.AllocsPerRun(100, func() { s.notifyGeneration(pop, 1, 0) }); n != 0 {
		t.Errorf("notifyGeneration with nil observer: %v allocs/run", n)
	}

	res := &Result{Evaluations: 10}
	if n := testing.AllocsPerRun(100, func() { notifySummary(nil, "evo", "evo", res, false) }); n != 0 {
		t.Errorf("notifySummary with nil observer: %v allocs/run", n)
	}

	sh := &bfShared{opt: BruteForceOptions{}}
	start := time.Now()
	if n := testing.AllocsPerRun(100, func() { sh.notifyProgress(start) }); n != 0 {
		t.Errorf("notifyProgress with nil observer: %v allocs/run", n)
	}
}
