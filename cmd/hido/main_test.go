package main

import (
	"path/filepath"
	"testing"
	"time"

	"hido/internal/synth"
)

// writeFixture generates a small housing CSV for the CLI to consume.
func writeFixture(t *testing.T) string {
	t.Helper()
	ds := synth.Housing(1)
	path := filepath.Join(t.TempDir(), "housing.csv")
	if err := ds.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseConfig(path string) config {
	return config{
		in: path, header: true, labelCol: 13, phi: 3, k: 3, s: -3, m: 10,
		algo: "evo", crossover: "optimized", seed: 1, top: 3,
		budget: time.Minute, restarts: 1, workers: 1,
	}
}

func TestRunEvo(t *testing.T) {
	cfg := baseConfig(writeFixture(t))
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunBruteParallel(t *testing.T) {
	cfg := baseConfig(writeFixture(t))
	cfg.algo = "brute"
	cfg.workers = 2
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunAdvisedK(t *testing.T) {
	cfg := baseConfig(writeFixture(t))
	cfg.k = 0 // use the advisor
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunVariants(t *testing.T) {
	for name, mod := range map[string]func(*config){
		"twopoint":  func(c *config) { c.crossover = "twopoint" },
		"equiwidth": func(c *config) { c.equiwidth = true },
		"restarts":  func(c *config) { c.restarts = 2 },
		"islands":   func(c *config) { c.islands = 2 },
		"minimal":   func(c *config) { c.minimal = true; c.filter = -4 },
		"explain":   func(c *config) { c.explain = true },
		"base-knn":  func(c *config) { c.baseline = "knn" },
		"base-lof":  func(c *config) { c.baseline = "lof" },
		"base-db":   func(c *config) { c.baseline = "db" },
		"base-dod":  func(c *config) { c.baseline = "dod" },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(writeFixture(t))
			mod(&cfg)
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFixture(t)
	for name, mod := range map[string]func(*config){
		"bad algo":      func(c *config) { c.algo = "nope" },
		"bad crossover": func(c *config) { c.crossover = "nope" },
		"bad baseline":  func(c *config) { c.baseline = "nope" },
		"missing file":  func(c *config) { c.in = filepath.Join(t.TempDir(), "absent.csv") },
		// Out-of-range φ is an error, not a panic in the discretizer.
		"phi 1":     func(c *config) { c.phi = 1 },
		"phi 65536": func(c *config) { c.phi = 65536 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(path)
			mod(&cfg)
			if err := run(cfg); err == nil {
				t.Error("no error")
			}
		})
	}
}

func TestRunSampled(t *testing.T) {
	cfg := baseConfig(writeFixture(t))
	cfg.algo = "sampled"
	cfg.samples = 64
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	cfg := baseConfig(writeFixture(t))
	cfg.jsonOut = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunEnsemble(t *testing.T) {
	for name, mod := range map[string]func(*config){
		"evo-rank":   func(c *config) { c.algo = "evo"; c.combiner = "rank" },
		"brute-max":  func(c *config) { c.algo = "brute"; c.combiner = "max"; c.bag = 5 },
		"zscore":     func(c *config) { c.combiner = "zscore" },
		"explain":    func(c *config) { c.explain = true },
		"json":       func(c *config) { c.jsonOut = true },
		"allworkers": func(c *config) { c.workers = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(writeFixture(t))
			cfg.ensemble = true
			cfg.members = 4
			cfg.combiner = "rank"
			mod(&cfg)
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunEnsembleErrors(t *testing.T) {
	path := writeFixture(t)
	for name, mod := range map[string]func(*config){
		"sampled":      func(c *config) { c.algo = "sampled" },
		"bad combiner": func(c *config) { c.combiner = "median" },
		"checkpoint":   func(c *config) { c.checkpoint = filepath.Join(t.TempDir(), "x.ckpt") },
		"bad members":  func(c *config) { c.members = -2 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(path)
			cfg.ensemble = true
			cfg.members = 4
			cfg.combiner = "rank"
			mod(&cfg)
			if err := run(cfg); err == nil {
				t.Error("no error")
			}
		})
	}
}

func TestCheckpointOptions(t *testing.T) {
	base := baseConfig("in.csv")
	if opt, err := checkpointOptions(base); opt != nil || err != nil {
		t.Fatalf("no flags: %v %v", opt, err)
	}

	ck := base
	ck.checkpoint, ck.checkpointEvery = "s.ckpt", 5*time.Second
	opt, err := checkpointOptions(ck)
	if err != nil || opt.Path != "s.ckpt" || opt.Resume || opt.Interval != 5*time.Second {
		t.Fatalf("-checkpoint: %+v %v", opt, err)
	}

	rs := base
	rs.resume = "s.ckpt"
	opt, err = checkpointOptions(rs)
	if err != nil || opt.Path != "s.ckpt" || !opt.Resume {
		t.Fatalf("-resume: %+v %v", opt, err)
	}

	// -resume implies -checkpoint to the same file; naming both with
	// the same path is fine, different paths is a contradiction.
	both := ck
	both.resume = ck.checkpoint
	if _, err := checkpointOptions(both); err != nil {
		t.Errorf("matching -checkpoint/-resume rejected: %v", err)
	}
	both.resume = "other.ckpt"
	if _, err := checkpointOptions(both); err == nil {
		t.Error("conflicting -checkpoint/-resume accepted")
	}

	for name, mod := range map[string]func(*config){
		"sampled":  func(c *config) { c.algo = "sampled" },
		"restarts": func(c *config) { c.restarts = 2 },
		"islands":  func(c *config) { c.islands = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := ck
			mod(&cfg)
			if _, err := checkpointOptions(cfg); err == nil {
				t.Error("unsupported combination accepted")
			}
		})
	}
}

// The CLI end of checkpoint/resume: a budget-killed brute search
// resumed through run() completes without error.
func TestRunCheckpointResume(t *testing.T) {
	path := writeFixture(t)
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")

	cfg := baseConfig(path)
	cfg.algo = "brute"
	cfg.checkpoint = ckpt
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	resumed := baseConfig(path)
	resumed.algo = "brute"
	resumed.resume = ckpt
	if err := run(resumed); err != nil {
		t.Fatal(err)
	}
}
