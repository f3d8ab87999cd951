package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A brute-force run killed mid-enumeration (here: stopped by a
// candidate budget) and resumed from its checkpoint must produce the
// exact Result of an uninterrupted run — projections, outliers,
// Evaluations, Pruned — at every worker count, including worker
// counts different from the interrupted run's.
func TestBruteCheckpointResumeDeterminism(t *testing.T) {
	ds := plantedDataset(300, 7, 60)
	det := NewDetector(ds, 4)
	base := BruteForceOptions{K: 3, M: 8}

	ref, err := det.BruteForce(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Evaluations == 0 || len(ref.Projections) == 0 {
		t.Fatal("reference run degenerate")
	}

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "brute.ckpt")

		// Interrupt partway: the budget plays the role of the kill.
		interrupted := base
		interrupted.Workers = workers
		interrupted.MaxCandidates = uint64(ref.Evaluations) / 3
		interrupted.Checkpoint = &CheckpointOptions{Path: path}
		if _, err := det.BruteForce(interrupted); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("workers=%d: interrupted run: err=%v, want budget stop", workers, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("workers=%d: no checkpoint written: %v", workers, err)
		}

		resumed := base
		resumed.Workers = workers
		resumed.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
		got, err := det.BruteForce(resumed)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		resultsEqual(t, labelW("brute resume", workers), ref, got)

		// A second resume over the now-complete checkpoint is a no-op
		// re-merge and still exact.
		again, err := det.BruteForce(resumed)
		if err != nil {
			t.Fatalf("workers=%d: second resume: %v", workers, err)
		}
		resultsEqual(t, labelW("brute re-resume", workers), ref, again)
	}
}

// An evolutionary run interrupted at a generation boundary and
// resumed must follow the exact trajectory of the uninterrupted run:
// same projections, outliers, Evaluations, and Generations, at every
// worker count.
func TestEvoCheckpointResumeDeterminism(t *testing.T) {
	ds := plantedDataset(300, 8, 61)
	det := NewDetector(ds, 4)
	base := EvoOptions{K: 3, M: 8, Seed: 9, MaxGenerations: 30, Patience: -1}

	ref, err := det.Evolutionary(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Projections) == 0 || ref.Generations != 30 {
		t.Fatalf("reference run degenerate: %d projections, %d generations",
			len(ref.Projections), ref.Generations)
	}

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "evo.ckpt")

		// Interrupt after 7 generations (MaxGenerations plays the role
		// of the kill; it is excluded from the fingerprint exactly so a
		// short run can be continued longer).
		interrupted := base
		interrupted.Workers = workers
		interrupted.MaxGenerations = 7
		interrupted.Checkpoint = &CheckpointOptions{Path: path}
		if _, err := det.Evolutionary(interrupted); err != nil {
			t.Fatalf("workers=%d: interrupted run: %v", workers, err)
		}

		resumed := base
		resumed.Workers = workers
		resumed.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
		got, err := det.Evolutionary(resumed)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		resultsEqual(t, labelW("evo resume", workers), ref, got)
	}
}

// Resuming across worker counts: interrupt at one worker count,
// resume at another, result unchanged.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	ds := plantedDataset(250, 7, 62)
	det := NewDetector(ds, 4)
	base := EvoOptions{K: 3, M: 6, Seed: 11, MaxGenerations: 20, Patience: -1}

	ref, err := det.Evolutionary(base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "evo.ckpt")
	interrupted := base
	interrupted.Workers = 8
	interrupted.MaxGenerations = 5
	interrupted.Checkpoint = &CheckpointOptions{Path: path}
	if _, err := det.Evolutionary(interrupted); err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Workers = 1
	resumed.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
	got, err := det.Evolutionary(resumed)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "evo resume 8→1 workers", ref, got)
}

// A checkpoint written by an incompatible search must be rejected
// loudly, not silently restarted: resuming someone else's progress
// would masquerade as a complete run.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	ds := plantedDataset(200, 6, 63)
	det := NewDetector(ds, 4)
	path := filepath.Join(t.TempDir(), "search.ckpt")

	evoOpt := EvoOptions{K: 3, M: 6, Seed: 5, MaxGenerations: 3, Patience: -1,
		Checkpoint: &CheckpointOptions{Path: path}}
	if _, err := det.Evolutionary(evoOpt); err != nil {
		t.Fatal(err)
	}

	// Different seed → different trajectory → rejected.
	diverged := evoOpt
	diverged.Seed = 6
	diverged.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
	if _, err := det.Evolutionary(diverged); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("mismatched seed resumed: %v", err)
	}

	// Wrong search kind entirely → rejected.
	brute := BruteForceOptions{K: 3, M: 6,
		Checkpoint: &CheckpointOptions{Path: path, Resume: true}}
	if _, err := det.BruteForce(brute); err == nil {
		t.Fatal("evo checkpoint accepted by brute force")
	}

	// Corrupt file → rejected.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	resume := evoOpt
	resume.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
	if _, err := det.Evolutionary(resume); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt checkpoint resumed: %v", err)
	}
}

// A version-1 checkpoint stored memo keys as JSON strings in the old
// comma-decimal form. Its keys would never hit the packed-key memo, so
// a resume would re-count every cube and inflate Evaluations; it must
// be refused with the version error instead.
func TestCheckpointVersion1Refused(t *testing.T) {
	ds := plantedDataset(200, 6, 66)
	det := NewDetector(ds, 4)
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	opt := EvoOptions{K: 3, M: 6, Seed: 5, MaxGenerations: 3, Patience: -1,
		Checkpoint: &CheckpointOptions{Path: path}}
	if _, err := det.Evolutionary(opt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cf map[string]any
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatal(err)
	}
	cf["version"] = 1
	memo := cf["evo"].(map[string]any)["memo"].([]any)
	if len(memo) == 0 {
		t.Fatal("checkpoint has an empty memo")
	}
	for _, e := range memo {
		e.(map[string]any)["key"] = "0,3,0,2,0,1"
	}
	if data, err = json.Marshal(cf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resume := opt
	resume.MaxGenerations = 6
	resume.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
	if _, err := det.Evolutionary(resume); err == nil || !strings.Contains(err.Error(), "has version 1, want 2") {
		t.Fatalf("version-1 checkpoint resumed: %v", err)
	}
}

// Past 127 dimensions the memo keys hold bytes a JSON string would
// mangle; the resumed run must still match the uninterrupted one,
// Evaluations included.
func TestEvoCheckpointResumeWideKeys(t *testing.T) {
	ds := plantedDataset(200, 140, 67)
	det := NewDetector(ds, 4)
	base := EvoOptions{K: 3, M: 8, Seed: 9, MaxGenerations: 12, Patience: -1}
	ref, err := det.Evolutionary(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.ckpt")
	interrupted := base
	interrupted.MaxGenerations = 5
	interrupted.Checkpoint = &CheckpointOptions{Path: path}
	if _, err := det.Evolutionary(interrupted); err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
	got, err := det.Evolutionary(resumed)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "wide-key resume", ref, got)
}

// Resume with no checkpoint file on disk starts fresh — the first run
// of a to-be-resumable job needs no special casing — and leaves a
// checkpoint behind.
func TestResumeMissingFileStartsFresh(t *testing.T) {
	ds := plantedDataset(200, 6, 64)
	det := NewDetector(ds, 4)
	path := filepath.Join(t.TempDir(), "fresh.ckpt")

	base := EvoOptions{K: 3, M: 6, Seed: 13, MaxGenerations: 4, Patience: -1}
	ref, err := det.Evolutionary(base)
	if err != nil {
		t.Fatal(err)
	}
	withCkpt := base
	withCkpt.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
	got, err := det.Evolutionary(withCkpt)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "fresh resume", ref, got)
	if _, err := os.Stat(path); err != nil {
		t.Errorf("no checkpoint left behind: %v", err)
	}
}

// Checkpointing must not perturb the search it observes: a
// checkpointed run equals a plain run.
func TestCheckpointingIsInvisible(t *testing.T) {
	ds := plantedDataset(250, 7, 65)
	det := NewDetector(ds, 4)

	evoBase := EvoOptions{K: 3, M: 6, Seed: 17, MaxGenerations: 10, Patience: -1}
	ref, err := det.Evolutionary(evoBase)
	if err != nil {
		t.Fatal(err)
	}
	observed := evoBase
	observed.Checkpoint = &CheckpointOptions{Path: filepath.Join(t.TempDir(), "e.ckpt")}
	got, err := det.Evolutionary(observed)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "evo checkpointed vs plain", ref, got)

	bfBase := BruteForceOptions{K: 2, M: 6, Workers: 4}
	bref, err := det.BruteForce(bfBase)
	if err != nil {
		t.Fatal(err)
	}
	bObserved := bfBase
	bObserved.Checkpoint = &CheckpointOptions{Path: filepath.Join(t.TempDir(), "b.ckpt")}
	bGot, err := det.BruteForce(bObserved)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "brute checkpointed vs plain", bref, bGot)
}

// Restarts and islands interleave several searches over one options
// struct; a single checkpoint file cannot represent that and the
// combination is rejected.
func TestCheckpointRejectedUnderRestartsAndIslands(t *testing.T) {
	ds := plantedDataset(200, 6, 66)
	det := NewDetector(ds, 4)
	opt := EvoOptions{K: 3, M: 6, Seed: 1, MaxGenerations: 3,
		Checkpoint: &CheckpointOptions{Path: filepath.Join(t.TempDir(), "x.ckpt")}}
	if _, err := det.EvolutionaryRestarts(opt, 2); err == nil {
		t.Error("restarts accepted a checkpoint")
	}
	if _, err := det.EvolutionaryIslands(IslandOptions{Evo: opt}); err == nil {
		t.Error("islands accepted a checkpoint")
	}
}

func labelW(name string, workers int) string {
	return fmt.Sprintf("%s workers=%d", name, workers)
}

// A checkpoint whose members or best entries hold values no search
// produces — a range above φ, a constraint outside the feature bag —
// is refused with an error naming the file, never resumed into a panic
// or into a state the search cannot reach.
func TestEvoCheckpointRejectsCorruptGenomes(t *testing.T) {
	det := NewDetector(plantedDataset(300, 8, 63), 4)
	opt := EvoOptions{K: 3, M: 8, Seed: 5, MaxGenerations: 4, Patience: -1, Dims: []int{0, 1, 3, 4, 6}}
	path := filepath.Join(t.TempDir(), "evo.ckpt")
	opt.Checkpoint = &CheckpointOptions{Path: path}
	if _, err := det.Evolutionary(opt); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// firstConstrained returns the first non-'*' position of g.
	firstConstrained := func(g []uint16) int {
		for j, v := range g {
			if v != 0 {
				return j
			}
		}
		t.Fatal("checkpointed genome constrains nothing")
		return -1
	}
	cases := []struct {
		name string
		edit func(st *evoState)
	}{
		{"every member above phi", func(st *evoState) {
			for _, m := range st.Members {
				m[firstConstrained(m)] = 99
			}
		}},
		{"one member above phi", func(st *evoState) { st.Members[3][firstConstrained(st.Members[3])] = 5 }},
		{"member outside the bag", func(st *evoState) { st.Members[0][2] = 1 }},
		{"best entry above phi", func(st *evoState) { st.Best[0].Genome[firstConstrained(st.Best[0].Genome)] = 99 }},
		{"best entry outside the bag", func(st *evoState) { st.Best[1].Genome[7] = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cf checkpointFile
			if err := json.Unmarshal(clean, &cf); err != nil {
				t.Fatal(err)
			}
			tc.edit(cf.Evo)
			data, err := json.Marshal(&cf)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("resume panicked: %v", r)
				}
			}()
			resumed := opt
			resumed.MaxGenerations = 10
			resumed.Checkpoint = &CheckpointOptions{Path: path, Resume: true}
			_, err = det.Evolutionary(resumed)
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("resume from a corrupt checkpoint: err=%v, want an error naming %s", err, path)
			}
		})
	}
}
