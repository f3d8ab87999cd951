package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"hido/internal/cube"
	"hido/internal/evo"
	"hido/internal/xrand"
)

// CheckpointOptions makes a search resumable across process deaths.
// Progress is periodically serialized to Path so a killed run can be
// continued with Resume and produce the same Result an uninterrupted
// run would have — bit-for-bit, at any worker count.
//
// Brute force checkpoints completed top-level (dimension, range)
// subtree tasks with their best sets and telemetry; a resumed run
// skips them and mines only the remainder. The evolutionary search
// checkpoints at generation boundaries: population, fitness memo,
// best set, and the master RNG stream state, so the resumed
// trajectory is the one the dead process would have followed.
//
// Checkpointing composes with budgets (a budget-stopped run writes a
// final snapshot before returning ErrBudgetExceeded) but not with
// restarts or islands, which interleave several searches.
type CheckpointOptions struct {
	// Path is the checkpoint file. Snapshots replace it atomically
	// (write-temp → fsync → rename in the same directory), so a crash
	// mid-write leaves the previous snapshot intact.
	Path string
	// Interval is the minimum spacing between snapshot writes; zero
	// snapshots at every boundary (each completed brute-force task,
	// each evolutionary generation). A final snapshot is always
	// written when the search returns.
	Interval time.Duration
	// Resume loads Path before searching and continues from it. A
	// missing file starts fresh; a corrupt file, or one written by an
	// incompatible search (different data shape, k, m, seed, …), is
	// an error — silently restarting would masquerade as progress.
	Resume bool
}

// checkpointVersion 2 stores memo keys as bytes (base64 in the JSON):
// cube keys are binary, which a JSON string would not carry intact.
const checkpointVersion = 2

// checkpointFile is the on-disk envelope. Float64 values (fitness,
// sparsity) are stored as IEEE-754 bit patterns: JSON cannot encode
// ±Inf or NaN, and a checkpoint must restore them exactly.
type checkpointFile struct {
	Version     int         `json:"version"`
	Kind        string      `json:"kind"` // "brute" or "evo"
	Fingerprint string      `json:"fingerprint"`
	Brute       *bruteState `json:"brute,omitempty"`
	Evo         *evoState   `json:"evo,omitempty"`
}

type bestEntryState struct {
	Genome  []uint16 `json:"genome"`
	FitBits uint64   `json:"fit_bits"`
}

type bruteTaskState struct {
	Task   int              `json:"task"`
	Evals  uint64           `json:"evals"`
	Pruned uint64           `json:"pruned"`
	Best   []bestEntryState `json:"best,omitempty"`
}

type bruteState struct {
	Tasks []bruteTaskState `json:"tasks"`
}

type memoEntryState struct {
	Key      []byte `json:"key"`
	SparBits uint64 `json:"spar_bits"`
	Count    int    `json:"count"`
}

type evoState struct {
	NextGen int              `json:"next_gen"`
	Stall   int              `json:"stall"`
	Evals   int              `json:"evals"`
	RNG     [4]uint64        `json:"rng"`
	Members [][]uint16       `json:"members"`
	FitBits []uint64         `json:"fit_bits"`
	Best    []bestEntryState `json:"best"`
	Memo    []memoEntryState `json:"memo"`
}

// bruteFingerprint pins a brute-force checkpoint to the search that
// wrote it: the task sharding and leaf enumeration are fixed by the
// data shape and these options, so any difference makes restored task
// indices meaningless. Budgets and worker counts are deliberately
// excluded — the whole point of a resume is to continue a
// budget-stopped run, possibly on different hardware.
func bruteFingerprint(src CountSource, opt BruteForceOptions) string {
	return fmt.Sprintf("brute|n=%d|d=%d|phi=%d|k=%d|m=%d|mincov=%d|prune=%v",
		src.N(), src.D(), src.Phi(), opt.K, opt.M, opt.MinCoverage, opt.DisablePruning) +
		dimsFingerprint(opt.Dims)
}

// evoFingerprint pins an evolutionary checkpoint: everything that
// shapes the random trajectory participates. MaxGenerations and
// Patience are excluded so an interrupted short run can be resumed
// with a larger budget.
func evoFingerprint(src CountSource, opt EvoOptions) string {
	return fmt.Sprintf("evo|n=%d|d=%d|phi=%d|k=%d|m=%d|pop=%d|xover=%d|sel=%d|p1=%x|p2=%x|mincov=%d|t2=%d|seed=%d",
		src.N(), src.D(), src.Phi(), opt.K, opt.M, opt.PopSize, opt.Crossover, opt.Selection,
		math.Float64bits(opt.MutateP1), math.Float64bits(opt.MutateP2),
		opt.MinCoverage, opt.TypeIIExhaustiveLimit, opt.Seed) +
		dimsFingerprint(opt.Dims)
}

// writeCheckpointFile atomically replaces path with the marshalled
// snapshot: temp file in the same directory, fsync, rename. A crash
// at any point leaves either the previous snapshot or the new one,
// never a torn file.
func writeCheckpointFile(path string, cf *checkpointFile) (err error) {
	data, err := json.Marshal(cf)
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: sync checkpoint: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("core: close checkpoint: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: commit checkpoint: %w", err)
	}
	return nil
}

// loadCheckpointFile reads a checkpoint for a Resume. A missing file
// returns (nil, nil) — start fresh; anything unreadable, of the wrong
// kind, or fingerprint-mismatched is an error.
func loadCheckpointFile(path, kind, fingerprint string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	// Read the version first: an older file's body need not decode
	// under this version's types (version-1 memo keys are not base64).
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint %s: %w", path, err)
	}
	if head.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, want %d", path, head.Version, checkpointVersion)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint %s: %w", path, err)
	}
	if cf.Kind != kind {
		return nil, fmt.Errorf("core: checkpoint %s holds a %q search, want %q", path, cf.Kind, kind)
	}
	if cf.Fingerprint != fingerprint {
		return nil, fmt.Errorf("core: checkpoint %s was written by an incompatible search:\n  have %s\n  want %s",
			path, cf.Fingerprint, fingerprint)
	}
	return &cf, nil
}

// encodeBest snapshots a best set for serialization.
func encodeBest(bs *evo.BestSet) []bestEntryState {
	entries := bs.Entries()
	out := make([]bestEntryState, len(entries))
	for i, e := range entries {
		out[i] = bestEntryState{
			Genome:  append([]uint16(nil), e.Genome...),
			FitBits: math.Float64bits(e.Fitness),
		}
	}
	return out
}

// decodeBest rebuilds a best set from its snapshot. Entries were
// stored best-first, so re-offering in order reproduces the set (and
// its internal ordering) exactly.
func decodeBest(path string, entries []bestEntryState, m int, src CountSource, dims []int) (*evo.BestSet, error) {
	bs := evo.NewBestSet(m)
	for i, e := range entries {
		if err := checkGenome(e.Genome, src, dims); err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: best entry %d %v", path, i, err)
		}
		bs.Offer(evo.Genome(e.Genome), math.Float64frombits(e.FitBits))
	}
	return bs, nil
}

// checkGenome rejects a stored genome no search over src could have
// produced: the wrong length, a range above φ, or a constraint outside
// the searched dimensions (dims, or every dimension when nil). The
// searches index grid bitmaps by these values and assume members
// constrain searched dimensions only.
func checkGenome(g []uint16, src CountSource, dims []int) error {
	if len(g) != src.D() {
		return fmt.Errorf("has %d positions, want %d", len(g), src.D())
	}
	for j, v := range g {
		if v == cube.DontCare {
			continue
		}
		if int(v) > src.Phi() {
			return fmt.Errorf("holds range %d at dimension %d, above phi %d", v, j, src.Phi())
		}
		if dims == nil {
			continue
		}
		if _, ok := slices.BinarySearch(dims, j); !ok {
			return fmt.Errorf("constrains dimension %d outside the searched dimensions", j)
		}
	}
	return nil
}

// bruteCheckpointer accumulates completed-task snapshots and writes
// them out with Interval throttling. Workers call taskDone
// concurrently; writes are serialized under the mutex.
type bruteCheckpointer struct {
	opt CheckpointOptions
	fp  string

	mu        sync.Mutex
	tasks     map[int]bruteTaskState
	lastWrite time.Time
	firstErr  error
}

func newBruteCheckpointer(opt CheckpointOptions, fp string) *bruteCheckpointer {
	return &bruteCheckpointer{opt: opt, fp: fp, tasks: make(map[int]bruteTaskState)}
}

// restore loads a prior run's completed tasks into the shared state:
// marks them done, installs their best sets, and re-credits their
// telemetry so the final Result sums are those of an uninterrupted
// run.
func (cp *bruteCheckpointer) restore(sh *bfShared) error {
	cf, err := loadCheckpointFile(cp.opt.Path, "brute", cp.fp)
	if err != nil || cf == nil {
		return err
	}
	if cf.Brute == nil {
		return fmt.Errorf("core: checkpoint %s has no brute-force state", cp.opt.Path)
	}
	sh.done = make([]bool, len(sh.tasks))
	var restoredEvals uint64
	for _, ts := range cf.Brute.Tasks {
		if ts.Task < 0 || ts.Task >= len(sh.tasks) {
			return fmt.Errorf("core: checkpoint task %d out of range (have %d tasks)", ts.Task, len(sh.tasks))
		}
		if sh.done[ts.Task] {
			return fmt.Errorf("core: checkpoint task %d duplicated", ts.Task)
		}
		bs, err := decodeBest(cp.opt.Path, ts.Best, sh.opt.M, sh.src, sh.opt.Dims)
		if err != nil {
			return err
		}
		sh.done[ts.Task] = true
		sh.results[ts.Task] = bs
		sh.evals.Add(ts.Evals)
		sh.pruned.Add(ts.Pruned)
		restoredEvals += ts.Evals
		cp.tasks[ts.Task] = ts
	}
	if sh.opt.MaxCandidates > 0 {
		// Restored leaves count against the candidate budget, so the
		// budget bounds total work across the whole resumed chain.
		sh.evaluated.Store(restoredEvals)
	}
	sh.tasksDone.Store(int64(len(cf.Brute.Tasks)))
	return nil
}

// taskDone records one completed task and snapshots the file when the
// interval has elapsed.
func (cp *bruteCheckpointer) taskDone(t int, bs *evo.BestSet, evals, pruned uint64) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.tasks[t] = bruteTaskState{Task: t, Evals: evals, Pruned: pruned, Best: encodeBest(bs)}
	if time.Since(cp.lastWrite) < cp.opt.Interval {
		return
	}
	cp.writeLocked()
}

// flush writes the final snapshot and reports the first error any
// write hit.
func (cp *bruteCheckpointer) flush() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.writeLocked()
	return cp.firstErr
}

func (cp *bruteCheckpointer) writeLocked() {
	tasks := make([]bruteTaskState, 0, len(cp.tasks))
	for _, ts := range cp.tasks {
		tasks = append(tasks, ts)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Task < tasks[j].Task })
	cf := &checkpointFile{
		Version:     checkpointVersion,
		Kind:        "brute",
		Fingerprint: cp.fp,
		Brute:       &bruteState{Tasks: tasks},
	}
	if err := writeCheckpointFile(cp.opt.Path, cf); err != nil {
		if cp.firstErr == nil {
			cp.firstErr = err
		}
		return
	}
	cp.lastWrite = time.Now()
}

// evoCheckpointer writes generation-boundary snapshots of one
// evolutionary run. The search loop is single-threaded at generation
// boundaries, so no locking is needed.
type evoCheckpointer struct {
	opt       CheckpointOptions
	fp        string
	lastWrite time.Time
	firstErr  error
}

func newEvoCheckpointer(opt CheckpointOptions, fp string) *evoCheckpointer {
	return &evoCheckpointer{opt: opt, fp: fp}
}

// restore rebuilds the search — its population, its generation and
// stall counters — from a prior snapshot, and reports whether anything
// was restored. Every stored genome is validated before any is used,
// and each member's position list is rebuilt from its genome.
func (cp *evoCheckpointer) restore(s *search) (ok bool, err error) {
	cf, err := loadCheckpointFile(cp.opt.Path, "evo", cp.fp)
	if err != nil || cf == nil {
		return false, err
	}
	st, pop := cf.Evo, s.pop
	if st == nil {
		return false, fmt.Errorf("core: checkpoint %s has no evolutionary state", cp.opt.Path)
	}
	if len(st.Members) != pop.Len() || len(st.FitBits) != pop.Len() {
		return false, fmt.Errorf("core: checkpoint population has %d members, want %d", len(st.Members), pop.Len())
	}
	if st.RNG == ([4]uint64{}) {
		return false, fmt.Errorf("core: checkpoint %s has a degenerate RNG state", cp.opt.Path)
	}
	if st.NextGen < 1 || st.Stall < 0 || st.Evals < 0 {
		return false, fmt.Errorf("core: checkpoint %s has inconsistent counters", cp.opt.Path)
	}
	for i, mem := range st.Members {
		if err := checkGenome(mem, s.src, s.opt.Dims); err != nil {
			return false, fmt.Errorf("core: checkpoint %s: member %d %v", cp.opt.Path, i, err)
		}
	}
	bs, err := decodeBest(cp.opt.Path, st.Best, s.opt.M, s.src, s.opt.Dims)
	if err != nil {
		return false, err
	}
	for i, mem := range st.Members {
		copy(pop.Members[i], mem)
		pop.Fitness[i] = math.Float64frombits(st.FitBits[i])
	}
	pop.ReindexAll()
	s.bs = bs
	s.rng = xrand.FromState(st.RNG)
	s.evals = st.Evals
	s.cache = make(map[string]fitEntry, len(st.Memo))
	for _, me := range st.Memo {
		s.cache[string(me.Key)] = fitEntry{sparsity: math.Float64frombits(me.SparBits), count: me.Count}
	}
	s.gen, s.stall = st.NextGen, st.Stall
	return true, nil
}

// snapshot writes the end-of-generation state when the interval has
// elapsed (s.gen is the generation a resumed run continues with).
func (cp *evoCheckpointer) snapshot(s *search, force bool) {
	if !force && time.Since(cp.lastWrite) < cp.opt.Interval {
		return
	}
	pop := s.pop
	n := pop.Len()
	st := &evoState{
		NextGen: s.gen,
		Stall:   s.stall,
		Evals:   s.evals,
		RNG:     s.rng.State(),
		Members: make([][]uint16, n),
		FitBits: make([]uint64, n),
		Best:    encodeBest(s.bs),
		Memo:    make([]memoEntryState, 0, len(s.cache)),
	}
	for i := range pop.Members {
		st.Members[i] = append([]uint16(nil), pop.Members[i]...)
		st.FitBits[i] = math.Float64bits(pop.Fitness[i])
	}
	// The memo is a map; sort for stable files (content is what
	// matters for the resume, but stable bytes make snapshots
	// comparable and diffable).
	keys := make([]string, 0, len(s.cache))
	for k := range s.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := s.cache[k]
		st.Memo = append(st.Memo, memoEntryState{Key: []byte(k), SparBits: math.Float64bits(e.sparsity), Count: e.count})
	}
	cf := &checkpointFile{Version: checkpointVersion, Kind: "evo", Fingerprint: cp.fp, Evo: st}
	if err := writeCheckpointFile(cp.opt.Path, cf); err != nil {
		if cp.firstErr == nil {
			cp.firstErr = err
		}
		return
	}
	cp.lastWrite = time.Now()
}
