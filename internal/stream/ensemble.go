package stream

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"hido/internal/core"
	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/ensemble"
)

// EnsembleOptions selects the subspace-ensemble model kind: Members
// independent searches over sampled feature bags, combined into one
// score per record (see internal/ensemble). All fields are
// JSON-serializable spellings so the options round-trip through the
// persisted model and the hidod fit API.
type EnsembleOptions struct {
	// Members is the number of independent member searches (0 selects
	// the ensemble default, 10).
	Members int `json:"members,omitempty"`
	// BagSize is the feature-bag width (0 selects the default,
	// (D+1)/2 clamped to at least the projection dimensionality).
	BagSize int `json:"bag_size,omitempty"`
	// Algo is the per-member search: "evo" (default) or "brute".
	Algo string `json:"algo,omitempty"`
	// Combiner aggregates member evidence: "rank" (default), "zscore",
	// or "max".
	Combiner string `json:"combiner,omitempty"`
}

func (o *EnsembleOptions) validate() error {
	if o.Members < 0 {
		return fmt.Errorf("stream: ensemble members=%d must not be negative", o.Members)
	}
	if o.BagSize < 0 {
		return fmt.Errorf("stream: ensemble bag size %d must not be negative", o.BagSize)
	}
	if _, err := ensemble.ParseAlgo(o.Algo); err != nil {
		return err
	}
	if _, err := ensemble.ParseCombiner(o.Combiner); err != nil {
		return err
	}
	return nil
}

// memberModel is one fitted ensemble member as the serving path needs
// it: its retained projections plus the score calibration computed on
// the reference window, so a served record's combined score is exactly
// what the fit-time combine would have produced for it.
type memberModel struct {
	// dims is the member's feature bag (strictly increasing).
	dims []int
	// projections are the member's projections retained at the TargetS
	// threshold, most negative sparsity first.
	projections []core.Projection
	// unionIdx maps projections[i] to its index in the monitor's
	// deduplicated union list — the index space of Alert.Matches.
	unionIdx []int
	// sorted is the member's reference-window evidence, ascending —
	// the ECDF the rank combiner interpolates new records into.
	sorted []float64
	// mean and std are the reference evidence moments for the z-score
	// combiner (population std; 0 freezes the member's contribution).
	mean, std float64
}

// refitEnsemble is the ensemble branch of Refit: fit the ensemble on
// the reference window, filter each member's projections at the
// retention threshold, and calibrate each member's evidence
// distribution so serving can reproduce the fit-time combine.
func (m *Monitor) refitEnsemble(reference *dataset.Dataset, det *core.Detector) error {
	// Same up-front shape check as Refit: never start Members expensive
	// searches on a window the final swap would reject anyway. (Refit
	// already checked, but refitDetector callers can reach here with a
	// detector built off-lock.)
	if err := m.checkDims(det.D()); err != nil {
		return err
	}
	eo := m.opt.Ensemble
	algo, err := ensemble.ParseAlgo(eo.Algo)
	if err != nil {
		return err
	}
	comb, err := ensemble.ParseCombiner(eo.Combiner)
	if err != nil {
		return err
	}
	advice := det.Advise(m.opt.TargetS)
	// MinCoverage -1 for the same reason as the single-search path:
	// cubes empty in the reference window are the strongest online
	// alarms.
	res, err := ensemble.Fit(det, ensemble.Options{
		Members: eo.Members, BagSize: eo.BagSize, Algo: algo,
		K: advice.K, M: m.opt.M, MinCoverage: -1, Combiner: comb,
		Workers: -1, Seed: m.opt.Seed,
		Observer: m.opt.Observer, RunID: "fit",
	})
	if err != nil {
		return err
	}

	members := make([]memberModel, len(res.Members))
	for r, mem := range res.Members {
		var kept []core.Projection
		for _, p := range mem.Projections {
			if p.Sparsity <= m.opt.TargetS {
				kept = append(kept, p)
			}
		}
		// Calibrate against the RETAINED projections: the served
		// evidence of a reference record must equal its calibration
		// evidence, or rank/z-score lookups would be biased. Evidence is
		// core.Result.Score negated, the ensemble convention.
		ev := det.Scores(kept)
		for i, s := range ev {
			ev[i] = -s
		}
		mu, sd := ensemble.MeanStd(ev)
		sort.Float64s(ev)
		members[r] = memberModel{dims: mem.Dims, projections: kept, sorted: ev, mean: mu, std: sd}
	}
	union := buildUnion(members)

	m.mu.Lock()
	defer m.mu.Unlock()
	// Backstop for the up-front checkDims (a racing Refit could have
	// swapped the model while this fit ran off-lock).
	if m.grid != nil && det.D() != m.grid.D {
		return fmt.Errorf("stream: refit window has %d dims, model has %d", det.D(), m.grid.D)
	}
	m.grid = discretize.FromCuts(det.Phi(), det.Grid.AllCuts())
	m.names = append([]string(nil), reference.Names...)
	m.projections = union
	m.k = advice.K
	m.members = members
	m.combiner = comb
	return nil
}

// buildUnion deduplicates the members' projections into one flat list —
// the Alert.Matches index space — ordered by (sparsity ascending,
// cubeLess) so the list is deterministic regardless of member order,
// and fills each member's unionIdx mapping in place.
func buildUnion(members []memberModel) []core.Projection {
	seen := make(map[string]bool)
	var union []core.Projection
	for _, mm := range members {
		for _, p := range mm.projections {
			k := p.Cube.Key()
			if !seen[k] {
				seen[k] = true
				union = append(union, p)
			}
		}
	}
	sort.Slice(union, func(a, b int) bool {
		if union[a].Sparsity != union[b].Sparsity {
			return union[a].Sparsity < union[b].Sparsity
		}
		return cubeLess(union[a].Cube, union[b].Cube)
	})
	pos := make(map[string]int, len(union))
	for i, p := range union {
		pos[p.Cube.Key()] = i
	}
	for mi := range members {
		mm := &members[mi]
		mm.unionIdx = make([]int, len(mm.projections))
		for pi, p := range mm.projections {
			mm.unionIdx[pi] = pos[p.Cube.Key()]
		}
	}
	return union
}

// cubeLess is the union's tie-break between equally sparse cubes of one
// dimensionality: at the first position where they differ, the two
// range values compare as decimal strings ("10" sorts before "9"). It
// is the order the comma-joined decimal cube keys of earlier versions
// sorted in, kept so saved ensemble models, and Load's rebuild of their
// union, stay byte-identical across versions.
func cubeLess(a, b cube.Cube) bool {
	for j := range a {
		if a[j] != b[j] {
			var da, db [5]byte
			return string(strconv.AppendUint(da[:0], uint64(a[j]), 10)) <
				string(strconv.AppendUint(db[:0], uint64(b[j]), 10))
		}
	}
	return false
}

// scoreEnsemble evaluates one record's grid cells against the ensemble
// members, mirroring ensemble.Combine per record: each member
// contributes its evidence through the calibration fitted on the
// reference window. Alert.Score is the negated combined score (lower =
// more outlying, like the single-model path); Matches lists the union
// indices of every member projection covering the record, ascending.
// Dedup across members runs on the scorer's matched scratch instead of
// a per-record map; the marks are restored to all false on return.
func (s *Scorer) scoreEnsemble(cells []uint16, matches []int) Alert {
	v := s.v
	a := Alert{Matches: matches[:0]}
	sum := 0.0
	best := math.Inf(-1)
	for i := range v.members {
		mm := &v.members[i]
		memberBest := 0.0
		for pi, p := range mm.projections {
			if p.Cube.Covers(cells) {
				if ui := mm.unionIdx[pi]; !s.matched[ui] {
					s.matched[ui] = true
					a.Matches = append(a.Matches, ui)
				}
				if p.Sparsity < memberBest {
					memberBest = p.Sparsity
				}
			}
		}
		ev := -memberBest
		switch v.combiner {
		case ensemble.MaxCombiner:
			if ev > best {
				best = ev
			}
		case ensemble.ZScoreCombiner:
			if mm.std > 0 {
				sum += (ev - mm.mean) / mm.std
			}
		default: // RankCombiner
			sum += ensemble.RankWithin(mm.sorted, ev)
		}
	}
	var combined float64
	if v.combiner == ensemble.MaxCombiner {
		combined = best
	} else {
		combined = sum / float64(len(v.members))
	}
	a.Score = -combined
	for _, ui := range a.Matches {
		s.matched[ui] = false
	}
	sort.Ints(a.Matches)
	return a
}

// Ensemble returns the monitor's ensemble configuration, or nil for a
// single-search model.
func (m *Monitor) Ensemble() *EnsembleOptions {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.opt.Ensemble == nil {
		return nil
	}
	cp := *m.opt.Ensemble
	return &cp
}

// Members returns the number of fitted ensemble members (0 for a
// single-search model).
func (m *Monitor) Members() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.members)
}

// Kind names the model kind: "ensemble" or "single".
func (m *Monitor) Kind() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.members) > 0 {
		return "ensemble"
	}
	return "single"
}
