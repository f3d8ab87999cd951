package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hido/internal/core"
	"hido/internal/cube"
	"hido/internal/discretize"
	"hido/internal/ensemble"
)

// Model is the JSON-serializable form of a fitted Monitor: the grid's
// cut points, the retained projections, and the fitting options. A
// model mined once can be shipped to scoring processes that never see
// the reference data.
type Model struct {
	Version     int               `json:"version"`
	Phi         int               `json:"phi"`
	K           int               `json:"k"`
	Options     Options           `json:"options"`
	Names       []string          `json:"names"`
	Cuts        [][]float64       `json:"cuts"`
	Projections []ModelProjection `json:"projections"`
	// Ensemble carries the per-member state of an ensemble model
	// (version 2). Projections then holds the deduplicated union the
	// members reference — the Alert.Matches index space.
	Ensemble *ModelEnsemble `json:"ensemble,omitempty"`
}

// ModelProjection is one persisted projection.
type ModelProjection struct {
	Cube     []uint16 `json:"cube"`
	Sparsity float64  `json:"sparsity"`
	Count    int      `json:"count"`
}

// ModelEnsemble is the persisted ensemble section: the combiner plus
// each member's projections and score calibration. Loading it
// reconstructs serving exactly — scores are bit-identical to the
// monitor that fitted the model.
type ModelEnsemble struct {
	Combiner string        `json:"combiner"`
	Members  []ModelMember `json:"members"`
}

// ModelMember is one persisted ensemble member.
type ModelMember struct {
	// Dims is the member's feature bag, strictly increasing.
	Dims []int `json:"dims"`
	// Projections are the member's retained projections.
	Projections []ModelProjection `json:"projections"`
	// Sorted is the member's reference-window evidence, ascending
	// (rank-combiner calibration).
	Sorted []float64 `json:"sorted,omitempty"`
	// Mean and Std are the reference evidence moments (z-score
	// calibration; population std).
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// Model wire versions: 1 is a single-search model (no ensemble
// section), 2 an ensemble model (ensemble section required).
const (
	modelVersion         = 1
	modelVersionEnsemble = 2
)

// Save writes the current model as JSON.
func (m *Monitor) Save(w io.Writer) error {
	m.mu.RLock()
	model := Model{
		Version: modelVersion,
		Phi:     m.opt.Phi,
		K:       m.k,
		Options: m.opt,
		Names:   append([]string(nil), m.names...),
		Cuts:    m.grid.AllCuts(),
	}
	for _, p := range m.projections {
		model.Projections = append(model.Projections, ModelProjection{
			Cube: append([]uint16(nil), p.Cube...), Sparsity: p.Sparsity, Count: p.Count,
		})
	}
	if len(m.members) > 0 {
		model.Version = modelVersionEnsemble
		me := &ModelEnsemble{Combiner: m.combiner.String()}
		for _, mm := range m.members {
			member := ModelMember{
				Dims:   append([]int(nil), mm.dims...),
				Sorted: append([]float64(nil), mm.sorted...),
				Mean:   mm.mean,
				Std:    mm.std,
			}
			for _, p := range mm.projections {
				member.Projections = append(member.Projections, ModelProjection{
					Cube: append([]uint16(nil), p.Cube...), Sparsity: p.Sparsity, Count: p.Count,
				})
			}
			me.Members = append(me.Members, member)
		}
		model.Ensemble = me
	}
	m.mu.RUnlock()
	enc := json.NewEncoder(w)
	if err := enc.Encode(model); err != nil {
		return fmt.Errorf("stream: encoding model: %w", err)
	}
	return nil
}

// Validate checks the structural integrity of a decoded model: the
// version and grid shape, strictly finite and non-decreasing cut
// points, a plausible projection dimensionality, and per-projection
// sanity (in-range cells, non-negative counts, non-NaN sparsity). A
// model that fails any of these would load into a monitor that scores
// garbage silently — out-of-order cuts break the binary-search range
// assignment, NaN sparsity poisons every alert score it touches — so
// Load rejects it instead. The store's startup recovery relies on the
// same checks to quarantine corrupt files.
func (model *Model) Validate() error {
	switch model.Version {
	case modelVersion:
		if model.Ensemble != nil {
			return fmt.Errorf("stream: version-1 model carries an ensemble section")
		}
	case modelVersionEnsemble:
		if model.Ensemble == nil {
			return fmt.Errorf("stream: version-2 model missing its ensemble section")
		}
	default:
		return fmt.Errorf("stream: model version %d, want %d or %d",
			model.Version, modelVersion, modelVersionEnsemble)
	}
	if err := discretize.CheckPhi(model.Phi); err != nil {
		return fmt.Errorf("stream: model: %w", err)
	}
	if len(model.Cuts) == 0 || len(model.Names) != len(model.Cuts) {
		return fmt.Errorf("stream: model has %d name(s) for %d dimension(s)",
			len(model.Names), len(model.Cuts))
	}
	d := len(model.Cuts)
	if model.K < 1 || model.K > d {
		return fmt.Errorf("stream: model k=%d outside [1,%d]", model.K, d)
	}
	for j, c := range model.Cuts {
		if len(c) != model.Phi-1 {
			return fmt.Errorf("stream: dimension %d has %d cuts, want %d",
				j, len(c), model.Phi-1)
		}
		for i, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("stream: dimension %d cut %d is %v", j, i, v)
			}
			if i > 0 && v < c[i-1] {
				return fmt.Errorf("stream: dimension %d cuts not non-decreasing at %d (%v < %v)",
					j, i, v, c[i-1])
			}
		}
	}
	if err := validateProjections(model.Projections, d, model.Phi, "projection"); err != nil {
		return err
	}
	if model.Ensemble != nil {
		if err := model.Ensemble.validate(d, model.Phi); err != nil {
			return err
		}
	}
	return nil
}

// validateProjections applies the per-projection sanity checks to any
// persisted projection list (top-level union or a member's).
func validateProjections(projs []ModelProjection, d, phi int, what string) error {
	for pi, p := range projs {
		if len(p.Cube) != d {
			return fmt.Errorf("stream: %s %d spans %d dims, model has %d",
				what, pi, len(p.Cube), d)
		}
		if !cube.Cube(p.Cube).Valid(phi) {
			return fmt.Errorf("stream: %s %d has out-of-range cells", what, pi)
		}
		if p.Count < 0 {
			return fmt.Errorf("stream: %s %d has negative count %d", what, pi, p.Count)
		}
		if math.IsNaN(p.Sparsity) {
			return fmt.Errorf("stream: %s %d has NaN sparsity", what, pi)
		}
	}
	return nil
}

// validate checks the ensemble section: a parseable combiner and, per
// member, a strictly increasing in-range feature bag, sane projections
// constraining only bag dimensions, a finite non-decreasing calibration
// vector, and finite moments. A member that fails any of these would
// serve silently wrong combined scores.
func (me *ModelEnsemble) validate(d, phi int) error {
	if _, err := ensemble.ParseCombiner(me.Combiner); err != nil {
		return err
	}
	if len(me.Members) == 0 {
		return fmt.Errorf("stream: ensemble model has no members")
	}
	for mi, mem := range me.Members {
		if len(mem.Dims) == 0 {
			return fmt.Errorf("stream: ensemble member %d has an empty feature bag", mi)
		}
		inBag := make(map[int]bool, len(mem.Dims))
		for i, dim := range mem.Dims {
			if dim < 0 || dim >= d {
				return fmt.Errorf("stream: ensemble member %d bag dim %d outside [0,%d)", mi, dim, d)
			}
			if i > 0 && dim <= mem.Dims[i-1] {
				return fmt.Errorf("stream: ensemble member %d bag not strictly increasing at %d", mi, i)
			}
			inBag[dim] = true
		}
		if err := validateProjections(mem.Projections, d, phi,
			fmt.Sprintf("ensemble member %d projection", mi)); err != nil {
			return err
		}
		for pi, p := range mem.Projections {
			for _, dim := range cube.Cube(p.Cube).Dims() {
				if !inBag[dim] {
					return fmt.Errorf("stream: ensemble member %d projection %d constrains dim %d outside its bag",
						mi, pi, dim)
				}
			}
		}
		for i, v := range mem.Sorted {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("stream: ensemble member %d calibration value %d is %v", mi, i, v)
			}
			if i > 0 && v < mem.Sorted[i-1] {
				return fmt.Errorf("stream: ensemble member %d calibration not sorted at %d", mi, i)
			}
		}
		if math.IsNaN(mem.Mean) || math.IsInf(mem.Mean, 0) ||
			math.IsNaN(mem.Std) || math.IsInf(mem.Std, 0) || mem.Std < 0 {
			return fmt.Errorf("stream: ensemble member %d has invalid moments (mean=%v std=%v)",
				mi, mem.Mean, mem.Std)
		}
	}
	return nil
}

// Load reconstructs a Monitor from a persisted model, validating it
// first: corrupt models — non-monotonic or non-finite cut points,
// negative counts, NaN sparsity — are rejected with a descriptive
// error instead of loading silently and poisoning scoring. The loaded
// monitor scores and explains exactly as the original; Refit works as
// long as the new window matches the model's dimensionality.
func Load(r io.Reader) (*Monitor, error) {
	var model Model
	if err := json.NewDecoder(r).Decode(&model); err != nil {
		return nil, fmt.Errorf("stream: decoding model: %w", err)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	m := &Monitor{
		opt:   model.Options.withDefaults(),
		grid:  discretize.FromCuts(model.Phi, model.Cuts),
		names: model.Names,
		k:     model.K,
	}
	m.opt.Phi = model.Phi
	for _, p := range model.Projections {
		m.projections = append(m.projections, core.Projection{
			Cube: cube.Cube(p.Cube), Sparsity: p.Sparsity, Count: p.Count,
		})
	}
	if model.Ensemble != nil {
		// Validate guaranteed the combiner parses.
		m.combiner, _ = ensemble.ParseCombiner(model.Ensemble.Combiner)
		members := make([]memberModel, len(model.Ensemble.Members))
		for mi, mem := range model.Ensemble.Members {
			mm := memberModel{
				dims:   mem.Dims,
				sorted: mem.Sorted,
				mean:   mem.Mean,
				std:    mem.Std,
			}
			for _, p := range mem.Projections {
				mm.projections = append(mm.projections, core.Projection{
					Cube: cube.Cube(p.Cube), Sparsity: p.Sparsity, Count: p.Count,
				})
			}
			members[mi] = mm
		}
		// Rebuild the union (and the members' indices into it) from the
		// members rather than trusting the persisted top-level list —
		// the construction is deterministic, so it reproduces what Save
		// wrote.
		m.projections = buildUnion(members)
		m.members = members
	}
	return m, nil
}
