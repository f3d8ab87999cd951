package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"hido/internal/bitset"
	"hido/internal/cube"
	"hido/internal/discretize"
	"hido/internal/evo"
	"hido/internal/stats"
)

// Projection is one mined sparse cube with its statistics.
type Projection struct {
	Cube     cube.Cube
	Sparsity float64 // Equation 1; more negative = more abnormal
	Count    int     // records inside the cube
}

// Significance returns the one-sided probability of observing a count
// this low under the paper's uniform-data normal approximation.
func (p Projection) Significance() float64 { return stats.Significance(p.Sparsity) }

// String renders the projection with its statistics.
func (p Projection) String() string {
	return fmt.Sprintf("%s  S=%.3f  n=%d", p.Cube, p.Sparsity, p.Count)
}

// Describe renders the projection's constraints with attribute names
// and value bounds — the paper's interpretability requirement (§1.1):
// the reasoning behind why a point is an outlier. Categorical columns
// (integer-encoded by the CSV reader) render their category names
// instead of code intervals.
func (p Projection) Describe(d *Detector) string {
	parts := make([]string, 0, p.Cube.K())
	for _, pr := range p.Cube.Pairs() {
		name := d.Data.Names[pr.Dim]
		if d.Data.IsCategorical(pr.Dim) {
			lo, hi := d.Grid.RangeBounds(pr.Dim, pr.Range)
			cats := d.Data.CategoriesIn(pr.Dim, lo, hi)
			if len(cats) > 0 {
				const maxShown = 4
				if len(cats) > maxShown {
					cats = append(cats[:maxShown:maxShown],
						fmt.Sprintf("+%d more", len(cats)-maxShown))
				}
				parts = append(parts, fmt.Sprintf("%s∈{%s}", name, strings.Join(cats, ",")))
				continue
			}
		}
		parts = append(parts, d.Grid.DescribeRange(name, pr.Dim, pr.Range))
	}
	return fmt.Sprintf("%s  (S=%.3f, %d records)", strings.Join(parts, " ∧ "), p.Sparsity, p.Count)
}

// DescribeRanges is Describe decoupled from a Detector: any grid
// carrying the fitted cut points works, including one reconstructed
// from a persisted model.
func (p Projection) DescribeRanges(names []string, g *discretize.Grid) string {
	parts := make([]string, 0, p.Cube.K())
	for _, pr := range p.Cube.Pairs() {
		parts = append(parts, g.DescribeRange(names[pr.Dim], pr.Dim, pr.Range))
	}
	return fmt.Sprintf("%s  (S=%.3f, %d records)", strings.Join(parts, " ∧ "), p.Sparsity, p.Count)
}

// Result is the output of a projection search: the best projections,
// the covered points (§2.3's postprocessing), and search telemetry.
type Result struct {
	// Projections holds the m best cubes, most negative sparsity first.
	Projections []Projection
	// OutlierSet marks the covered records.
	OutlierSet *bitset.Set
	// Outliers lists the covered records in increasing index order.
	Outliers []int

	// Evaluations counts distinct fitness (cube count) computations.
	Evaluations int
	// Pruned counts the enumeration subtrees skipped by brute-force
	// coverage pruning (every cube below them falls under MinCoverage).
	// Zero for the evolutionary search and for unpruned runs.
	Pruned int
	// Generations is the number of GA generations (0 for brute force).
	Generations int
	// ConvergedDeJong reports whether the GA stopped on the De Jong
	// criterion (as opposed to the generation cap or stall patience).
	ConvergedDeJong bool
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
}

// Quality returns the mean sparsity coefficient of the retained
// projections — the "quality" column of the paper's Table 1. NaN when
// no projection was retained.
func (r *Result) Quality() float64 {
	if len(r.Projections) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, p := range r.Projections {
		sum += p.Sparsity
	}
	return sum / float64(len(r.Projections))
}

// CoveringProjections returns the indices (into r.Projections) of the
// projections covering record i — the per-point explanation.
func (r *Result) CoveringProjections(d *Detector, i int) []int {
	cells := d.Grid.AssignRow(d.Data.RowView(i))
	var out []int
	for pi, p := range r.Projections {
		if p.Cube.Covers(cells) {
			out = append(out, pi)
		}
	}
	return out
}

// Score returns a per-record outlier score: the most negative sparsity
// among the projections covering the record, or 0 when none does.
// Lower is more outlying. This ranking view is used when comparing
// against top-n baselines.
func (r *Result) Score(d *Detector, i int) float64 {
	best := 0.0
	cells := d.Grid.AssignRow(d.Data.RowView(i))
	for _, p := range r.Projections {
		if p.Sparsity < best && p.Cube.Covers(cells) {
			best = p.Sparsity
		}
	}
	return best
}

// Scores is Result.Score for every record at once under the given
// projections: each record's most negative sparsity among the
// projections covering it, 0 when none does. It reads each
// projection's cover from the index instead of testing every record
// against every projection, and keeps Score's comparison, so every
// value is bit-identical to Score's and a NaN sparsity is skipped.
func (d *Detector) Scores(projs []Projection) []float64 {
	out := make([]float64, d.N())
	cover := bitset.New(d.N())
	for _, p := range projs {
		if !(p.Sparsity < 0) {
			continue // lowers no score below its start of 0
		}
		d.Index.CoverInto(cover, p.Cube)
		cover.ForEach(func(i int) bool {
			if p.Sparsity < out[i] {
				out[i] = p.Sparsity
			}
			return true
		})
	}
	return out
}

// RankedOutliers returns the covered records ordered by ascending
// Score (most outlying first), ties broken by record index.
func (r *Result) RankedOutliers(d *Detector) []int {
	type scored struct {
		idx   int
		score float64
	}
	scores := d.Scores(r.Projections)
	ss := make([]scored, 0, len(r.Outliers))
	for _, i := range r.Outliers {
		ss = append(ss, scored{i, scores[i]})
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score < ss[b].score
		}
		return ss[a].idx < ss[b].idx
	})
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = s.idx
	}
	return out
}

// finalizeOver converts a BestSet into the Result's projections and
// runs the §2.3 postprocessing: the outliers are the records covered
// by at least one retained projection. It covers every projection in
// one coverAll, so a batching source resolves the pass in one round
// trip across its shards.
func finalizeOver(src CountSource, bs *evo.BestSet, r *Result) {
	entries := bs.Entries()
	cs := make([]cube.Cube, len(entries))
	for i, e := range entries {
		cs[i] = cube.Cube(e.Genome).Clone()
	}
	covers := coverAll(src, cs)
	r.Projections = make([]Projection, 0, len(entries))
	r.OutlierSet = bitset.New(src.N())
	for i, e := range entries {
		r.Projections = append(r.Projections, Projection{Cube: cs[i], Sparsity: e.Fitness, Count: len(covers[i])})
		for _, j := range covers[i] {
			r.OutlierSet.Set(j)
		}
	}
	r.Outliers = r.OutlierSet.Indices()
}
