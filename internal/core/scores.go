package core

import (
	"fmt"
	"math"

	"hido/internal/xrand"
)

// SampledScoreOptions configures subspace-sampled scoring.
type SampledScoreOptions struct {
	// K is the subspace dimensionality (as in the projection search).
	K int
	// Samples is how many random k-dimensional subspaces to draw
	// (default 512). More samples raise the probability of hitting the
	// subspace where a given record is abnormal.
	Samples int
	// Seed drives the subspace sampling.
	Seed uint64
}

// SampledScores holds per-record continuous outlier scores derived
// from random subspaces: in each sampled subspace every record sits
// in exactly one grid cell whose occupancy has a sparsity coefficient
// (Equation 1); a record's scores aggregate those coefficients.
// Lower is more outlying for both aggregates.
type SampledScores struct {
	// Min is the most negative per-subspace sparsity each record saw —
	// the record's own best evidence of abnormality. Records whose
	// sampled cells were always dense stay near positive values.
	Min []float64
	// Mean is the average per-subspace sparsity; it reflects global
	// eccentricity rather than a single abnormal combination.
	Mean []float64
	// TailMean is the mean of each record's tailWidth lowest
	// per-subspace sparsities. Min alone ties heavily — every record
	// that ever occupies a singleton cell shares the same extreme
	// value — while TailMean separates records by how *consistently*
	// their worst subspaces are sparse. It is the recommended ranking
	// aggregate.
	TailMean []float64
	// Subspaces is the number of subspaces actually evaluated.
	Subspaces int
}

// tailWidth is the number of lowest per-record values averaged into
// TailMean.
const tailWidth = 8

// SampleScores scores every record by subspace sampling. Unlike the
// projection search — which returns the globally sparsest cubes and
// the records inside them — this produces a complete ranking of all
// records, comparable against the kNN-distance and LOF baselines'
// score vectors (see the detection-quality experiment).
//
// Each subspace costs one pass over its k dimensions' range bitmaps and
// one over the records: cell occupancies are counted with a hash key
// packing the k cell indices, then each record receives the sparsity
// coefficient of its own cell. Records missing any sampled attribute
// skip that subspace; a record missing everything keeps NaN scores.
func (d *Detector) SampleScores(opt SampledScoreOptions) (*SampledScores, error) {
	if err := d.validateKM(opt.K, 1); err != nil {
		return nil, err
	}
	if opt.Samples == 0 {
		opt.Samples = 512
	}
	if opt.Samples < 1 {
		return nil, fmt.Errorf("core: samples=%d must be positive", opt.Samples)
	}
	if opt.K > 4 {
		// Key packing uses 16 bits per dimension; beyond k=4 the cells
		// are almost surely singletons anyway (§2.4).
		return nil, fmt.Errorf("core: sampled scoring supports k <= 4, got %d", opt.K)
	}
	rng := xrand.New(opt.Seed)
	n := d.N()

	out := &SampledScores{
		Min:      make([]float64, n),
		Mean:     make([]float64, n),
		TailMean: make([]float64, n),
	}
	sums := make([]float64, n)
	seen := make([]int, n)
	// tails[i] keeps record i's tailWidth lowest values as a max-heap
	// laid out in a flat array (root = largest retained).
	tails := make([]float64, n*tailWidth)
	tailLen := make([]int, n)
	for i := range out.Min {
		out.Min[i] = math.Inf(1)
	}

	counts := make(map[uint64]int, n)
	keys := make([]uint64, n)
	const missingKey = ^uint64(0)
	for s := 0; s < opt.Samples; s++ {
		dims := rng.Sample(d.D(), opt.K)
		clear(counts)
		// Record i's key packs its ranges in the sampled dimensions,
		// the first one highest, read from those dimensions' range
		// bitmaps. A missing value is in no bitmap and leaves its field
		// zero; ranges start at 1.
		clear(keys)
		for p, j := range dims {
			shift := 16 * uint(len(dims)-1-p)
			for r := 1; r <= d.Phi(); r++ {
				d.Index.RangeSet(j, uint16(r)).ForEach(func(i int) bool {
					keys[i] |= uint64(r) << shift
					return true
				})
			}
		}
		for i, key := range keys {
			for p := range dims {
				if key>>(16*uint(p))&0xffff == 0 {
					key = missingKey
					break
				}
			}
			keys[i] = key
			if key != missingKey {
				counts[key]++
			}
		}
		for i := 0; i < n; i++ {
			if keys[i] == missingKey {
				continue
			}
			sp := d.Index.SparsityOf(counts[keys[i]], opt.K)
			sums[i] += sp
			seen[i]++
			if sp < out.Min[i] {
				out.Min[i] = sp
			}
			tailPush(tails[i*tailWidth:(i+1)*tailWidth], &tailLen[i], sp)
		}
		out.Subspaces++
	}
	for i := 0; i < n; i++ {
		if seen[i] == 0 {
			out.Min[i] = math.NaN()
			out.Mean[i] = math.NaN()
			out.TailMean[i] = math.NaN()
			continue
		}
		out.Mean[i] = sums[i] / float64(seen[i])
		t := tails[i*tailWidth : i*tailWidth+tailLen[i]]
		sum := 0.0
		for _, v := range t {
			sum += v
		}
		out.TailMean[i] = sum / float64(len(t))
	}
	return out, nil
}

// tailPush maintains a bounded max-heap of the lowest values seen.
func tailPush(heap []float64, length *int, v float64) {
	if *length < len(heap) {
		heap[*length] = v
		*length++
		// sift up
		i := *length - 1
		for i > 0 {
			parent := (i - 1) / 2
			if heap[parent] >= heap[i] {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
		return
	}
	if v >= heap[0] {
		return
	}
	heap[0] = v
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(heap) && heap[l] > heap[largest] {
			largest = l
		}
		if r < len(heap) && heap[r] > heap[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		heap[i], heap[largest] = heap[largest], heap[i]
		i = largest
	}
}
