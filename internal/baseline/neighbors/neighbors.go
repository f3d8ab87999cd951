// Package neighbors provides the full-dimensional distance machinery
// shared by the baseline outlier detectors the paper compares against:
// the kNN-distance method of Ramaswamy et al. [25], the DB(k, λ)
// outliers of Knorr & Ng [22], and LOF [10].
//
// All of these operate on complete vectors — they are exactly the
// methods whose full-dimensional distances the paper argues lose
// meaning in high dimensionality — so inputs containing NaN must be
// imputed first (dataset.ImputeMissing); distance computations panic
// on NaN to surface pipeline mistakes early.
package neighbors

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"

	"hido/internal/dataset"
	"hido/internal/fanout"
)

// Metric is a distance function over equal-length vectors.
type Metric int

const (
	// Euclidean is the L2 norm, the paper's default for the baselines.
	Euclidean Metric = iota
	// Manhattan is the L1 norm.
	Manhattan
	// Chebyshev is the L∞ norm.
	Chebyshev
)

func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Manhattan:
		return "manhattan"
	case Chebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Dist returns the distance between two vectors under the metric. It
// panics on length mismatch or NaN input.
func Dist(m Metric, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("neighbors: vector lengths %d vs %d", len(a), len(b)))
	}
	switch m {
	case Euclidean:
		return math.Sqrt(SqDist(a, b))
	case Manhattan:
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			if math.IsNaN(d) {
				panic("neighbors: NaN in distance computation (impute missing values first)")
			}
			s += math.Abs(d)
		}
		return s
	case Chebyshev:
		s := 0.0
		for i := range a {
			d := math.Abs(a[i] - b[i])
			if math.IsNaN(d) {
				panic("neighbors: NaN in distance computation (impute missing values first)")
			}
			if d > s {
				s = d
			}
		}
		return s
	default:
		panic("neighbors: unknown metric")
	}
}

// SqDist returns the squared Euclidean distance — the monotone
// surrogate used in all pruning loops, saving the sqrt.
func SqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		if math.IsNaN(d) {
			panic("neighbors: NaN in distance computation (impute missing values first)")
		}
		s += d * d
	}
	return s
}

// Neighbor is one (index, distance) result.
type Neighbor struct {
	Index int
	Dist  float64
}

// maxHeap keeps the k closest candidates; the root is the farthest of
// them, so a closer candidate evicts it in O(log k).
type maxHeap []Neighbor

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].Dist > h[j].Dist }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Search answers exact k-nearest-neighbor queries over a dataset by
// linear scan with a bounded max-heap. The scan is the honest
// comparator for the paper's baselines: spatial indexes degrade to
// linear behaviour at the dimensionalities under study.
type Search struct {
	ds     *dataset.Dataset
	metric Metric
}

// NewSearch builds a searcher over the dataset. The dataset must be
// free of missing values.
func NewSearch(ds *dataset.Dataset, metric Metric) *Search {
	if ds.MissingCount() > 0 {
		panic("neighbors: dataset has missing values; impute first")
	}
	return &Search{ds: ds, metric: metric}
}

// KNN returns the k nearest neighbors of record i (excluding i
// itself), ordered by increasing distance. It panics if k is out of
// range.
func (s *Search) KNN(i, k int) []Neighbor {
	n := s.ds.N()
	if k < 1 || k > n-1 {
		panic(fmt.Sprintf("neighbors: k=%d outside [1,%d]", k, n-1))
	}
	return s.KNNVector(s.ds.RowView(i), k, i)
}

// KNNVector returns the k nearest records to an arbitrary query
// vector, excluding the record index skip (pass -1 to exclude none).
func (s *Search) KNNVector(q []float64, k, skip int) []Neighbor {
	h := make(maxHeap, 0, k+1)
	sq := s.metric == Euclidean
	for j := 0; j < s.ds.N(); j++ {
		if j == skip {
			continue
		}
		var d float64
		if sq {
			d = SqDist(q, s.ds.RowView(j))
		} else {
			d = Dist(s.metric, q, s.ds.RowView(j))
		}
		if len(h) < k {
			heap.Push(&h, Neighbor{j, d})
		} else if d < h[0].Dist {
			h[0] = Neighbor{j, d}
			heap.Fix(&h, 0)
		}
	}
	out := make([]Neighbor, len(h))
	copy(out, h)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Index < out[b].Index
	})
	if sq {
		for i := range out {
			out[i].Dist = math.Sqrt(out[i].Dist)
		}
	}
	return out
}

// KDist returns the distance from record i to its kth nearest
// neighbor.
func (s *Search) KDist(i, k int) float64 {
	nn := s.KNN(i, k)
	return nn[len(nn)-1].Dist
}

// RangeCount counts the records (excluding i) within distance radius
// of record i, stopping early once the count exceeds stopAfter
// (pass a negative stopAfter to count exactly). Early termination is
// the core trick of the Knorr-Ng nested-loop algorithm: a point is
// declared a non-outlier as soon as k+1 neighbors are seen.
func (s *Search) RangeCount(i int, radius float64, stopAfter int) int {
	q := s.ds.RowView(i)
	sqRad := radius * radius
	useSq := s.metric == Euclidean
	count := 0
	for j := 0; j < s.ds.N(); j++ {
		if j == i {
			continue
		}
		var within bool
		if useSq {
			within = SqDist(q, s.ds.RowView(j)) <= sqRad
		} else {
			within = Dist(s.metric, q, s.ds.RowView(j)) <= radius
		}
		if within {
			count++
			if stopAfter >= 0 && count > stopAfter {
				return count
			}
		}
	}
	return count
}

// AllKDist returns every record's kth-NN distance. The scan for
// record i abandons early when its running kth-NN upper bound cannot
// influence callers that only need the top-n largest values; that
// pruning lives in the knnout package — here the values are exact.
func (s *Search) AllKDist(k int) []float64 { return s.AllKDistParallel(k, 1) }

// AllKDistParallel is AllKDist computed on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). The searcher is read-only, so
// records partition freely across goroutines and each output slot is
// written exactly once; the result is identical to AllKDist.
func (s *Search) AllKDistParallel(k, workers int) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]float64, s.ds.N())
	fanout.For(len(out), workers, func(i int) { out[i] = s.KDist(i, k) })
	return out
}

// N returns the number of records indexed.
func (s *Search) N() int { return s.ds.N() }

// Metric returns the searcher's metric.
func (s *Search) MetricKind() Metric { return s.metric }
