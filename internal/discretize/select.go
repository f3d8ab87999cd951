package discretize

import (
	"math"
	"math/bits"
	"slices"
)

const (
	// selectBuckets is how many buckets a counting pass spreads a
	// window over. On Musk's 6 598 rows that is about three values a
	// bucket, so the φ−1 buckets holding wanted ranks hold a few dozen
	// values between them.
	selectBuckets = 2048
	// selectLeaf is the window size up to which selectRanks places the
	// ranks directly: below it, clearing and scanning the histogram
	// costs more than the partitions it saves.
	selectLeaf = 256
	// selectLevels bounds how often a heavy bucket is bucketed again
	// before selectRanks takes it over, so a column whose values crowd
	// into one bucket level after level costs a few passes more than
	// quickselect at worst.
	selectLevels = 3
	// selectSample is about how many values, spread over a window, name
	// the value a wanted bucket's copies are checked against. A bucket
	// holding a share of the window well above 1/selectSample is all but
	// sure to be sampled.
	selectSample = 64
)

// selector is one worker's equi-depth scratch, reused for every column
// of its block: the rank list, the bucket histograms, a sampled value
// per wanted bucket, the buffer the wanted buckets are copied into and
// the stack of those buckets.
type selector struct {
	// hist counts even-indexed values and odd the odd-indexed ones, so a
	// heavy bucket's increments form two dependency chains, not one.
	hist, odd [selectBuckets]int32
	sample    [selectBuckets]float64
	ranks     []int
	buf       []float64
	targets   []target
}

// target is a bucket b holding wanted ranks: the n-value region of the
// copy buffer at start its values go to, in which the copy pass leaves
// [gapLo, gapHi) for the values equal to sample, the rank off of its
// smallest value, and ks[i:j], the wanted ranks it holds.
type target struct {
	b, start, n, gapLo, gapHi, off, i, j int
	sample                               float64
}

// equiDepthCuts writes into cuts the len(cuts) = phi−1 boundaries
// placed at the q = r/phi quantiles of col's non-missing values. Ties
// in the data can make some ranges larger than N/phi and others empty;
// this mirrors how equi-depth histograms behave on discrete-valued
// attributes. It clobbers col.
func (s *selector) equiDepthCuts(cuts, col []float64) {
	xs, lo, hi, neg, missing := finiteWindow(col)
	total := len(col) - missing
	if total == 0 {
		// All missing: boundaries are irrelevant; every cell is 0.
		for i := range cuts {
			cuts[i] = math.Inf(1)
		}
		finiteCuts(cuts)
		return
	}
	// Boundary r sits at the ceil(r·n/phi)-th order statistic, so each
	// of the phi ranges receives floor-or-ceil of n/phi records. −Inf
	// ranks below every finite value and +Inf above, so only the ranks
	// between fall to the selection.
	phi := len(cuts) + 1
	if cap(s.ranks) < phi-1 {
		// A level names at most one bucket per rank, and no more than
		// there are buckets.
		s.ranks = make([]int, 0, phi-1)
		s.targets = make([]target, 0, min(phi-1, selectBuckets))
	}
	ranks := s.ranks[:0]
	for r := 1; r < phi; r++ {
		idx := (r*total + phi - 1) / phi // ceil(r·n/phi)
		ranks = append(ranks, min(max(idx, 1), total)-1)
	}
	s.ranks = ranks
	i := 0
	for ; i < len(ranks) && ranks[i] < neg; i++ {
		cuts[i] = math.Inf(-1)
	}
	j := i
	for ; j < len(ranks) && ranks[j] < neg+len(xs); j++ {
	}
	for k := j; k < len(ranks); k++ {
		cuts[k] = math.Inf(1)
	}
	if i < j {
		if cap(s.buf) < len(xs) {
			s.buf = make([]float64, len(col))
		}
		s.place(xs, s.buf[:len(xs)], neg, ranks[i:j], cuts[i:j], lo, hi, selectLevels)
	}
	finiteCuts(cuts)
}

// infBits is the bit pattern of +Inf.
const infBits = 0x7ff0000000000000

// finiteWindow returns col's finite values with their range, and the
// numbers of −Inf and NaN values in col. A column of finite values,
// the common case, is only read; otherwise the finite values are moved
// to the front of col.
func finiteWindow(col []float64) (xs []float64, lo, hi float64, neg, missing int) {
	// Read a block at a time until one holds a value that is not
	// finite: the top bit of nonFinite is set iff some value's
	// magnitude bits reach those of infinity.
	const block = 64
	lo, hi = math.Inf(1), math.Inf(-1)
	i := 0
	for ; i < len(col); i += block {
		var nonFinite uint64
		for _, v := range col[i:min(i+block, len(col))] {
			nonFinite |= math.Float64bits(v)&^(1<<63) + (1<<63 - infBits)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if nonFinite>>63 != 0 {
			break
		}
	}
	if i >= len(col) {
		return col, lo, hi, 0, 0
	}
	// The values before block i are finite and stay where they are.
	// The tests are on the bits, which costs half what float compares
	// do: a value whose magnitude bits fall below infinity's is finite,
	// and one whose bits exceed them is NaN.
	m := i
	for _, v := range col[i:] {
		u := math.Float64bits(v)
		mag := u &^ (1 << 63)
		finite := int((mag - infBits) >> 63)
		nan := int((infBits - mag) >> 63)
		col[m] = v
		m += finite
		missing += nan
		neg += int(u>>63) &^ (finite | nan)
	}
	lo, hi = minMax(col[:m])
	return col[:m], lo, hi, neg, missing
}

// place sets out[i] to the value of rank ks[i] (ascending) among xs,
// whose smallest value has rank off and whose values lie in [lo, hi],
// and clobbers xs and spare, which is as long as xs.
//
// A counting pass spreads xs over the buckets of a monotone map of
// [lo, hi], and a scan of the counts names the buckets that hold
// wanted ranks. A second pass copies those buckets' values into spare,
// each bucket to its own region, except the values equal to one
// sampled from the bucket, which it only counts: a bucket of equal
// values is settled with no copy. A light bucket is then searched by
// selectRanks, a heavy one bucketed again over its own range.
func (s *selector) place(xs, spare []float64, off int, ks []int, out []float64, lo, hi float64, levels int) {
	if lo == hi {
		for i := range out {
			out[i] = lo
		}
		return
	}
	// The scale maps hi half a bucket short of the end, so rounding
	// cannot carry a value past the last bucket: the clamp in bucket is
	// then a branch that is never taken, where hi would take it once a
	// value and mispredict on every tie-heavy column. A span that
	// overflows, or so narrow that the scale does (subnormal values),
	// is left to selectRanks.
	span := hi - lo
	scale := (selectBuckets - 0.5) / span
	if levels == 0 || len(xs) <= selectLeaf || len(xs) > math.MaxInt32 ||
		span > math.MaxFloat64 || scale > math.MaxFloat64 {
		selectInto(xs, off, ks, out)
		return
	}
	hist, odd, sample := &s.hist, &s.odd, &s.sample
	for i := 0; i < len(xs); i += 2 {
		hist[bucket(xs[i], lo, scale)]++
		if i+1 == len(xs) {
			break
		}
		odd[bucket(xs[i+1], lo, scale)]++
	}
	// Scan the counts for the buckets holding wanted ranks, up to the
	// last wanted rank. A wanted bucket's region of spare is filled from
	// both ends, the values at even indices from its start and those at
	// odd ones from its end, and hist and odd hold the two write
	// positions p as −1−p: the copy pass tells the wanted buckets from
	// the others by sign alone.
	t0 := len(s.targets)
	rank, start, b := off, 0, 0
	for i := 0; i < len(ks); {
		n := int(hist[b] + odd[b])
		for rank+n <= ks[i] {
			rank += n
			b++
			n = int(hist[b] + odd[b])
		}
		j := i + 1
		for j < len(ks) && ks[j] < rank+n {
			j++
		}
		s.targets = append(s.targets, target{b: b, start: start, n: n, off: rank, i: i, j: j})
		hist[b], odd[b] = int32(-1-start), int32(-start-n)
		sample[b] = math.NaN()
		rank += n
		start += n
		b++
		i = j
	}
	for k := 0; k < len(xs); k += max(len(xs)/selectSample, 1) {
		v := xs[k]
		if b := bucket(v, lo, scale); hist[b] < 0 {
			sample[b] = v
		}
	}
	for i := 0; i < len(xs); i += 2 {
		v := xs[i]
		b := bucket(v, lo, scale)
		if p := hist[b]; p < 0 && v != sample[b] {
			spare[-1-p] = v
			hist[b] = p - 1
		}
		if i+1 == len(xs) {
			break
		}
		v = xs[i+1]
		b = bucket(v, lo, scale)
		if p := odd[b]; p < 0 && v != sample[b] {
			spare[-1-p] = v
			odd[b] = p + 1
		}
	}
	// What the two ends left between them are the values equal to the
	// sample.
	t1 := len(s.targets)
	for t := t0; t < t1; t++ {
		tg := &s.targets[t]
		tg.gapLo, tg.gapHi = int(-1-hist[tg.b]), int(-odd[tg.b])
		tg.sample = sample[tg.b]
	}
	clear(hist[:])
	clear(odd[:])
	// xs is free now: it is the spare of the buckets searched next.
	for t := t0; t < t1; t++ {
		tg := s.targets[t]
		ks, out := ks[tg.i:tg.j], out[tg.i:tg.j]
		if tg.gapHi-tg.gapLo == tg.n {
			for i := range out {
				out[i] = tg.sample
			}
			continue
		}
		for i := tg.gapLo; i < tg.gapHi; i++ {
			spare[i] = tg.sample
		}
		region := spare[tg.start : tg.start+tg.n]
		if tg.n <= selectLeaf {
			selectInto(region, tg.off, ks, out)
			continue
		}
		rlo, rhi := minMax(region)
		s.place(region, xs[:tg.n], tg.off, ks, out, rlo, rhi, levels-1)
	}
	s.targets = s.targets[:t0]
}

// bucket maps v in [lo, hi] to its bucket, given scale ≤
// selectBuckets/(hi − lo). The map is non-decreasing in v, so every
// value in a bucket ranks below every value in a later one.
func bucket(v, lo, scale float64) uint {
	return min(uint(int((v-lo)*scale)), selectBuckets-1)
}

// minMax returns the smallest and largest of xs, which holds no NaN.
func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// selectInto sets out[i] to the value of rank ks[i] among xs, whose
// smallest value has rank off, by selectRanks.
func selectInto(xs []float64, off int, ks []int, out []float64) {
	selectRanks(xs, off, ks, 2*bits.Len(uint(len(xs))))
	for i, k := range ks {
		out[i] = xs[k-off]
	}
}

// selectRanks reorders xs, a window of a NaN-free column starting at
// rank off, so that the value a full sort would put at each rank in
// ks (ascending, duplicates allowed) lands there: quickselect with a
// three-way partition that descends only into the sides still holding
// a wanted rank. Past depth partitions it sorts the window, which
// bounds the worst case at O(n log n).
func selectRanks(xs []float64, off int, ks []int, depth int) {
	for len(ks) > 0 {
		if len(xs) <= 16 || depth == 0 {
			slices.Sort(xs)
			return
		}
		depth--
		lt, gt := partition3(xs, medianOf3(xs[0], xs[len(xs)/2], xs[len(xs)-1]))
		// xs[:lt] < pivot ≤ xs[lt:gt] ≤ pivot < xs[gt:]: the ranks in the
		// middle band already hold their values.
		i, _ := slices.BinarySearch(ks, off+lt)
		j, _ := slices.BinarySearch(ks, off+gt)
		selectRanks(xs[:lt], off, ks[:i], depth)
		xs, off, ks = xs[gt:], off+gt, ks[j:]
	}
}

// partition3 reorders xs around p into values below, equal to and
// above it, returning the bounds of the equal band. Each pass is a
// branch-free Lomuto sweep: every element is swapped into place and
// the boundary advances by the comparison's outcome, so shuffled data
// costs no branch mispredictions.
func partition3(xs []float64, p float64) (lt, gt int) {
	for i, v := range xs {
		xs[i], xs[lt] = xs[lt], v
		lt += b2i(v < p)
	}
	gt = lt
	for i := lt; i < len(xs); i++ {
		v := xs[i]
		xs[i], xs[gt] = xs[gt], v
		gt += b2i(v <= p)
	}
	return lt, gt
}

func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}
