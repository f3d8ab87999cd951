package core

import (
	"hido/internal/cube"
	"hido/internal/evo"
	"hido/internal/fanout"
	"hido/internal/xrand"
)

// A crossover round carries at most 2·xPrefixes = 64 Type II leaves
// per pair, two extensions of each of the pair's prefix partials.
const (
	xPrefixBits = 5
	xPrefixes   = 1 << xPrefixBits
)

// Crossover stages of one pair.
const (
	xTwoPoint = iota // recombined in start; no rounds
	xTypeII          // exhaustive Type II leaves, one block of prefixes per round
	xGreedyII        // Type II fallback, one differing position per round
	xTypeIII         // one greedy Type III step per round
)

// xpair is one pair's crossover in progress. The optimized operator
// (Figure 5) advances a round at a time: queue appends the counts the
// round needs as Partial.Extend requests, and advance consumes them.
// A pair's state lives on the search and is reused by the pair in the
// same slot next generation, so steady state allocates nothing.
type xpair struct {
	s     *search
	rng   *xrand.RNG
	own   xrand.RNG  // the pair's private stream, drawn from the master
	a, b  evo.Genome // parents; finish overwrites them with the children
	evals int

	stage int
	round int // Type II: prefix block; greedy II: diff index; Type III: steps taken
	need  int // Type III steps to take

	child evo.Genome
	// fromA[j] records which parent child position j derives from, so
	// the complementary child can invert the derivation.
	fromA  []bool
	equal  []int // both parents constrained, equal values
	diff   []int // both parents constrained, differing values (k'')
	cands  []xcand
	best   int       // lowest Type II leaf count so far (-1: none)
	leaf   int       // its leaf index
	base   Partial   // the child's constraints so far
	prefix []Partial // Type II prefixes of the current round
	xs     []Extension
	counts []int
}

// xcand is a Type III candidate: the one parent range at a position
// where the other parent is '*'. A consumed candidate has pos < 0.
type xcand struct {
	pos   int
	rng   uint16
	fromA bool
}

// crossoverAll matches the population pairwise and replaces each pair
// with its two children (Figure 5's outer loop). One RNG seed per pair
// is drawn from the master stream before any pair runs, so each pair's
// stochastic choices are independent of scheduling, and pairs write
// disjoint population slots. A BatchSource receives each round's
// extensions across all pairs in one call; any other source runs each
// pair to completion on the worker pool. Either way every pair makes
// the same choices from the same counts.
func (s *search) crossoverAll(pop *evo.Population) {
	pairs := pop.Pairs(s.rng)
	for len(s.pairs) < len(pairs) {
		s.pairs = append(s.pairs, &xpair{s: s})
	}
	xs := s.pairs[:len(pairs)]
	for i, pr := range pairs {
		x := xs[i]
		x.own = *xrand.New(s.rng.Uint64())
		x.start(pop.Members[pr[0]], pop.Members[pr[1]], &x.own)
	}
	if bs, ok := s.src.(BatchSource); ok {
		s.batchedRounds(bs, xs)
	} else {
		fanout.For(len(xs), s.workers, func(i int) { xs[i].run() })
	}
	for _, x := range xs {
		x.finish()
		s.evals += x.evals
	}
}

// batchedRounds advances all pairs together, one ExtendBatch per
// round, until none has work left.
func (s *search) batchedRounds(bs BatchSource, xs []*xpair) {
	for {
		s.xreq, s.xend = s.xreq[:0], s.xend[:0]
		for _, x := range xs {
			s.xreq = x.queue(s.xreq)
			s.xend = append(s.xend, len(s.xreq))
		}
		if len(s.xreq) == 0 {
			return
		}
		counts := bs.ExtendBatch(s.xreq)
		lo := 0
		for i, x := range xs {
			if hi := s.xend[i]; hi > lo {
				x.advance(counts[lo:hi])
				lo = hi
			}
		}
	}
}

// run takes the pair's rounds one after another, extending its own
// partials in place.
func (x *xpair) run() {
	for {
		x.xs = x.queue(x.xs[:0])
		if len(x.xs) == 0 {
			return
		}
		x.counts = x.counts[:0]
		for _, e := range x.xs {
			x.counts = append(x.counts, e.P.Extend(e.J, e.R))
		}
		x.advance(x.counts)
	}
}

// start classifies the parents' positions per §2.2 and positions the
// pair at its first round:
//
//	Type I   — both parents '*': the children inherit '*'.
//	Type II  — neither parent '*' (k' positions): the 2^k'' value
//	           combinations over the k'' positions where the parents
//	           disagree are searched exhaustively for the lowest count
//	           (equivalently, at fixed dimensionality, the most
//	           negative sparsity coefficient).
//	Type III — exactly one parent '*' (2·(k−k') positions, disjoint
//	           between the parents): the first child is extended
//	           greedily, always adding the position whose range yields
//	           the most negative sparsity coefficient, until it has k
//	           positions.
//
// The second child is complementary: at every position it derives from
// the opposite parent than the first child did, which makes it, too, a
// k-dimensional projection.
//
// Under two-point crossover, or when either parent is infeasible
// (dimensionality ≠ k — possible only when resuming from a two-point
// population), the pair recombines at once by the two-point baseline,
// which is defined for any pair.
func (x *xpair) start(a, b evo.Genome, rng *xrand.RNG) {
	x.a, x.b, x.rng, x.evals = a, b, rng, 0
	x.stage = xTwoPoint
	k := x.s.opt.K
	switch x.s.opt.Crossover {
	case OptimizedCrossover:
		if cube.Cube(a).K() != k || cube.Cube(b).K() != k {
			twoPoint(a, b, rng)
			return
		}
	case TwoPointCrossover:
		twoPoint(a, b, rng)
		return
	default:
		panic("core: unknown crossover kind")
	}

	d := len(a)
	x.child = append(x.child[:0], make(evo.Genome, d)...)
	x.fromA = append(x.fromA[:0], make([]bool, d)...)
	x.equal, x.diff, x.cands = x.equal[:0], x.diff[:0], x.cands[:0]
	for j := range a {
		av, bv := a[j], b[j]
		switch {
		case av != cube.DontCare && bv != cube.DontCare:
			if av == bv {
				x.equal = append(x.equal, j)
			} else {
				x.diff = append(x.diff, j)
			}
		case av != cube.DontCare:
			x.cands = append(x.cands, xcand{j, av, true})
		case bv != cube.DontCare:
			x.cands = append(x.cands, xcand{j, bv, false})
		}
	}

	// Type II, equal values: either parent works; attribute to A.
	if x.base == nil {
		x.base = x.s.src.NewPartial()
	}
	x.base.Reset()
	for _, j := range x.equal {
		x.child[j] = a[j]
		x.fromA[j] = true
		x.base.Constrain(j, a[j])
	}
	x.need = k - len(x.equal) - len(x.diff)
	x.round = 0
	switch {
	case len(x.diff) == 0:
		x.stage = xTypeIII
	case len(x.diff) > x.s.opt.TypeIIExhaustiveLimit:
		// Fallback: resolve each differing position independently by
		// marginal count. Keeps the operator polynomial for adversarial
		// k'; the paper's observation is that k' is typically small, so
		// this path is rare.
		x.stage = xGreedyII
	default:
		x.stage = xTypeII
		x.best = -1
	}
}

// typeIIBits splits the k″−1 prefix choices of the exhaustive Type II
// search into hi bits fixed per round and lo bits (at most
// xPrefixBits) enumerated within it. Choice i is bit k″−2−i of a
// prefix's index, 0 taking parent A's value, so ascending indices are
// the depth-first order over the leaves, A before B.
func (x *xpair) typeIIBits() (hi, lo int) {
	m := len(x.diff) - 1
	lo = min(m, xPrefixBits)
	return m - lo, lo
}

// queue appends the pair's next round of extensions to xs. A pair with
// nothing left appends nothing.
func (x *xpair) queue(xs []Extension) []Extension {
	a, b := x.a, x.b
	switch x.stage {
	case xTypeII:
		hi, lo := x.typeIIBits()
		p := x.prefixes(hi, lo)
		j := x.diff[len(x.diff)-1]
		for _, q := range p {
			xs = append(xs, Extension{q, j, a[j]}, Extension{q, j, b[j]})
		}
	case xGreedyII:
		j := x.diff[x.round]
		xs = append(xs, Extension{x.base, j, a[j]}, Extension{x.base, j, b[j]})
	case xTypeIII:
		if x.round < x.need {
			for _, c := range x.cands {
				if c.pos >= 0 {
					xs = append(xs, Extension{x.base, c.pos, c.rng})
				}
			}
		}
	}
	return xs
}

// prefixes builds the current round's Type II prefix partials: the
// round's fixed choices on a copy of the base, then the lo varying
// choices by in-place doubling, so prefix q holds choice bits q.
// Prefix partials are grown on demand and never exceed xPrefixes.
func (x *xpair) prefixes(hi, lo int) []Partial {
	for len(x.prefix) < 1<<lo {
		x.prefix = append(x.prefix, x.s.src.NewPartial())
	}
	p := x.prefix[:1<<lo]
	p[0].CopyFrom(x.base)
	for i, j := range x.diff[:hi] {
		if x.round>>(hi-1-i)&1 == 0 {
			p[0].Constrain(j, x.a[j])
		} else {
			p[0].Constrain(j, x.b[j])
		}
	}
	for l := 0; l < lo; l++ {
		j := x.diff[hi+l]
		for q := 1<<l - 1; q >= 0; q-- {
			p[2*q+1].CopyFrom(p[q])
			p[2*q+1].Constrain(j, x.b[j])
			if q > 0 {
				p[2*q].CopyFrom(p[q])
			}
			p[2*q].Constrain(j, x.a[j])
		}
	}
	return p
}

// advance consumes the counts of the round queue requested last.
func (x *xpair) advance(counts []int) {
	switch x.stage {
	case xTypeII:
		// The first leaf, in depth-first order, with the lowest count.
		hi, lo := x.typeIIBits()
		first := x.round << (lo + 1)
		for i, n := range counts {
			x.evals++
			if x.best < 0 || n < x.best {
				x.best, x.leaf = n, first+i
			}
		}
		x.round++
		if x.round < 1<<hi {
			return
		}
		last := len(x.diff) - 1
		for i, j := range x.diff {
			x.take(j, x.leaf>>(last-i)&1 == 0)
		}
		x.stage, x.round = xTypeIII, 0
	case xGreedyII:
		x.evals += 2
		x.take(x.diff[x.round], counts[0] <= counts[1])
		x.round++
		if x.round == len(x.diff) {
			x.stage, x.round = xTypeIII, 0
		}
	case xTypeIII:
		// Add the candidate leaving the fewest records (most negative
		// sparsity at the resulting dimensionality). Ties break
		// uniformly at random, reservoir-style, so repeated crossovers
		// explore distinct optima.
		bestIdx, bestCount, nbest := -1, -1, 0
		i := 0
		for ci, c := range x.cands {
			if c.pos < 0 {
				continue // consumed
			}
			x.evals++
			n := counts[i]
			i++
			switch {
			case bestIdx < 0 || n < bestCount:
				bestIdx, bestCount, nbest = ci, n, 1
			case n == bestCount:
				nbest++
				if x.rng.Intn(nbest) == 0 {
					bestIdx = ci
				}
			}
		}
		c := x.cands[bestIdx]
		x.child[c.pos] = c.rng
		x.fromA[c.pos] = c.fromA
		x.base.Constrain(c.pos, c.rng)
		x.cands[bestIdx].pos = -1
		x.round++
	}
}

// take sets Type II position j from parent A (or B) and adds the
// constraint to the base.
func (x *xpair) take(j int, fromA bool) {
	if fromA {
		x.child[j], x.fromA[j] = x.a[j], true
	} else {
		x.child[j] = x.b[j]
	}
	x.base.Constrain(j, x.child[j])
}

// finish writes the children over the parents: the first child into
// a, the complementary one — every position from the other parent —
// into b. Two-point pairs recombined in start and have nothing left.
func (x *xpair) finish() {
	if x.stage == xTwoPoint {
		return
	}
	// Positions not chosen keep DontCare in the child; their derivation
	// flag must point at the parent whose entry is '*' there, so the
	// complementary child picks up the other parent's range.
	for _, c := range x.cands {
		if c.pos >= 0 {
			x.fromA[c.pos] = !c.fromA
		}
	}
	// Where the child derives from A it already equals a.
	for j, v := range x.child {
		if !x.fromA[j] {
			x.a[j], x.b[j] = v, x.a[j]
		}
	}
}

// twoPoint is the unbiased baseline, in place: exchange the segments
// to the right of a uniformly random cut point. Following the paper's
// example (3*2*1 × 1*33* → 3*23* and 1*3*1), the cut falls strictly
// inside the string. Children of the wrong dimensionality survive
// into the population and are penalized by evaluate.
func twoPoint(a, b evo.Genome, rng *xrand.RNG) {
	d := len(a)
	if d < 2 {
		return
	}
	cut := rng.IntRange(1, d-1)
	for j := cut; j < d; j++ {
		a[j], b[j] = b[j], a[j]
	}
}
