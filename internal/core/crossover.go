package core

import (
	"slices"

	"hido/internal/cube"
	"hido/internal/evo"
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
// round needs as Partial.Extend requests, and advance consumes them,
// so the pairs of every run in a lockstep can share each round's
// batch. A pair's state lives on its search and is reused by the pair
// in the same slot next generation, so steady state allocates nothing.
//
// The pair reads and writes only the positions either parent
// constrains, found by merging the parents' position lists: the first
// child is built in a and the complementary one in b by swapping the
// parents' values wherever the first child takes parent B's.
type xpair struct {
	s      *search
	rng    *xrand.RNG
	own    xrand.RNG // the pair's private stream, drawn from the master
	pop    *evo.Population
	ia, ib int        // the parents' member slots
	a, b   evo.Genome // parents; the pair turns them into the children
	evals  int

	stage int
	round int // Type II: prefix block; greedy II: diff index; Type III: steps taken
	need  int // Type III steps to take

	union  []int // positions either parent constrains, ascending
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
// where the other parent is '*'. taken marks one the child added.
type xcand struct {
	pos   int
	rng   uint16
	fromA bool
	taken bool
}

// startPairs matches the population pairwise and starts each pair's
// crossover (Figure 5's outer loop). Every pair's RNG seed is drawn
// from the run's master stream before any pair runs, so its choices do
// not depend on scheduling, and pairs write disjoint member slots.
func (s *search) startPairs() {
	pairs := s.pop.Pairs(s.rng)
	for len(s.pairs) < len(pairs) {
		s.pairs = append(s.pairs, &xpair{s: s})
	}
	s.xs = s.pairs[:len(pairs)]
	for i, pr := range pairs {
		x := s.xs[i]
		x.own = *xrand.New(s.rng.Uint64())
		x.start(s.pop, pr[0], pr[1], &x.own)
	}
}

// finishPairs writes the generation's children and counts their
// evaluations.
func (s *search) finishPairs() {
	for _, x := range s.xs {
		x.finish()
		s.evals += x.evals
	}
}

// recombine runs every run's pairs: a BatchSource gets each round's
// extensions across all pairs in one ExtendBatch, and any other source
// runs each pair to completion on the team. Either way every pair
// makes the same choices from the same counts.
func (l *lockstep) recombine() {
	l.xs = l.xs[:0]
	for _, s := range l.runs {
		l.xs = append(l.xs, s.xs...)
	}
	if bs, ok := l.src.(BatchSource); ok {
		l.batchedRounds(bs)
	} else {
		l.team.For(len(l.xs), func(i int) { l.xs[i].run() })
	}
}

// batchedRounds advances all pairs together, one ExtendBatch per
// round, until none has work left.
func (l *lockstep) batchedRounds(bs BatchSource) {
	for {
		l.xreq, l.xend = l.xreq[:0], l.xend[:0]
		for _, x := range l.xs {
			l.xreq = x.queue(l.xreq)
			l.xend = append(l.xend, len(l.xreq))
		}
		if len(l.xreq) == 0 {
			return
		}
		counts := bs.ExtendBatch(l.xreq)
		lo := 0
		for i, x := range l.xs {
			if hi := l.xend[i]; hi > lo {
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
// which is defined for any pair; its children can have any
// dimensionality, so their position lists are rebuilt by a scan.
func (x *xpair) start(pop *evo.Population, ia, ib int, rng *xrand.RNG) {
	a, b := pop.Members[ia], pop.Members[ib]
	pa, pb := pop.Pos[ia], pop.Pos[ib]
	x.pop, x.ia, x.ib = pop, ia, ib
	x.a, x.b, x.rng, x.evals = a, b, rng, 0
	x.stage = xTwoPoint
	k := x.s.opt.K
	switch x.s.opt.Crossover {
	case OptimizedCrossover:
		if len(pa) != k || len(pb) != k {
			x.twoPoint()
			return
		}
	case TwoPointCrossover:
		x.twoPoint()
		return
	default:
		panic("core: unknown crossover kind")
	}

	// Merge the parents' lists: the union in ascending order, each
	// position classified as it is met. Type II positions with equal
	// values go straight into the base: either parent works, and the
	// child keeps parent A's value.
	if x.base == nil {
		x.base = x.s.src.NewPartial()
	}
	x.base.Reset()
	x.union = slices.Grow(x.union[:0], 2*k)
	x.cands = slices.Grow(x.cands[:0], 2*k)
	x.diff = slices.Grow(x.diff[:0], k)
	equal := 0
	for i, l := 0, 0; i < len(pa) || l < len(pb); {
		var j int
		switch {
		case l == len(pb) || i < len(pa) && pa[i] < pb[l]:
			j = pa[i]
			i++
			x.cands = append(x.cands, xcand{pos: j, rng: a[j], fromA: true})
		case i == len(pa) || pb[l] < pa[i]:
			j = pb[l]
			l++
			x.cands = append(x.cands, xcand{pos: j, rng: b[j]})
		default:
			j = pa[i]
			i++
			l++
			if a[j] == b[j] {
				x.base.Constrain(j, a[j])
				equal++
			} else {
				x.diff = append(x.diff, j)
			}
		}
		x.union = append(x.union, j)
	}
	x.need = k - equal - len(x.diff)
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
				if !c.taken {
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
			if c.taken {
				continue
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
		x.cands[bestIdx].taken = true
		c := x.cands[bestIdx]
		x.base.Constrain(c.pos, c.rng)
		x.round++
	}
}

// take sets Type II position j of the first child from parent A (or
// B) and adds the constraint to the base. The position is settled, so
// the children are written at once: taking B swaps the parents' values.
func (x *xpair) take(j int, fromA bool) {
	if !fromA {
		x.a[j], x.b[j] = x.b[j], x.a[j]
	}
	x.base.Constrain(j, x.a[j])
}

// finish completes the children in place: the first child in a, the
// complementary one — every position from the other parent — in b.
// At a Type III position the first child holds the candidate's range
// if it took it and '*' otherwise, so it derives from B exactly when
// taken differs from fromA, and there the parents swap values. Both
// children then constrain only positions of the union, whose ascending
// order gives their new lists. Two-point pairs recombined in start and
// have nothing left.
func (x *xpair) finish() {
	if x.stage == xTwoPoint {
		return
	}
	a, b := x.a, x.b
	for _, c := range x.cands {
		if c.taken != c.fromA {
			a[c.pos], b[c.pos] = b[c.pos], a[c.pos]
		}
	}
	pa, pb := x.pop.Pos[x.ia][:0], x.pop.Pos[x.ib][:0]
	for _, j := range x.union {
		if a[j] != cube.DontCare {
			pa = append(pa, j)
		}
		if b[j] != cube.DontCare {
			pb = append(pb, j)
		}
	}
	x.pop.Pos[x.ia], x.pop.Pos[x.ib] = pa, pb
}

// twoPoint recombines the pair by the two-point baseline and rebuilds
// both children's position lists.
func (x *xpair) twoPoint() {
	twoPoint(x.a, x.b, x.rng)
	x.pop.Reindex(x.ia)
	x.pop.Reindex(x.ib)
}

// twoPoint is the unbiased baseline, in place: exchange the segments
// to the right of a uniformly random cut point. Following the paper's
// example (3*2*1 × 1*33* → 3*23* and 1*3*1), the cut falls strictly
// inside the string. Children of the wrong dimensionality survive
// into the population and are penalized by queueMisses.
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
