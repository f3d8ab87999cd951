// Package evo supplies the population machinery of the paper's
// evolutionary search (§2.1–2.2): rank-based roulette selection with
// weights p − r(i) (Figure 4), pairing for crossover, the De Jong 95%
// gene-convergence termination criterion, best-set tracking, and
// per-generation statistics.
//
// The genome is a plain []uint16 — the paper's string encoding, where
// 0 is the don't-care '*' and 1..φ identify grid ranges. A string has
// one position per dimension but constrains only k ≪ d of them, so
// every population member also carries the sorted list of its
// constrained positions, and the per-member steps read that list
// instead of the d-length string. The problem-specific operators
// (optimized crossover, the two mutation types) live in the core
// package because they need grid counts; this package owns everything
// that is generic evolutionary bookkeeping.
package evo

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hido/internal/cube"
	"hido/internal/xrand"
)

// Genome is the string representation of a solution (Figure 3's
// population elements).
type Genome []uint16

// Clone returns a copy of the genome.
func (g Genome) Clone() Genome {
	out := make(Genome, len(g))
	copy(out, g)
	return out
}

// Key returns the genome's map key: cube.Cube's packed key of the same
// positions.
func (g Genome) Key() string { return cube.Cube(g).Key() }

// Population is a set of genomes with cached fitness values. Lower
// fitness is better throughout (the paper minimizes the sparsity
// coefficient).
type Population struct {
	Members []Genome
	Fitness []float64
	// Pos[i] lists the positions Members[i] constrains — its non-'*'
	// genes — in increasing order. Select carries each list with its
	// genome and operators that edit a genome keep its list current;
	// code that writes a genome any other way calls Reindex.
	Pos [][]int

	// next, nextFit and nextPos receive Select's draws and are then
	// swapped with Members, Fitness and Pos, so every generation after
	// the first reuses the previous generation's buffers. order,
	// weights and cum are the rank roulette's scratch; genes is
	// ConvergedFraction's.
	next    []Genome
	nextFit []float64
	nextPos [][]int
	order   []int
	weights []float64
	cum     []float64
	genes   []uint64
}

// NewPopulation allocates a population of size p with genomes of the
// given length, all zero. Callers fill the members, and ReindexAll
// them, before use.
func NewPopulation(p, genomeLen int) *Population {
	return &Population{
		Members: genomes(p, genomeLen),
		Fitness: make([]float64, p),
		Pos:     make([][]int, p),
	}
}

// genomes returns p zero genomes of length n carved from one array.
func genomes(p, n int) []Genome {
	buf := make([]uint16, p*n)
	out := make([]Genome, p)
	for i := range out {
		out[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// lists returns p empty position lists of capacity n carved from one
// array.
func lists(p, n int) [][]int {
	buf := make([]int, p*n)
	out := make([][]int, p)
	for i := range out {
		out[i] = buf[i*n : i*n : (i+1)*n]
	}
	return out
}

// Reindex rebuilds Pos[i] from Members[i] — an O(d) scan, for a genome
// that enters the population from outside the operators.
func (pop *Population) Reindex(i int) {
	pop.Pos[i] = cube.Cube(pop.Members[i]).AppendDims(pop.Pos[i][:0])
}

// ReindexAll rebuilds every member's list, as Reindex does, into
// lists that share one array sized to the longest.
func (pop *Population) ReindexAll() {
	n := 0
	for _, g := range pop.Members {
		n = max(n, cube.Cube(g).K())
	}
	pop.Pos = lists(pop.Len(), n)
	for i := range pop.Members {
		pop.Reindex(i)
	}
}

// Len returns the population size.
func (pop *Population) Len() int { return len(pop.Members) }

// Best returns the index of the member with the lowest fitness.
func (pop *Population) Best() int {
	best := 0
	for i, f := range pop.Fitness {
		if f < pop.Fitness[best] {
			best = i
		}
	}
	return best
}

// Stats summarizes one generation's fitness distribution.
type Stats struct {
	Gen      int
	BestFit  float64 // lowest fitness in the population
	MeanFit  float64
	WorstFit float64
}

// FitnessStats computes generation gen's fitness aggregates (best,
// mean, worst). Convergence and diversity are not among them: the core
// search tracks both as byproducts of its own passes.
func (pop *Population) FitnessStats(gen int) Stats {
	s := Stats{Gen: gen, BestFit: math.Inf(1), WorstFit: math.Inf(-1)}
	sum := 0.0
	for _, f := range pop.Fitness {
		if f < s.BestFit {
			s.BestFit = f
		}
		if f > s.WorstFit {
			s.WorstFit = f
		}
		sum += f
	}
	if pop.Len() > 0 {
		s.MeanFit = sum / float64(pop.Len())
	}
	return s
}

// Selection chooses the next generation's parents.
type Selection int

const (
	// RankRoulette is the paper's mechanism (Figure 4): sampling
	// probability proportional to p − r(i) with r(i) the 1-based rank in
	// ascending fitness order (most negative sparsity first).
	RankRoulette Selection = iota
	// Tournament picks the better of two uniformly drawn members.
	// Included for the selection-pressure ablation.
	Tournament
	// Uniform ignores fitness entirely; the no-pressure control.
	Uniform
)

func (s Selection) String() string {
	switch s {
	case RankRoulette:
		return "rank-roulette"
	case Tournament:
		return "tournament"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// Select replaces the population with p members drawn according to the
// strategy. Fitness values and position lists travel with their
// genomes, so no re-evaluation is needed. Each draw is copied into a
// buffer of its own, never aliased, because crossover and mutation
// edit the members in place. The buffers are the previous
// generation's, kept by the population and swapped with Members, so
// steady-state selection allocates nothing. A genome taken out of
// Members must therefore be cloned to outlive the next Select, as
// BestSet and island migration do.
func (pop *Population) Select(strategy Selection, rng *xrand.RNG) {
	p := pop.Len()
	if p == 0 {
		return
	}
	if len(pop.next) != p {
		n := 0
		for _, pos := range pop.Pos {
			n = max(n, len(pos))
		}
		pop.next = genomes(p, len(pop.Members[0]))
		pop.nextFit = make([]float64, p)
		pop.nextPos = lists(p, n)
	}
	switch strategy {
	case RankRoulette:
		// r(i): 1-based rank, most negative fitness ranked first.
		order := pop.order[:0]
		for i := 0; i < p; i++ {
			order = append(order, i)
		}
		pop.order = order
		// Stable and decided by `<` alone, so tied members keep their
		// order. It is the insertion-sort-and-merge sort.SliceStable
		// runs, so even NaN fitness ranks as in the clone-based
		// reference the tests keep.
		slices.SortStableFunc(order, func(a, b int) int {
			switch fa, fb := pop.Fitness[a], pop.Fitness[b]; {
			case fa < fb:
				return -1
			case fb < fa:
				return 1
			}
			return 0
		})
		// weight of the member with rank r is p - r; the best member
		// (r=1) gets weight p-1, the worst gets 0 and is never selected
		// (except when p == 1).
		weights := slices.Grow(pop.weights[:0], p)[:p]
		pop.weights = weights
		for rank, idx := range order {
			weights[idx] = float64(p - (rank + 1))
		}
		if p == 1 {
			weights[0] = 1
		}
		// Draw p members against the cumulative weights with binary
		// search — O(p log p) against WeightedChoice's O(p²) — while
		// reproducing its draws bit for bit: the prefix sums are built by
		// the same sequential additions, so `x < cum[j+1]` is the same
		// float comparison the linear scan performs.
		cum := append(pop.cum[:0], 0)
		for i, w := range weights {
			cum = append(cum, cum[i]+w)
		}
		pop.cum = cum
		total := cum[p]
		for i := 0; i < p; i++ {
			x := rng.Float64() * total
			j := sort.Search(p, func(k int) bool { return x < cum[k+1] })
			if j == p {
				// Floating-point slack, mirroring WeightedChoice: fall
				// back to the last index with positive weight.
				for j = p - 1; j > 0 && weights[j] <= 0; j-- {
				}
			}
			pop.draw(i, j)
		}
	case Tournament:
		for i := 0; i < p; i++ {
			a, b := rng.Intn(p), rng.Intn(p)
			if pop.Fitness[b] < pop.Fitness[a] {
				a = b
			}
			pop.draw(i, a)
		}
	case Uniform:
		for i := 0; i < p; i++ {
			pop.draw(i, rng.Intn(p))
		}
	default:
		panic("evo: unknown selection strategy")
	}
	pop.Members, pop.next = pop.next, pop.Members
	pop.Fitness, pop.nextFit = pop.nextFit, pop.Fitness
	pop.Pos, pop.nextPos = pop.nextPos, pop.Pos
}

// draw copies member j, its fitness and its position list into slot i
// of the generation Select is building.
func (pop *Population) draw(i, j int) {
	pop.next[i] = append(pop.next[i][:0], pop.Members[j]...)
	pop.nextFit[i] = pop.Fitness[j]
	pop.nextPos[i] = append(pop.nextPos[i][:0], pop.Pos[j]...)
}

// Pairs returns a random pairing of the population for crossover
// (Figure 5 matches solutions pairwise). With odd p, the last member
// sits the round out.
func (pop *Population) Pairs(rng *xrand.RNG) [][2]int {
	perm := rng.Perm(pop.Len())
	out := make([][2]int, 0, pop.Len()/2)
	for i := 0; i+1 < len(perm); i += 2 {
		out = append(out, [2]int{perm[i], perm[i+1]})
	}
	return out
}

// Migrate copies each population's best `migrants` members over the
// next one's worst members — the ring of an island model — rebuilding
// each immigrant's position list from its genome.
func Migrate(islands []*Population, migrants int) {
	order := make([][]int, len(islands))
	for i, pop := range islands {
		idx := make([]int, pop.Len())
		for m := range idx {
			idx[m] = m
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return pop.Fitness[idx[a]] < pop.Fitness[idx[b]]
		})
		order[i] = idx
	}
	// Collect emigrants first so a member is never overwritten before
	// being copied out.
	type emigrant struct {
		genome  Genome
		fitness float64
	}
	out := make([][]emigrant, len(islands))
	for i, pop := range islands {
		for m := 0; m < migrants && m < pop.Len(); m++ {
			src := order[i][m]
			out[i] = append(out[i], emigrant{pop.Members[src].Clone(), pop.Fitness[src]})
		}
	}
	for i := range islands {
		dst := islands[(i+1)%len(islands)]
		dstOrder := order[(i+1)%len(islands)]
		for m, em := range out[i] {
			// replace the destination's worst members
			slot := dstOrder[len(dstOrder)-1-m]
			dst.Members[slot] = em.genome
			dst.Fitness[slot] = em.fitness
			dst.Reindex(slot)
		}
	}
}

// ConvergedFraction returns the fraction of gene positions at which at
// least threshold of the population share one value. It reads the
// position lists, so it costs O(p·k·log(p·k)), not O(p·d): a position
// no member constrains is '*' in every member and agrees by
// definition. It keeps scratch on the population, so concurrent calls
// on one population are not safe.
func (pop *Population) ConvergedFraction(threshold float64) float64 {
	p := pop.Len()
	if p == 0 || len(pop.Members[0]) == 0 {
		return 0
	}
	// Every constrained gene as (position, value), sorted: a position's
	// run holds the members constraining it, and each value's sub-run
	// the members agreeing on that value.
	n := 0
	for _, pos := range pop.Pos {
		n += len(pos)
	}
	genes := slices.Grow(pop.genes[:0], n)
	for i, pos := range pop.Pos {
		g := pop.Members[i]
		for _, j := range pos {
			genes = append(genes, uint64(j)<<16|uint64(g[j]))
		}
	}
	slices.Sort(genes)
	pop.genes = genes
	need := threshold * float64(p)
	constrained, converged := 0, 0
	for lo := 0; lo < len(genes); {
		j, hi, most := genes[lo]>>16, lo, 0
		for run := lo; hi < len(genes) && genes[hi]>>16 == j; hi++ {
			if genes[hi] != genes[run] {
				run = hi
			}
			most = max(most, hi-run+1)
		}
		stars := p - (hi - lo)
		if float64(max(most, stars)) >= need {
			converged++
		}
		constrained++
		lo = hi
	}
	genomeLen := len(pop.Members[0])
	if float64(p) >= need {
		converged += genomeLen - constrained
	}
	return float64(converged) / float64(genomeLen)
}

// Converged implements De Jong's criterion: the population has
// converged when every gene position has 95% of the population
// agreeing on its value.
func (pop *Population) Converged() bool {
	return pop.ConvergedFraction(0.95) >= 1
}

// BestSet tracks the m best solutions seen so far (Figure 3's
// BestSet), deduplicated by genome key. Lower fitness is better.
type BestSet struct {
	m       int
	entries []BestEntry
	seen    map[string]struct{} // keys of the retained genomes
}

// BestEntry is one retained solution.
type BestEntry struct {
	Genome  Genome
	Fitness float64
}

// NewBestSet returns a tracker retaining the m best solutions.
func NewBestSet(m int) *BestSet {
	if m <= 0 {
		panic("evo: BestSet size must be positive")
	}
	return &BestSet{m: m, seen: map[string]struct{}{}}
}

// Offer submits a solution. It reports whether the set changed. The
// genome is cloned on retention.
func (bs *BestSet) Offer(g Genome, fitness float64) bool {
	var buf [32]byte
	return bs.OfferKey(g, cube.Cube(g).AppendKey(buf[:0]), fitness)
}

// OfferKey is Offer for a caller that already holds the genome's key
// bytes (cube.Cube(g).AppendKey); it allocates only when the set
// changes.
func (bs *BestSet) OfferKey(g Genome, key []byte, fitness float64) bool {
	if _, dup := bs.seen[string(key)]; dup {
		return false
	}
	if len(bs.entries) < bs.m {
		bs.seen[string(key)] = struct{}{}
		bs.entries = append(bs.entries, BestEntry{Genome: g.Clone(), Fitness: fitness})
		bs.fixupLast()
		return true
	}
	// entries is kept sorted ascending by fitness; worst is last.
	if fitness >= bs.entries[bs.m-1].Fitness {
		return false
	}
	delete(bs.seen, bs.entries[bs.m-1].Genome.Key())
	bs.entries[bs.m-1] = BestEntry{Genome: g.Clone(), Fitness: fitness}
	bs.seen[string(key)] = struct{}{}
	bs.fixupLast()
	return true
}

// fixupLast restores sortedness after the last entry changed.
func (bs *BestSet) fixupLast() {
	i := len(bs.entries) - 1
	for i > 0 && bs.entries[i].Fitness < bs.entries[i-1].Fitness {
		bs.entries[i], bs.entries[i-1] = bs.entries[i-1], bs.entries[i]
		i--
	}
}

// Len returns the number of retained solutions.
func (bs *BestSet) Len() int { return len(bs.entries) }

// Entries returns the retained solutions, best (lowest fitness) first.
// The slice is a copy; genomes are shared and must not be mutated.
func (bs *BestSet) Entries() []BestEntry {
	return append([]BestEntry(nil), bs.entries...)
}

// Worst returns the fitness of the worst retained solution, or +Inf
// when the set is not yet full — the threshold a new solution must
// beat.
func (bs *BestSet) Worst() float64 {
	if len(bs.entries) < bs.m {
		return math.Inf(1)
	}
	return bs.entries[len(bs.entries)-1].Fitness
}

// MeanFitness returns the average fitness of the retained solutions —
// the "quality" column of the paper's Table 1. It returns NaN when
// empty.
func (bs *BestSet) MeanFitness() float64 {
	if len(bs.entries) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, e := range bs.entries {
		sum += e.Fitness
	}
	return sum / float64(len(bs.entries))
}
