package core

import (
	"fmt"
	"reflect"
	"testing"

	"hido/internal/cube"
	"hido/internal/evo"
	"hido/internal/xrand"
)

// recombine applies the optimized crossover to one pair on the master
// RNG stream and returns the children, leaving the parents untouched —
// the operator-level form of what crossoverAll does to every pair.
func (s *search) recombine(a, b evo.Genome) (evo.Genome, evo.Genome) {
	pop := populationOf(a, b)
	x := &xpair{s: s}
	x.start(pop, 0, 1, s.rng)
	x.run()
	x.finish()
	s.evals += x.evals
	return pop.Members[0], pop.Members[1]
}

// populationOf returns a population holding copies of the genomes,
// with their position lists built.
func populationOf(gs ...evo.Genome) *evo.Population {
	pop := evo.NewPopulation(len(gs), len(gs[0]))
	for i, g := range gs {
		copy(pop.Members[i], g)
		pop.Reindex(i)
	}
	return pop
}

// twoPoint is the two-point baseline on the master RNG stream,
// leaving the parents untouched.
func (s *search) twoPoint(a, b evo.Genome) (evo.Genome, evo.Genome) {
	ca, cb := a.Clone(), b.Clone()
	twoPoint(ca, cb, s.rng)
	return ca, cb
}

// refXover is the reference optimized crossover: a depth-first search
// over the 2^k″ Type II leaves, threading one partial per depth, then
// a sequential greedy Type III extension, each count taken the moment
// it is needed. The round-based operator must reproduce it exactly.
type refXover struct {
	src     CountSource
	opt     EvoOptions
	rng     *xrand.RNG
	evals   int
	partial Partial
	levels  []Partial
}

func (x *refXover) levelAt(depth int) Partial {
	for len(x.levels) <= depth {
		x.levels = append(x.levels, x.src.NewPartial())
	}
	return x.levels[depth]
}

func (x *refXover) twoPoint(a, b evo.Genome) (evo.Genome, evo.Genome) {
	d := len(a)
	ca, cb := a.Clone(), b.Clone()
	if d < 2 {
		return ca, cb
	}
	cut := x.rng.IntRange(1, d-1)
	for j := cut; j < d; j++ {
		ca[j], cb[j] = cb[j], ca[j]
	}
	return ca, cb
}

func (x *refXover) recombine(a, b evo.Genome) (evo.Genome, evo.Genome) {
	if x.opt.Crossover == TwoPointCrossover {
		return x.twoPoint(a, b)
	}
	k := x.opt.K
	if cube.Cube(a).K() != k || cube.Cube(b).K() != k {
		return x.twoPoint(a, b)
	}
	var equal, diff, typeIII []int
	for j := range a {
		av, bv := a[j], b[j]
		switch {
		case av != cube.DontCare && bv != cube.DontCare:
			if av == bv {
				equal = append(equal, j)
			} else {
				diff = append(diff, j)
			}
		case av != cube.DontCare || bv != cube.DontCare:
			typeIII = append(typeIII, j)
		}
	}
	child := make(evo.Genome, len(a))
	fromA := make([]bool, len(a))
	for _, j := range equal {
		child[j] = a[j]
		fromA[j] = true
	}
	if x.partial == nil {
		x.partial = x.src.NewPartial()
	}
	partial := x.partial
	x.bestTypeII(child, fromA, equal, diff, a, b, partial)
	x.greedyTypeIII(child, fromA, typeIII, a, b, partial, k)
	comp := make(evo.Genome, len(a))
	for j := range comp {
		if fromA[j] {
			comp[j] = b[j]
		} else {
			comp[j] = a[j]
		}
	}
	return child, comp
}

func (x *refXover) bestTypeII(child evo.Genome, fromA []bool, equal, diff []int, a, b evo.Genome, partial Partial) {
	partial.Reset()
	for _, j := range equal {
		partial.Constrain(j, child[j])
	}
	if len(diff) == 0 {
		return
	}
	if len(diff) > x.opt.TypeIIExhaustiveLimit {
		for _, j := range diff {
			x.evals++
			na := partial.Extend(j, a[j])
			x.evals++
			nb := partial.Extend(j, b[j])
			if na <= nb {
				child[j] = a[j]
				fromA[j] = true
			} else {
				child[j] = b[j]
			}
			partial.Constrain(j, child[j])
		}
		return
	}
	bestCount, bestMask := -1, 0
	var dfs func(depth, mask int, cur Partial)
	dfs = func(depth, mask int, cur Partial) {
		if depth == len(diff) {
			n := cur.Count()
			x.evals++
			if bestCount < 0 || n < bestCount {
				bestCount, bestMask = n, mask
			}
			return
		}
		j := diff[depth]
		next := x.levelAt(depth)
		next.CopyFrom(cur)
		next.Constrain(j, a[j])
		dfs(depth+1, mask|1<<depth, next)
		next.CopyFrom(cur)
		next.Constrain(j, b[j])
		dfs(depth+1, mask, next)
	}
	dfs(0, 0, partial)
	for i, j := range diff {
		if bestMask&(1<<i) != 0 {
			child[j] = a[j]
			fromA[j] = true
		} else {
			child[j] = b[j]
		}
		partial.Constrain(j, child[j])
	}
}

func (x *refXover) greedyTypeIII(child evo.Genome, fromA []bool, typeIII []int, a, b evo.Genome, partial Partial, k int) {
	type cand struct {
		pos   int
		rng   uint16
		fromA bool
	}
	cands := make([]cand, 0, len(typeIII))
	for _, j := range typeIII {
		if a[j] != cube.DontCare {
			cands = append(cands, cand{j, a[j], true})
		} else {
			cands = append(cands, cand{j, b[j], false})
		}
	}
	need := k - cube.Cube(child).K()
	for t := 0; t < need; t++ {
		bestIdx, bestCount, nbest := -1, -1, 0
		for ci, c := range cands {
			if c.pos < 0 {
				continue
			}
			x.evals++
			n := partial.Extend(c.pos, c.rng)
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
		if bestIdx < 0 {
			break
		}
		c := cands[bestIdx]
		child[c.pos] = c.rng
		fromA[c.pos] = c.fromA
		partial.Constrain(c.pos, c.rng)
		cands[bestIdx].pos = -1
	}
	for _, c := range cands {
		if c.pos >= 0 {
			fromA[c.pos] = !c.fromA
		}
	}
}

// roundSource is the local source behind the BatchSource seam: it
// answers each round in one call, as a remote source would, and logs
// the round sizes.
type roundSource struct {
	detectorSource
	rounds []int
	covers int
}

func (r *roundSource) ExtendBatch(xs []Extension) []int {
	r.rounds = append(r.rounds, len(xs))
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x.P.Extend(x.J, x.R)
	}
	return out
}

func (r *roundSource) CoverBatch(cs []cube.Cube) [][]int {
	r.covers++
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = r.Cover(c)
	}
	return out
}

// xoverCase is one oracle configuration: options, and a generator for
// parent pairs.
type xoverCase struct {
	name    string
	d, phi  int
	opt     EvoOptions
	parents func(r *xrand.RNG, d, k, phi int) (evo.Genome, evo.Genome)
}

// randomParents draws two independent feasible k-dimensional parents.
func randomParents(r *xrand.RNG, d, k, phi int) (evo.Genome, evo.Genome) {
	a, b := make(evo.Genome, d), make(evo.Genome, d)
	for _, g := range []evo.Genome{a, b} {
		for _, j := range r.Sample(d, k) {
			g[j] = uint16(r.IntRange(1, phi))
		}
	}
	return a, b
}

// sharedParents draws parents on the same k dimensions with differing
// values on all but a random few, so k″ is close to k.
func sharedParents(r *xrand.RNG, d, k, phi int) (evo.Genome, evo.Genome) {
	a, b := make(evo.Genome, d), make(evo.Genome, d)
	for _, j := range r.Sample(d, k) {
		a[j] = uint16(r.IntRange(1, phi))
		b[j] = a[j]
		if r.Intn(5) != 0 {
			for b[j] == a[j] {
				b[j] = uint16(r.IntRange(1, phi))
			}
		}
	}
	return a, b
}

// infeasibleParents mixes dimensionalities, as a resumed two-point
// population can.
func infeasibleParents(r *xrand.RNG, d, k, phi int) (evo.Genome, evo.Genome) {
	a, b := randomParents(r, d, k, phi)
	if r.Bool() {
		a, _ = randomParents(r, d, k+1, phi)
	} else {
		b, _ = randomParents(r, d, k-1, phi)
	}
	return a, b
}

func xoverCases() []xoverCase {
	return []xoverCase{
		{"random-k3", 8, 4, EvoOptions{K: 3}, randomParents},
		{"random-k5", 9, 3, EvoOptions{K: 5}, randomParents},
		// k'' up to 9: up to 512 leaves, so several Type II rounds.
		{"shared-k9", 12, 3, EvoOptions{K: 9}, sharedParents},
		// k'' above the exhaustive limit: the greedy fallback.
		{"greedy-limit2", 10, 4, EvoOptions{K: 6, TypeIIExhaustiveLimit: 2}, sharedParents},
		{"infeasible", 8, 4, EvoOptions{K: 3}, infeasibleParents},
		{"two-point", 8, 4, EvoOptions{K: 3, Crossover: TwoPointCrossover}, randomParents},
	}
}

// TestCrossoverMatchesReference is the oracle: on random parent pairs,
// the round-based operator yields the reference operator's children,
// evaluation count and per-pair RNG state, one pair at a time.
func TestCrossoverMatchesReference(t *testing.T) {
	for _, tc := range xoverCases() {
		t.Run(tc.name, func(t *testing.T) {
			det := NewDetector(plantedDataset(300, tc.d, 31), tc.phi)
			opt := tc.opt
			opt.M = 5
			s := newTestSearch(det, opt)
			ref := &refXover{src: det.Source(), opt: s.opt}
			gen := xrand.New(77)
			maxDiff := 0
			for trial := 0; trial < 200; trial++ {
				a, b := tc.parents(gen, tc.d, opt.K, tc.phi)
				seed := gen.Uint64()
				ref.rng, ref.evals = xrand.New(seed), 0
				wa, wb := ref.recombine(a, b)

				s.rng, s.evals = xrand.New(seed), 0
				ga, gb := s.recombine(a, b)
				if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gb, wb) {
					t.Fatalf("trial %d: %v × %v → %v, %v; reference %v, %v", trial, a, b, ga, gb, wa, wb)
				}
				if s.evals != ref.evals {
					t.Fatalf("trial %d: %d evaluations, reference %d", trial, s.evals, ref.evals)
				}
				if s.rng.State() != ref.rng.State() {
					t.Fatalf("trial %d: RNG state diverged from the reference", trial)
				}
				diff := 0
				for j := range a {
					if a[j] != cube.DontCare && b[j] != cube.DontCare && a[j] != b[j] {
						diff++
					}
				}
				maxDiff = max(maxDiff, diff)
			}
			if tc.name == "shared-k9" && maxDiff <= 6 {
				t.Errorf("no pair reached k'' > 6 (max %d): the multi-round path went untested", maxDiff)
			}
		})
	}
}

// TestCrossoverAllRounds runs whole generations through crossoverAll —
// over the worker pool and in lockstep rounds behind a BatchSource —
// against the reference applied pair by pair, and checks the round
// bounds: at most 64 Type II leaves per pair per round, at most 32
// prefix partials per pair, and at most k rounds per generation when
// k″ ≤ 6.
func TestCrossoverAllRounds(t *testing.T) {
	for _, tc := range xoverCases() {
		for _, mode := range []string{"workers=1", "workers=4", "batched"} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(t *testing.T) {
				det := NewDetector(plantedDataset(300, tc.d, 32), tc.phi)
				opt := tc.opt
				opt.M, opt.Seed = 5, 3
				if mode == "workers=4" {
					opt.Workers = 4
				}
				s := newSearch(det.Source(), opt.withDefaults())
				rs := &roundSource{detectorSource: detectorSource{det}}
				if mode == "batched" {
					s.src = rs
				}
				gen := xrand.New(5)
				for g := 0; g < 4; g++ {
					pop := evo.NewPopulation(40, tc.d)
					for i := 0; i < len(pop.Members); i += 2 {
						pop.Members[i], pop.Members[i+1] = tc.parents(gen, tc.d, opt.K, tc.phi)
						pop.Reindex(i)
						pop.Reindex(i + 1)
					}
					want := make([]evo.Genome, len(pop.Members))
					master := xrand.FromState(s.rng.State())
					ref := &refXover{src: det.Source(), opt: s.opt}
					pairs := pop.Pairs(master)
					seeds := make([]uint64, len(pairs))
					for i := range seeds {
						seeds[i] = master.Uint64()
					}
					for i, pr := range pairs {
						ref.rng = xrand.New(seeds[i])
						want[pr[0]], want[pr[1]] = ref.recombine(pop.Members[pr[0]], pop.Members[pr[1]])
					}

					evals0 := s.evals
					rs.rounds = rs.rounds[:0]
					s.crossoverAll(pop)
					if !reflect.DeepEqual(pop.Members, want) {
						t.Fatalf("generation %d: children differ from the reference", g)
					}
					if got := s.evals - evals0; got != ref.evals {
						t.Fatalf("generation %d: %d evaluations, reference %d", g, got, ref.evals)
					}
					if s.rng.State() != master.State() {
						t.Fatalf("generation %d: master RNG diverged", g)
					}
					for _, x := range s.pairs {
						if len(x.prefix) > xPrefixes {
							t.Fatalf("a pair holds %d prefix partials", len(x.prefix))
						}
					}
					for _, n := range rs.rounds {
						if n > len(pairs)*max(2*xPrefixes, 2*opt.K) {
							t.Fatalf("a round carried %d extensions for %d pairs", n, len(pairs))
						}
					}
					if mode == "batched" && opt.K <= 6 && opt.Crossover == OptimizedCrossover &&
						len(rs.rounds) > opt.K {
						t.Fatalf("generation %d took %d rounds at k=%d", g, len(rs.rounds), opt.K)
					}
				}
			})
		}
	}
}

// TestBatchSourceSearchMatchesLocal runs whole searches behind the
// BatchSource seam: restarts and the filter pass must reproduce the
// detector-backed result exactly, with one cover batch per pass.
func TestBatchSourceSearchMatchesLocal(t *testing.T) {
	det := NewDetector(plantedDataset(400, 9, 41), 5)
	opt := EvoOptions{K: 3, M: 10, Seed: 8, MaxGenerations: 30}
	want, err := det.EvolutionaryRestarts(opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs := &roundSource{detectorSource: detectorSource{det}}
	got, err := EvolutionaryRestartsOver(rs, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluations != want.Evaluations || got.Generations != want.Generations ||
		!reflect.DeepEqual(got.Projections, want.Projections) || !reflect.DeepEqual(got.Outliers, want.Outliers) {
		t.Fatalf("batched search differs: %d evaluations, %d generations, %d projections; local %d, %d, %d",
			got.Evaluations, got.Generations, len(got.Projections),
			want.Evaluations, want.Generations, len(want.Projections))
	}
	if rs.covers != 2 {
		t.Errorf("%d cover batches for 2 restarts", rs.covers)
	}
	threshold := want.Projections[len(want.Projections)/2].Sparsity
	fw, fg := want.FilterProjections(det, threshold), got.FilterProjectionsOver(rs, threshold)
	if !reflect.DeepEqual(fg.Outliers, fw.Outliers) || len(fg.Projections) != len(fw.Projections) {
		t.Fatal("batched filter pass differs from the local one")
	}
	if rs.covers != 3 {
		t.Errorf("%d cover batches after the filter pass, want 3", rs.covers)
	}
}
