package core

import (
	"fmt"
	"sort"
	"time"

	"hido/internal/evo"
	"hido/internal/fanout"
	"hido/internal/xrand"
)

// IslandOptions extends the evolutionary search with an island model:
// several populations evolve independently and periodically exchange
// their best members around a ring. Isolation preserves diversity —
// each island converges on a different region of the projection space
// — while migration still spreads strong building blocks. This is the
// library's structured alternative to unioning independent restarts
// (EvolutionaryRestarts): one run, wider coverage of the qualifying
// sparse projections.
type IslandOptions struct {
	// Evo carries the per-island parameters; Evo.PopSize is the size
	// of EACH island. Evo.Observer receives one generation event per
	// island per generation (run IDs "evo.i0", "evo.i1", …) plus an
	// "evo-islands" summary. Evo.Workers is the TOTAL worker budget:
	// islands evolve concurrently, and leftover workers fan out
	// inside each island's evaluator. Results
	// are identical at every worker count — each island owns an
	// independent RNG stream seeded from the master seed, islands
	// synchronize at a generation barrier, and migration plus best-set
	// merging happen in island order.
	Evo EvoOptions
	// Islands is the number of populations (default 4).
	Islands int
	// MigrateEvery is the generation interval between migrations
	// (default 10).
	MigrateEvery int
	// Migrants is how many members each island sends to its ring
	// neighbor per migration, replacing the neighbor's worst members
	// (default 2).
	Migrants int
}

func (o IslandOptions) withDefaults() IslandOptions {
	if o.Islands == 0 {
		o.Islands = 4
	}
	if o.MigrateEvery == 0 {
		o.MigrateEvery = 10
	}
	if o.Migrants == 0 {
		o.Migrants = 2
	}
	return o
}

// EvolutionaryIslands runs the island-model genetic search. The
// result's projections are the best M across all islands.
func (d *Detector) EvolutionaryIslands(opt IslandOptions) (*Result, error) {
	opt = opt.withDefaults()
	if opt.Islands < 1 || opt.MigrateEvery < 1 || opt.Migrants < 0 {
		return nil, fmt.Errorf("core: invalid island parameters %+v", opt)
	}
	src := d.Source()
	eo := opt.Evo
	if err := validateEvoOptions(src, eo); err != nil {
		return nil, err
	}
	if eo.Checkpoint != nil {
		return nil, fmt.Errorf("core: checkpointing is not supported with islands")
	}
	eo = eo.withDefaults()
	if opt.Migrants >= eo.PopSize {
		return nil, fmt.Errorf("core: %d migrants with island size %d", opt.Migrants, eo.PopSize)
	}
	start := time.Now()

	// Worker budget: islands evolve concurrently; leftover workers fan
	// out inside each island's evaluator.
	outer, inner := fanout.Split(fanout.Workers(eo.Workers), opt.Islands)

	// Each island owns an independent search state — RNG stream, best
	// set, run-local fitness memo — seeded serially from the master
	// stream, so the per-island trajectories are fixed by eo.Seed alone.
	master := xrand.New(eo.Seed)
	searches := make([]*search, opt.Islands)
	islands := make([]*evo.Population, opt.Islands)
	runID := eo.RunID
	if runID == "" {
		runID = "evo"
	}
	for i := range searches {
		io := eo
		io.Seed = master.Uint64()
		io.Workers = inner
		io.RunID = fmt.Sprintf("%s.i%d", runID, i)
		searches[i] = newSearch(src, io)
		islands[i] = evo.NewPopulation(eo.PopSize, d.D())
	}
	fanout.For(opt.Islands, outer, func(i int) {
		s, pop := searches[i], islands[i]
		s.randomPopulation(pop)
		s.evaluateAll(pop)
		s.offerAll(pop)
	})

	res := &Result{}
	improvedBy := make([]bool, opt.Islands)
	stall := 0
	gen := 0
	for ; gen < eo.MaxGenerations; gen++ {
		// One generation per island, concurrently; the barrier below
		// keeps migration and observation deterministic.
		fanout.For(opt.Islands, outer, func(i int) {
			s, pop := searches[i], islands[i]
			pop.Select(eo.Selection, s.rng)
			s.crossoverAll(pop)
			s.mutateAll(pop)
			s.evaluateAll(pop)
			improvedBy[i] = s.offerAll(pop)
		})
		if eo.Observer != nil {
			// One event per island, in island order at the barrier, so
			// delivery is deterministic.
			for i, s := range searches {
				s.notifyGeneration(islands[i], gen, islands[i].ConvergedFraction(0.95))
			}
		}
		if (gen+1)%opt.MigrateEvery == 0 && opt.Islands > 1 && opt.Migrants > 0 {
			migrate(islands, opt.Migrants)
		}
		improved := false
		for _, b := range improvedBy {
			improved = improved || b
		}
		if improved {
			stall = 0
		} else {
			stall++
		}
		allConverged := true
		for _, pop := range islands {
			if !pop.Converged() {
				allConverged = false
				break
			}
		}
		if allConverged {
			res.ConvergedDeJong = true
			gen++
			break
		}
		if eo.Patience > 0 && stall >= eo.Patience {
			gen++
			break
		}
	}

	res.Generations = gen
	res.Evaluations = sumEvals(searches)
	finalizeOver(src, mergeBestSets(searches, eo.M), res)
	res.Elapsed = time.Since(start)
	notifySummary(eo.Observer, runID, "evo-islands", res, false)
	return res, nil
}

// sumEvals totals the per-island logical evaluation counters.
func sumEvals(searches []*search) int {
	total := 0
	for _, s := range searches {
		total += s.evals
	}
	return total
}

// mergeBestSets folds the per-island best sets — in island order, so
// the merge is deterministic — into one global top-M. Offer dedups by
// genome key, so the result is exactly the M best distinct solutions
// across all islands.
func mergeBestSets(searches []*search, m int) *evo.BestSet {
	bs := evo.NewBestSet(m)
	for _, s := range searches {
		for _, e := range s.bs.Entries() {
			bs.Offer(e.Genome, e.Fitness)
		}
	}
	return bs
}

// migrate copies each island's best `migrants` members over the next
// island's worst members (ring topology), rebuilding each immigrant's
// position list from its genome.
func migrate(islands []*evo.Population, migrants int) {
	type ranked struct {
		idx []int
	}
	order := make([]ranked, len(islands))
	for i, pop := range islands {
		idx := make([]int, pop.Len())
		for m := range idx {
			idx[m] = m
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return pop.Fitness[idx[a]] < pop.Fitness[idx[b]]
		})
		order[i] = ranked{idx: idx}
	}
	// Collect emigrants first so a member is never overwritten before
	// being copied out.
	type emigrant struct {
		genome  evo.Genome
		fitness float64
	}
	out := make([][]emigrant, len(islands))
	for i, pop := range islands {
		for m := 0; m < migrants && m < pop.Len(); m++ {
			src := order[i].idx[m]
			out[i] = append(out[i], emigrant{pop.Members[src].Clone(), pop.Fitness[src]})
		}
	}
	for i := range islands {
		dst := islands[(i+1)%len(islands)]
		dstOrder := order[(i+1)%len(islands)].idx
		for m, em := range out[i] {
			// replace the destination's worst members
			slot := dstOrder[len(dstOrder)-1-m]
			dst.Members[slot] = em.genome
			dst.Fitness[slot] = em.fitness
			dst.Reindex(slot)
		}
	}
}
