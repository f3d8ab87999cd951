package core

import (
	"fmt"
	"time"

	"hido/internal/evo"
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
	// island per generation, in island order from the calling goroutine
	// (run IDs "evo.i0", "evo.i1", …), plus an "evo-islands" summary.
	// Evo.Workers is the TOTAL worker budget: the islands advance in
	// lockstep, a generation at a time, and every island's phases,
	// crossover pairs and counts share one pool. Results are identical
	// at every worker count — each island owns an independent RNG
	// stream seeded from the master seed, and migration plus best-set
	// merging happen in island order between generations.
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

// EvolutionaryIslands runs the island-model genetic search: a short
// loop around the lockstep step that restarts share, adding the
// islands' seeds, the offer of each initial population, migration and
// one stop for all islands. The result's projections are the best M
// across all islands.
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

	// Each island owns an independent search state — RNG stream, best
	// set, run-local fitness memo — seeded serially from the master
	// stream, so the per-island trajectories are fixed by eo.Seed alone.
	master := xrand.New(eo.Seed)
	searches := make([]*search, opt.Islands)
	islands := make([]*evo.Population, opt.Islands)
	for i := range searches {
		io := eo
		io.Seed = master.Uint64()
		io.RunID = fmt.Sprintf("%s.i%d", eo.RunID, i)
		searches[i] = newSearch(src, io)
		islands[i] = searches[i].pop
	}
	l := newLockstep(src, eo.Workers, searches)
	defer l.team.Close()
	l.seed()
	for _, s := range searches {
		s.offerAll(s.pop)
	}

	res := &Result{}
	stall := 0
	gen := 0
	for ; gen < eo.MaxGenerations; gen++ {
		l.step()
		stall++
		for _, s := range searches {
			if s.improved {
				stall = 0
			}
			s.notifyGeneration(s.pop, gen, s.frac)
		}
		if (gen+1)%opt.MigrateEvery == 0 && opt.Islands > 1 && opt.Migrants > 0 {
			evo.Migrate(islands, opt.Migrants)
		}
		// The islands stop together, once every population — after the
		// migration — meets the De Jong criterion.
		converged := true
		for _, pop := range islands {
			converged = converged && pop.Converged()
		}
		if converged {
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
	// The M best distinct solutions across all islands, merged in island
	// order (Offer dedups by genome key).
	bs := evo.NewBestSet(eo.M)
	for _, s := range searches {
		res.Evaluations += s.evals
		for _, e := range s.bs.Entries() {
			bs.Offer(e.Genome, e.Fitness)
		}
	}
	finalizeOver(src, bs, res)
	res.Elapsed = time.Since(start)
	notifySummary(eo.Observer, eo.RunID, "evo-islands", res, false)
	return res, nil
}
