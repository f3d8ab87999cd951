package evo_test

import (
	"fmt"

	"hido/internal/evo"
)

// BestSet keeps the m best (lowest-fitness) solutions seen across the
// whole run, deduplicated by genome — Figure 3's BestSet.
func ExampleBestSet() {
	bs := evo.NewBestSet(2)
	bs.Offer(evo.Genome{1, 0}, -1.0)
	bs.Offer(evo.Genome{0, 2}, -3.0)
	bs.Offer(evo.Genome{0, 2}, -3.0) // duplicate: ignored
	bs.Offer(evo.Genome{2, 2}, -2.0) // evicts the -1.0 entry
	for _, e := range bs.Entries() {
		fmt.Printf("%v %.1f\n", e.Genome, e.Fitness)
	}
	fmt.Printf("mean quality %.1f\n", bs.MeanFitness())
	// Output:
	// [0 2] -3.0
	// [2 2] -2.0
	// mean quality -2.5
}

// De Jong's criterion: a population converges when 95% of its members
// agree on every gene.
func ExamplePopulation_Converged() {
	pop := evo.NewPopulation(20, 2)
	for i := range pop.Members {
		pop.Members[i] = evo.Genome{3, 1}
		pop.Reindex(i)
	}
	fmt.Println(pop.Converged())
	pop.Members[0] = evo.Genome{2, 1} // 95% still agree
	pop.Reindex(0)
	fmt.Println(pop.Converged())
	pop.Members[1] = evo.Genome{2, 1} // 90%: not converged
	pop.Reindex(1)
	fmt.Println(pop.Converged())
	// Output:
	// true
	// true
	// false
}
