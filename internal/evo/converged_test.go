package evo

import (
	"testing"

	"hido/internal/xrand"
)

// denseConvergedFraction is the reference De Jong fraction: a counter
// per value at every one of the d positions.
func denseConvergedFraction(pop *Population, threshold float64) float64 {
	if pop.Len() == 0 || len(pop.Members[0]) == 0 {
		return 0
	}
	genomeLen := len(pop.Members[0])
	maxVal := uint16(0)
	for _, g := range pop.Members {
		for _, v := range g {
			maxVal = max(maxVal, v)
		}
	}
	counts := make([]int, int(maxVal)+1)
	converged := 0
	need := threshold * float64(pop.Len())
	for pos := 0; pos < genomeLen; pos++ {
		clear(counts)
		most := 0
		for _, g := range pop.Members {
			counts[g[pos]]++
			most = max(most, counts[g[pos]])
		}
		if float64(most) >= need {
			converged++
		}
	}
	return float64(converged) / float64(genomeLen)
}

// TestPositionListsConvergedFractionMatchesDense holds the list-based
// De Jong fraction to the dense reference on random populations: ranges
// above 15, empty and fully constrained members, populations of one,
// and thresholds from none to all.
func TestPositionListsConvergedFractionMatchesDense(t *testing.T) {
	r := xrand.New(17)
	for trial := 0; trial < 2000; trial++ {
		p := 1 + r.Intn(40)
		d := 1 + r.Intn(12)
		maxRange := 1 + r.Intn(3)
		if r.Bool() {
			maxRange = 16 + r.Intn(300)
		}
		pop := NewPopulation(p, d)
		// A few shared templates make agreement likely; each member then
		// keeps, perturbs, empties or fills its template.
		templates := make([]Genome, 1+r.Intn(3))
		for i := range templates {
			templates[i] = make(Genome, d)
			for _, j := range r.Sample(d, r.Intn(d+1)) {
				templates[i][j] = uint16(r.IntRange(1, maxRange))
			}
		}
		for i, g := range pop.Members {
			copy(g, templates[r.Intn(len(templates))])
			switch r.Intn(6) {
			case 0:
				clear(g)
			case 1:
				for j := range g {
					g[j] = uint16(r.IntRange(1, maxRange))
				}
			case 2:
				g[r.Intn(d)] = uint16(r.Intn(maxRange + 1))
			}
			pop.Reindex(i)
		}
		for _, threshold := range []float64{0, 0.5, 0.9, 0.95, 1} {
			got, want := pop.ConvergedFraction(threshold), denseConvergedFraction(pop, threshold)
			if got != want {
				t.Fatalf("trial %d (p=%d d=%d threshold %v): ConvergedFraction %v, dense reference %v; members %v",
					trial, p, d, threshold, got, want, pop.Members)
			}
		}
	}
}
