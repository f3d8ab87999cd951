package ensemble

import (
	"math"
	"strings"
	"testing"

	"hido/internal/core"
	"hido/internal/dataset"
	"hido/internal/synth"
)

// testDetector builds a small planted data set with correlated groups
// so restricted searches have real sparse structure to find.
func testDetector(t *testing.T, n, d, phi int, seed uint64) (*core.Detector, *dataset.Dataset) {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name: "ens-test", N: n, D: d,
		Groups:   []synth.Group{{Dims: []int{0, 1, 2}}, {Dims: []int{3, 4}}},
		Outliers: 3,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewDetector(ds, phi), ds
}

func fitOrDie(t *testing.T, det *core.Detector, opt Options) *Result {
	t.Helper()
	res, err := Fit(det, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Ensemble scores must be bit-identical for a fixed seed at workers
// 1, 4, and 8 — run under -race in CI.
func TestEnsembleWorkerDeterminism(t *testing.T) {
	det, _ := testDetector(t, 220, 8, 4, 41)
	for _, algo := range []Algo{EvoAlgo, BruteAlgo} {
		for _, comb := range []Combiner{RankCombiner, ZScoreCombiner, MaxCombiner} {
			opt := Options{
				Members: 6, BagSize: 5, Algo: algo, K: 2, M: 5,
				Combiner: comb, Seed: 99,
				PopSize: 24, MaxGenerations: 25,
			}
			base := fitOrDie(t, det, opt)
			for _, w := range []int{4, 8} {
				o := opt
				o.Workers = w
				got := fitOrDie(t, det, o)
				for i := range base.Combined {
					if base.Combined[i] != got.Combined[i] {
						t.Fatalf("%v/%v: workers=%d changed score[%d]: %v vs %v",
							algo, comb, w, i, base.Combined[i], got.Combined[i])
					}
				}
				for r := range base.Evidence {
					for i := range base.Evidence[r] {
						if base.Evidence[r][i] != got.Evidence[r][i] {
							t.Fatalf("%v/%v: workers=%d changed evidence[%d][%d]",
								algo, comb, w, r, i)
						}
					}
				}
			}
		}
	}
}

// Seed sweep: distinct seeds must produce distinct bags (with
// overwhelming probability at this shape), same seed identical runs.
func TestEnsembleSeedReproducibility(t *testing.T) {
	det, _ := testDetector(t, 200, 8, 3, 43)
	opt := Options{Members: 4, BagSize: 4, K: 2, M: 4, Seed: 7,
		PopSize: 20, MaxGenerations: 20}
	a := fitOrDie(t, det, opt)
	b := fitOrDie(t, det, opt)
	for i := range a.Combined {
		if a.Combined[i] != b.Combined[i] {
			t.Fatalf("same seed, different score[%d]", i)
		}
	}
	opt.Seed = 8
	c := fitOrDie(t, det, opt)
	differs := false
	for r := range a.Members {
		if len(a.Members[r].Dims) != len(c.Members[r].Dims) {
			differs = true
			break
		}
		for j := range a.Members[r].Dims {
			if a.Members[r].Dims[j] != c.Members[r].Dims[j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 drew identical bags for every member")
	}
}

// Differential satellite: a 1-member ensemble over the full feature
// set must reproduce the corresponding single search exactly — brute
// and evo, at workers 1, 4, and 8 (run under -race in CI). Under the
// max combiner the combined score is exactly the negated single-search
// score.
func TestSingleMemberDifferential(t *testing.T) {
	det, _ := testDetector(t, 240, 7, 4, 47)
	const k, m = 3, 6

	singleBrute, err := det.BruteForce(core.BruteForceOptions{K: k, M: m})
	if err != nil {
		t.Fatal(err)
	}
	singleEvo, err := det.Evolutionary(core.EvoOptions{K: k, M: m, Seed: 5,
		PopSize: 30, MaxGenerations: 40})
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 4, 8} {
		for _, tc := range []struct {
			algo   Algo
			single *core.Result
		}{
			{BruteAlgo, singleBrute},
			{EvoAlgo, singleEvo},
		} {
			ens := fitOrDie(t, det, Options{
				Members: 1, BagSize: det.D(), Algo: tc.algo,
				K: k, M: m, Combiner: MaxCombiner, Seed: 5, Workers: w,
				PopSize: 30, MaxGenerations: 40,
			})
			if len(ens.Members[0].Projections) != len(tc.single.Projections) {
				t.Fatalf("%v w=%d: member retained %d projections, single %d",
					tc.algo, w, len(ens.Members[0].Projections), len(tc.single.Projections))
			}
			for pi, p := range ens.Members[0].Projections {
				sp := tc.single.Projections[pi]
				if !p.Cube.Equal(sp.Cube) || p.Sparsity != sp.Sparsity || p.Count != sp.Count {
					t.Fatalf("%v w=%d: projection %d differs: %v vs %v", tc.algo, w, pi, p, sp)
				}
			}
			for i := range ens.Combined {
				if ens.Combined[i] != -tc.single.Score(det, i) {
					t.Fatalf("%v w=%d: score[%d] = %v, single = %v",
						tc.algo, w, i, ens.Combined[i], tc.single.Score(det, i))
				}
			}
		}
	}
}

// Every member must honor its bag: no retained projection may
// constrain a dimension outside it.
func TestMembersHonorBags(t *testing.T) {
	det, _ := testDetector(t, 200, 9, 3, 53)
	res := fitOrDie(t, det, Options{Members: 8, BagSize: 4, K: 2, M: 5, Seed: 3,
		PopSize: 20, MaxGenerations: 25})
	for r, m := range res.Members {
		if len(m.Dims) != 4 {
			t.Fatalf("member %d bag size %d, want 4", r, len(m.Dims))
		}
		inBag := map[int]bool{}
		for _, j := range m.Dims {
			inBag[j] = true
		}
		for _, p := range m.Projections {
			for _, dim := range p.Cube.Dims() {
				if !inBag[dim] {
					t.Fatalf("member %d projection %v constrains dim %d outside bag %v",
						r, p.Cube, dim, m.Dims)
				}
			}
		}
	}
}

// SampleBags must be serially derived: the first r bags never change
// when more members are added.
func TestSampleBagsPrefixStable(t *testing.T) {
	a := SampleBags(12, 3, 5, 77)
	b := SampleBags(12, 9, 5, 77)
	for r := range a {
		for j := range a[r] {
			if a[r][j] != b[r][j] {
				t.Fatalf("bag %d changed when members grew: %v vs %v", r, a[r], b[r])
			}
		}
	}
	for _, bag := range b {
		for j := 1; j < len(bag); j++ {
			if bag[j] <= bag[j-1] {
				t.Fatalf("bag %v not strictly increasing", bag)
			}
		}
	}
}

func TestEnsembleRanked(t *testing.T) {
	r := &Result{Combined: []float64{0.2, 0.9, 0.2, 0.5}}
	got := r.Ranked()
	want := []int{1, 3, 0, 2} // ties broken by ascending index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranked() = %v, want %v", got, want)
		}
	}
}

func TestEnsembleValidation(t *testing.T) {
	det, _ := testDetector(t, 120, 6, 3, 59)
	for _, tc := range []struct {
		name string
		opt  Options
		want string
	}{
		{"neg members", Options{Members: -1, K: 2, M: 3}, "members"},
		{"bag too big", Options{Members: 2, BagSize: 7, K: 2, M: 3}, "bag size"},
		{"bag under k", Options{Members: 2, BagSize: 2, K: 3, M: 3}, "bag size"},
		{"bad algo", Options{Members: 2, K: 2, M: 3, Algo: Algo(9)}, "algo"},
		{"bad combiner", Options{Members: 2, K: 2, M: 3, Combiner: Combiner(9)}, "combiner"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Fit(det, tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Detection sanity: on the planted generator the ensemble's top-ranked
// records should include the planted outliers.
func TestEnsembleFindsPlanted(t *testing.T) {
	det, ds := testDetector(t, 300, 10, 4, 61)
	res := fitOrDie(t, det, Options{Members: 12, BagSize: 5, K: 2, M: 10, Seed: 13,
		PopSize: 30, MaxGenerations: 40})
	truth := synth.OutlierIndices(ds)
	top := res.Ranked()[:len(truth)*4]
	if rec := synth.Recall(top, truth); rec < 2.0/3 {
		t.Fatalf("recall@%d = %v, want >= 2/3 (truth %v, top %v)", len(top), rec, truth, top[:10])
	}
}

// Member evidence comes from index covers and must equal the
// per-record Score loop it replaced, negated, bit for bit.
func TestEvidenceMatchesScoreLoop(t *testing.T) {
	det, _ := testDetector(t, 220, 8, 4, 43)
	res := fitOrDie(t, det, Options{
		Members: 4, BagSize: 5, K: 2, M: 6, Combiner: RankCombiner, Seed: 7,
		PopSize: 24, MaxGenerations: 20,
	})
	for r, mem := range res.Members {
		sr := &core.Result{Projections: mem.Projections}
		for i, ev := range res.Evidence[r] {
			if want := -sr.Score(det, i); math.Float64bits(ev) != math.Float64bits(want) {
				t.Fatalf("member %d record %d: evidence %v, Score loop %v", r, i, ev, want)
			}
		}
	}
}
