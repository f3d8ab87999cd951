package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hido/internal/synth"
)

// TestEnsembleModelDigests pins the saved bytes of ensemble fits on two
// Table 1 profiles (data seed 1, phi 6, 8 members, search seeds 1–3),
// for evolutionary members (recorded before cube keys were packed) and
// brute-force members (recorded while each member still counted
// through a shared count cache). The union projection list is ordered
// by (sparsity, cubeLess); a change to that order, or to any member's
// search, reorders the model's projections and Alert.Matches indices
// and fails here.
func TestEnsembleModelDigests(t *testing.T) {
	want := map[string]string{
		"Segmentation/1":       "cddc722ed7c334aebd9c7a7be64d23af82517ae3ffadb300ab09042d75403a7c",
		"Segmentation/2":       "0f392f5f576580e963c7d8ac1c955a01bda9c85fd0839950e3b52c1b9c5a9e40",
		"Segmentation/3":       "c6aa3cdef0e87d8ffb6af55705a3b95ccdc9fc15ce6914ac2ed152d67135a1a6",
		"Ionosphere/1":         "be4613729d1446a6368d3f0349e3f2d1135f312c75a1a7217b65967d944f5562",
		"Ionosphere/2":         "97443e56394b5896ec5f8c8005d6a63cb3198a32dda54e749ea722826f1f4faf",
		"Ionosphere/3":         "f8b5bfeb98a975fdb6cd8d119f41a4b71006440f1d9ef63f6f0d1a754080cec0",
		"Segmentation/brute/1": "d16d967ca4b3b0e2963535326aa973c4377d594f2de0b513720d30fa82abdb90",
		"Segmentation/brute/2": "8807c73848bbb5f739e58bf3f98bf612ab2b2f3ed19a291ba0a51a1c9122a3fa",
		"Segmentation/brute/3": "16daabe7ea2b0c359cca37b828545db69be8d084319f45e8986ebb8e9ca0d440",
		"Ionosphere/brute/1":   "f13f4647867e9dc72c481e549d94cf9ab56606c23bd83c3dca5d8071c1a63225",
		"Ionosphere/brute/2":   "87a60222432a46aef3346595493ef6f6d34987ce94101caa512fbdf89eea11bc",
		"Ionosphere/brute/3":   "dd4fcb5fc23f28c6b9263e9cdd30f873128ada9ed7f4aef268abf21a10aac962",
	}
	for _, profile := range []string{"Segmentation", "Ionosphere"} {
		p, err := synth.ProfileByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"", "brute"} {
			for seed := uint64(1); seed <= 3; seed++ {
				m, err := NewMonitor(ds, Options{Phi: 6, Seed: seed,
					Ensemble: &EnsembleOptions{Members: 8, Algo: algo}})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				name := fmt.Sprintf("%s/%d", profile, seed)
				if algo != "" {
					name = fmt.Sprintf("%s/%s/%d", profile, algo, seed)
				}
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("%s: model digest %s, want %s", name, got, want[name])
				}
				// Load rebuilds the union from the members; it must land
				// on the saved order, or Matches indices would drift.
				loaded, err := Load(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				var again bytes.Buffer
				if err := loaded.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), buf.Bytes()) {
					t.Errorf("%s: Load then Save changed the model bytes", name)
				}
			}
		}
	}
}
