package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"hido/internal/synth"
)

// TestNewMonitorGOMAXPROCS fits single-search models on three Table 1
// profiles (data seed 1, phi 9, search seed 1) at several GOMAXPROCS
// values. The fit builds its grid and runs its restarts on GOMAXPROCS
// workers, and the saved bytes must not depend on how many there are;
// the pinned digests were recorded while the restarts still ran one
// after another on one goroutine.
func TestNewMonitorGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := map[string]string{
		"Musk":         "9bfef0922de3c6f6392de9843e10fe607f7162866065c63e17fde54891415a58",
		"Segmentation": "810b8e36d9b79c44cde541831da284d8129cee9055be09209028d87113332b72",
		"Ionosphere":   "1e3cefe9b024cda907fae55760db05cecac5cbac848c1dd72389529c465d48fc",
	}
	for _, profile := range []string{"Musk", "Segmentation", "Ionosphere"} {
		p, err := synth.ProfileByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			m, err := NewMonitor(ds, Options{Phi: 9, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[profile] {
				t.Errorf("%s at GOMAXPROCS=%d: model digest %s, want %s", profile, procs, got, want[profile])
			}
		}
	}
}
