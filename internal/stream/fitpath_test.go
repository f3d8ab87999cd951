package stream

import (
	"bytes"
	"testing"

	"hido/internal/core"
)

// TestNewMonitorOverIsNewMonitor: the count-source entry point over a
// detector's own source fits the model NewMonitor fits, byte for byte,
// and refuses an ensemble, which needs the rows.
func TestNewMonitorOverIsNewMonitor(t *testing.T) {
	ds := reference(400, 21)
	opt := Options{Phi: 5, Seed: 3}
	want, err := NewMonitor(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(ds, opt.Phi)
	got, err := NewMonitorOver(det.Source(), det.Grid.AllCuts(), ds.Names, opt)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := want.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("NewMonitorOver model differs from NewMonitor:\n%s\n%s", b.Bytes(), a.Bytes())
	}
	opt.Ensemble = &EnsembleOptions{}
	if _, err := NewMonitorOver(det.Source(), det.Grid.AllCuts(), ds.Names, opt); err == nil {
		t.Error("NewMonitorOver fitted an ensemble over counts")
	}
	if _, err := NewMonitorOver(det.Source(), det.Grid.AllCuts(), ds.Names, Options{Phi: 1 << 16}); err == nil {
		t.Error("NewMonitorOver accepted phi 65536")
	}
}
