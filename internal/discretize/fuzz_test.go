package discretize

import (
	"encoding/binary"
	"math"
	"testing"

	"hido/internal/dataset"
)

// FuzzEquiDepth feeds arbitrary float columns — including NaN, ±Inf,
// and heavy duplicates — through Fit and checks the invariants every
// caller relies on: no panic, cells in [0, phi] with 0 exactly for
// missing values, and ascending cut points. grid.FuzzBuild holds the
// bitmap index built over the same columns to AssignValue.
func FuzzEquiDepth(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	posInf := math.Float64bits(math.Inf(1))
	negInf := math.Float64bits(math.Inf(-1))
	seed := func(phi, d byte, vals ...uint64) []byte {
		b := []byte{phi, d}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	f.Add(seed(3, 2, nan, posInf, negInf, math.Float64bits(1.5)))
	f.Add(seed(2, 1, nan, nan, nan))
	f.Add(seed(9, 3, math.Float64bits(7.0), math.Float64bits(7.0), math.Float64bits(7.0),
		math.Float64bits(7.0), math.Float64bits(7.0), math.Float64bits(-7.0)))
	f.Add(seed(255, 1, posInf, posInf, negInf))
	f.Add(seed(0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		phi := 2 + int(data[0])%15 // [2, 16]
		d := 1 + int(data[1])%4    // [1, 4]
		data = data[2:]

		vals := make([]float64, 0, len(data)/8+1)
		for len(data) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		if len(vals) == 0 {
			vals = append(vals, 0)
		}
		n := (len(vals) + d - 1) / d

		names := make([]string, d)
		for j := range names {
			names[j] = "x"
		}
		ds := dataset.New(names, n)
		row := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = vals[(i*d+j)%len(vals)]
			}
			ds.AppendRow(row, "")
		}

		for _, method := range []Method{EquiDepth, EquiWidth} {
			g := Fit(ds, phi, method)
			for j := 0; j < d; j++ {
				cuts := g.Cuts(j)
				if len(cuts) != phi-1 {
					t.Fatalf("%v dim %d: %d cuts, want %d", method, j, len(cuts), phi-1)
				}
				for i := 1; i < len(cuts); i++ {
					if cuts[i] < cuts[i-1] {
						t.Fatalf("%v dim %d: cuts not ascending: %v", method, j, cuts)
					}
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < d; j++ {
					v := ds.RowView(i)[j]
					c := g.Cell(i, j)
					if math.IsNaN(v) {
						if c != 0 {
							t.Fatalf("%v: NaN at (%d,%d) assigned range %d", method, i, j, c)
						}
						continue
					}
					if c < 1 || int(c) > phi {
						t.Fatalf("%v: value %v at (%d,%d) assigned range %d outside [1,%d]",
							method, v, i, j, c, phi)
					}
				}
			}
		}
	})
}
