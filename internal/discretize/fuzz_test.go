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

// FuzzEquiDepthMatchesSort holds the selection to the full-sort oracle
// on a fuzzed column and φ: the cuts must equal sortedEquiDepthCuts bit
// for bit, or by value where the column mixes −0 and +0.
//
// A window reaches the bucketed path only past selectLeaf values, and
// the fuzzing engine stalls on inputs that long, so an input is
// compact: φ, a column length n, a base value and a few values placed
// as they are. The column is those values, then the base value stepped
// 0, 1, 2, … units in the last place toward zero until it holds n
// values: a tightly clustered bulk, or a run of equal values where the
// base is zero, infinite or NaN.
func FuzzEquiDepthMatchesSort(f *testing.F) {
	seed := func(phi, n uint16, base float64, vals ...float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, phi)
		b = binary.LittleEndian.AppendUint16(b, n)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(base))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	// ±0 ties: a run of +0 with −0 among the values placed.
	f.Add(seed(9, 600, 0, negZero, negZero, 1, -1, negZero, 2))
	// ±Inf tails next to ±MaxFloat64: a run of +Inf, and −Inf among
	// the values placed.
	tails := []float64{math.MaxFloat64, -math.MaxFloat64, 0.5, -0.25, 3}
	for range 30 {
		tails = append(tails, math.Inf(-1))
	}
	f.Add(seed(9, 90, math.Inf(1), tails...))
	// Subnormals, so narrow a span that bucketing must give way.
	f.Add(seed(7, 400, math.Float64frombits(300), math.Float64frombits(1), 0))
	// All missing.
	f.Add(seed(3, 20, math.NaN()))
	// φ above n.
	f.Add(seed(40, 5, 3, 1, 2, 1, 5))
	// One huge outlier among tightly clustered values: the rest share
	// the first bucket, which must be bucketed again.
	f.Add(seed(9, 700, 1, 1e300))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		phi := 2 + int(binary.LittleEndian.Uint16(data))%(math.MaxUint16-1)
		n := int(binary.LittleEndian.Uint16(data[2:])) % 4096
		base := binary.LittleEndian.Uint64(data[4:])
		var col []float64
		for data = data[12:]; len(data) >= 8; data = data[8:] {
			col = append(col, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		for step := uint64(0); len(col) < n; step++ {
			v := base
			if mag := base &^ (1 << 63); mag < infBits {
				v -= min(step, mag)
			}
			col = append(col, math.Float64frombits(v))
		}
		if len(col) == 0 {
			return
		}
		want := sortedEquiDepthCuts(col, phi)
		got := make([]float64, phi-1)
		new(selector).equiDepthCuts(got, append([]float64(nil), col...))
		if !sameCuts(got, want, mixesZeros(col)) {
			t.Fatalf("phi=%d n=%d: selection cuts %v, sorted cuts %v", phi, len(col), got, want)
		}
	})
}
