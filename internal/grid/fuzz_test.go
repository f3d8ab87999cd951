package grid

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/xrand"
)

// FuzzBuild feeds the arbitrary float columns of discretize's
// FuzzEquiDepth — NaN, ±Inf and heavy duplicates included — through
// Fit and Build under both methods, and holds the index to the
// per-value path: a present value's record sits in exactly the bitmap
// AssignValue names, a missing value's record in none of its
// dimension, and NaiveCount equals Count for a cube drawn from the
// input.
func FuzzBuild(f *testing.F) {
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
	f.Add(seed(4, 0, negInf, math.Float64bits(2), math.Float64bits(math.MaxFloat64),
		math.Float64bits(math.Copysign(0, -1)), 0))
	f.Add(seed(0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		h := fnv.New64a()
		h.Write(data)
		rng := xrand.New(h.Sum64())
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
		// Past one 64-record word when the input is long enough, so
		// the word blocks split.
		n := max((len(vals)+d-1)/d, min(len(vals), 130))

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

		for _, method := range []discretize.Method{discretize.EquiDepth, discretize.EquiWidth} {
			g := discretize.Fit(ds, phi, method)
			ix := Build(g)
			for i := 0; i < n; i++ {
				for j, v := range ds.RowView(i) {
					want := g.AssignValue(j, v)
					for r := 1; r <= phi; r++ {
						if in := ix.RangeSet(j, uint16(r)).Test(i); in != (int(want) == r) {
							t.Fatalf("%v: value %v at (%d,%d) in bitmap %d = %v, AssignValue gives %d",
								method, v, i, j, r, in, want)
						}
					}
				}
			}
			c := cube.New(d)
			for _, j := range rng.Sample(d, 1+rng.Intn(d)) {
				c[j] = uint16(rng.IntRange(1, phi))
			}
			if got, want := ix.Count(c), NaiveCount(g, c); got != want {
				t.Fatalf("%v: cube %v Count %d, NaiveCount %d", method, c, got, want)
			}
		}
	})
}
