package batchwire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"hido/internal/dataset"
	"hido/internal/testutil"
)

func sample(labels bool) *dataset.Dataset {
	ds := dataset.New([]string{"a", "b", "c"}, 4)
	rows := [][]float64{
		{1.5, -2.25, math.NaN()},
		{math.Inf(1), 0, -0},
		{math.Inf(-1), 1e-308, 3},
		{42, math.NaN(), math.NaN()},
	}
	for i, r := range rows {
		l := ""
		if labels {
			l = []string{"pos", "", "neg", "x"}[i]
		}
		ds.AppendRow(r, l)
	}
	return ds
}

func TestRoundTrip(t *testing.T) {
	for _, labeled := range []bool{false, true} {
		ds := sample(labeled)
		b := Encode(ds)
		got, err := Decode(nil, b, ds.D())
		if err != nil {
			t.Fatalf("labeled=%v: decode: %v", labeled, err)
		}
		if got.N() != ds.N() || got.D() != ds.D() {
			t.Fatalf("labeled=%v: shape %dx%d, want %dx%d", labeled, got.N(), got.D(), ds.N(), ds.D())
		}
		for i := 0; i < ds.N(); i++ {
			for j := 0; j < ds.D(); j++ {
				w, g := math.Float64bits(ds.At(i, j)), math.Float64bits(got.At(i, j))
				if w != g {
					t.Fatalf("labeled=%v: value (%d,%d) bits %x, want %x", labeled, i, j, g, w)
				}
			}
			if got.Label(i) != ds.Label(i) {
				t.Fatalf("labeled=%v: label %d = %q, want %q", labeled, i, got.Label(i), ds.Label(i))
			}
		}
		// The format is canonical: re-encoding reproduces the input.
		if !bytes.Equal(Encode(got), b) {
			t.Fatalf("labeled=%v: re-encode is not byte-identical", labeled)
		}
	}
}

func TestDecodeReuse(t *testing.T) {
	big := Encode(sample(false))
	smallDS := dataset.New([]string{"x"}, 1)
	smallDS.AppendRow([]float64{7}, "")
	small := Encode(smallDS)

	var dst *dataset.Dataset
	var err error
	dst, err = Decode(dst, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = Decode(dst, small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dst.N() != 1 || dst.D() != 1 || dst.At(0, 0) != 7 {
		t.Fatalf("reused decode got %dx%d", dst.N(), dst.D())
	}
	// A labeled decode followed by an unlabeled one must not leak labels.
	dst, err = Decode(dst, Encode(sample(true)), 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = Decode(dst, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Labels != nil {
		t.Fatal("labels leaked across a reused decode")
	}
}

func TestDecodeSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	b := Encode(sample(false))
	dst, err := Decode(nil, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if dst, err = Decode(dst, b, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %v per run, want 0", allocs)
	}
}

// labeledBatch is an n-row batch whose labels cycle through names.
func labeledBatch(n int, names ...string) *dataset.Dataset {
	ds := dataset.New([]string{"a"}, n)
	for i := 0; i < n; i++ {
		ds.AppendRow([]float64{float64(i)}, names[i%len(names)])
	}
	return ds
}

// A labeled batch decoded into a reused dataset reuses its label slice
// and shares one string per distinct label, and every label still
// round-trips byte for byte: repeated ones, more distinct ones than the
// intern table holds, empty and non-UTF-8 ones, and a second batch
// whose labels differ from the first's.
func TestDecodeLabelsInterned(t *testing.T) {
	many := make([]string, 3*internCap)
	for i := range many {
		many[i] = strings.Repeat("l", i) + "\xff\x00"
	}
	var dst *dataset.Dataset
	for _, ds := range []*dataset.Dataset{
		labeledBatch(100, "normal", "outlier", "", "normal"),
		labeledBatch(200, many...),
		labeledBatch(50, "outlier", "\xfe"),
	} {
		b := Encode(ds)
		var err error
		if dst, err = Decode(dst, b, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.N(); i++ {
			if dst.Label(i) != ds.Label(i) {
				t.Fatalf("label %d = %q, want %q", i, dst.Label(i), ds.Label(i))
			}
		}
		if !bytes.Equal(Encode(dst), b) {
			t.Fatal("re-encode of a labeled batch is not byte-identical")
		}
	}
	if testutil.RaceEnabled {
		return
	}
	b := Encode(labeledBatch(1000, "normal", "outlier"))
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if dst, err = Decode(dst, b, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state decode of a 1000-row batch with 2 distinct labels allocates %v per run, want at most 2", allocs)
	}
}

func TestDecodeRejectsHostileFrames(t *testing.T) {
	valid := Encode(sample(true))
	corrupt := func(mut func(b []byte) []byte) []byte {
		return mut(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", []byte("hib1"), "truncated"},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"unknown flags", corrupt(func(b []byte) []byte { b[4] |= 0x80; return b }), "unknown flag"},
		{"zero records", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[5:], 0)
			return b
		}), "empty batch"},
		{"zero dims", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[9:], 0)
			return b
		}), "dimension count"},
		{"huge dims", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[9:], maxDims+1)
			return b
		}), "dimension count"},
		// A declared count far beyond the payload must fail before any
		// allocation is sized from it.
		{"oversized count", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[5:], math.MaxUint32)
			return b
		}), "carries"},
		{"truncated values", valid[:headerLen+5], "carries"},
		{"trailing bytes", append(append([]byte(nil), Encode(sample(false))...), 0xff), "trailing"},
		{"truncated labels", valid[:len(valid)-1], "label"},
		{"oversized label", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[headerLen+4*3*8:], math.MaxUint32)
			return b
		}), "label"},
	}
	for _, tc := range cases {
		_, err := Decode(nil, tc.b, 0)
		if err == nil {
			t.Errorf("%s: decode accepted a hostile frame", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeDimensionCheck(t *testing.T) {
	b := Encode(sample(false))
	if _, err := Decode(nil, b, 5); err == nil || !strings.Contains(err.Error(), "model expects 5") {
		t.Fatalf("wantD mismatch not rejected: %v", err)
	}
	if _, err := Decode(nil, b, 3); err != nil {
		t.Fatalf("matching wantD rejected: %v", err)
	}
	if _, err := Decode(nil, b, 0); err != nil {
		t.Fatalf("wantD=0 rejected: %v", err)
	}
}
