package cube

import (
	"slices"
	"testing"
	"testing/quick"

	"hido/internal/xrand"
)

func TestNewAllDontCare(t *testing.T) {
	c := New(5)
	if c.K() != 0 || len(c) != 5 {
		t.Fatalf("New(5) = %v", c)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestFromPairs(t *testing.T) {
	c := FromPairs(4, DimRange{1, 3}, DimRange{3, 9})
	if got := c.String(); got != "*3*9" {
		t.Errorf("String = %q, want *3*9 (paper's example)", got)
	}
	if c.K() != 2 {
		t.Errorf("K = %d", c.K())
	}
	dims := c.Dims()
	if len(dims) != 2 || dims[0] != 1 || dims[1] != 3 {
		t.Errorf("Dims = %v", dims)
	}
	pairs := c.Pairs()
	if len(pairs) != 2 || pairs[0] != (DimRange{1, 3}) || pairs[1] != (DimRange{3, 9}) {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestFromPairsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"dup dim":   func() { FromPairs(4, DimRange{1, 2}, DimRange{1, 3}) },
		"dim range": func() { FromPairs(4, DimRange{7, 2}) },
		"dontcare":  func() { FromPairs(4, DimRange{1, DontCare}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCloneWithEqual(t *testing.T) {
	c := FromPairs(3, DimRange{0, 1})
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	e := c.With(1, 5)
	if c.Equal(e) {
		t.Error("With mutated nothing or Equal broken")
	}
	if c[1] != DontCare {
		t.Error("With mutated the receiver")
	}
	if e[1] != 5 || e.K() != 2 {
		t.Errorf("With result = %v", e)
	}
	released := e.With(1, DontCare)
	if !released.Equal(c) {
		t.Error("With(DontCare) did not release")
	}
	if c.Equal(New(4)) {
		t.Error("Equal ignores length")
	}
}

func TestValid(t *testing.T) {
	c := FromPairs(3, DimRange{0, 10})
	if c.Valid(9) {
		t.Error("range 10 valid under phi=9")
	}
	if !c.Valid(10) {
		t.Error("range 10 invalid under phi=10")
	}
}

func TestCovers(t *testing.T) {
	c := FromPairs(4, DimRange{1, 3}, DimRange{3, 6}) // *3*6
	if !c.Covers([]uint16{9, 3, 9, 6}) {
		t.Error("matching cells not covered")
	}
	if c.Covers([]uint16{9, 3, 9, 7}) {
		t.Error("mismatching cells covered")
	}
	// missing attribute (0) in a constrained dimension → not covered
	if c.Covers([]uint16{9, 0, 9, 6}) {
		t.Error("missing constrained attribute covered")
	}
	// missing attribute in an unconstrained dimension is fine
	if !c.Covers([]uint16{0, 3, 0, 6}) {
		t.Error("missing unconstrained attribute blocked coverage")
	}
}

func TestStringWide(t *testing.T) {
	c := FromPairs(3, DimRange{0, 12}, DimRange{2, 1})
	if got := c.String(); got != "12.*.1" {
		t.Errorf("wide String = %q", got)
	}
}

func TestKeyUnique(t *testing.T) {
	a := FromPairs(3, DimRange{0, 1}, DimRange{1, 11})
	b := FromPairs(3, DimRange{0, 11}, DimRange{1, 1})
	if a.Key() == b.Key() {
		t.Errorf("distinct cubes share key %q", a.Key())
	}
}

func TestAppendKey(t *testing.T) {
	c := FromPairs(200, DimRange{3, 7}, DimRange{150, 300})
	got := c.AppendKey([]byte("prefix"))
	if string(got) != "prefix"+c.Key() {
		t.Errorf("AppendKey = %q, want prefix + %q", got, c.Key())
	}
	if New(5).Key() != "" {
		t.Errorf("all-DontCare key %q, want empty", New(5).Key())
	}
}

// TestKeyDecodeRoundTrip decodes the keys of random cubes pair by
// pair back into their constraints, checks that AppendKeyAt over the
// constrained dimensions builds the same key, and that a key cut
// inside a pair or carrying a '*' range is rejected.
func TestKeyDecodeRoundTrip(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 3000; trial++ {
		d := 1 + r.Intn(40)
		if r.Bool() {
			d = 1 + r.Intn(20000)
		}
		c := New(d)
		for _, j := range r.Sample(d, r.Intn(min(d, 8)+1)) {
			if r.Bool() {
				c[j] = uint16(r.IntRange(1, 9))
			} else {
				c[j] = uint16(r.IntRange(1, 65535))
			}
		}
		key := c.Key()
		if at := string(c.AppendKeyAt(nil, c.Dims())); at != key {
			t.Fatalf("%v: AppendKeyAt %q, Key %q", c.Pairs(), at, key)
		}
		var got []DimRange
		var ends []int
		for rest := key; rest != ""; {
			p, n := DecodeKeyPair(rest)
			if n <= 0 {
				t.Fatalf("%v: key %q rejected at %q", c.Pairs(), key, rest)
			}
			got = append(got, p)
			rest = rest[n:]
			ends = append(ends, len(key)-len(rest))
		}
		if want := c.Pairs(); !slices.Equal(got, want) {
			t.Fatalf("key %q decodes to %v, want %v", key, got, want)
		}
		// Every cut strictly inside the last pair leaves a malformed tail.
		if len(ends) > 0 {
			start := 0
			if len(ends) > 1 {
				start = ends[len(ends)-2]
			}
			for cut := start + 1; cut < len(key); cut++ {
				if _, n := DecodeKeyPair(key[start:cut]); n >= 0 {
					t.Fatalf("key %q cut to %q decodes (n=%d)", key, key[start:cut], n)
				}
			}
		}
	}
	if _, n := DecodeKeyPair(""); n != 0 {
		t.Errorf("empty key: n=%d, want 0", n)
	}
	if _, n := DecodeKeyPair("\x03\x00"); n >= 0 {
		t.Errorf("a '*' range decoded (n=%d)", n)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"*3*9", "111", "*", "12.*.1"} {
		c, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := c.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "a*1", "0", "1.x.2", "-1"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

func TestEnumerateCountMatchesSpaceSize(t *testing.T) {
	for _, c := range []struct{ d, k, phi int }{
		{4, 2, 3}, {5, 1, 4}, {5, 5, 2}, {6, 3, 2},
	} {
		count := 0
		Enumerate(c.d, c.k, c.phi, func(Cube) bool { count++; return true })
		want := SpaceSize(c.d, c.k, c.phi)
		if uint64(count) != want {
			t.Errorf("Enumerate(%d,%d,%d) visited %d, want %d", c.d, c.k, c.phi, count, want)
		}
	}
}

func TestEnumerateProducesValidDistinctCubes(t *testing.T) {
	seen := map[string]bool{}
	Enumerate(4, 2, 3, func(c Cube) bool {
		if c.K() != 2 {
			t.Fatalf("enumerated cube %v has K=%d", c, c.K())
		}
		if !c.Valid(3) {
			t.Fatalf("enumerated cube %v invalid", c)
		}
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate cube %v", c)
		}
		seen[k] = true
		return true
	})
}

func TestEnumerateEarlyStop(t *testing.T) {
	count := 0
	Enumerate(5, 2, 4, func(Cube) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop visited %d, want 7", count)
	}
}

func TestEnumeratePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k=0":   func() { Enumerate(3, 0, 2, func(Cube) bool { return true }) },
		"k>d":   func() { Enumerate(3, 4, 2, func(Cube) bool { return true }) },
		"phi<2": func() { Enumerate(3, 2, 1, func(Cube) bool { return true }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSpaceSizePaperClaim(t *testing.T) {
	// §3: d=20, k=4, phi=10 gives ~7·10⁷ possibilities.
	got := SpaceSize(20, 4, 10)
	if got != 48450000 { // C(20,4)=4845, times 10^4
		t.Errorf("SpaceSize(20,4,10) = %d, want 48450000", got)
	}
	if got < 4.8e7 || got > 7.1e7 {
		t.Errorf("SpaceSize(20,4,10) = %d, not in the paper's ~7e7 ballpark", got)
	}
}

func TestSpaceSizeEdges(t *testing.T) {
	if SpaceSize(5, 0, 10) != 1 {
		t.Error("k=0 should give 1")
	}
	if SpaceSize(5, 6, 10) != 0 {
		t.Error("k>d should give 0")
	}
	if SpaceSize(160, 3, 10) != 669920*1000 {
		t.Errorf("SpaceSize(160,3,10) = %d", SpaceSize(160, 3, 10))
	}
	// saturation, not overflow
	if SpaceSize(300, 150, 10) != ^uint64(0) {
		t.Error("huge space did not saturate")
	}
}

// Property: K equals number of non-zero entries; Covers is reflexive
// on a record assigned exactly the cube's ranges.
func TestQuickCubeInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		c := make(Cube, len(raw))
		k := 0
		for i, r := range raw {
			v := uint16(r % 11) // 0..10
			c[i] = v
			if v != DontCare {
				k++
			}
		}
		if c.K() != k {
			return false
		}
		cells := make([]uint16, len(c))
		for i, v := range c {
			if v == DontCare {
				cells[i] = 1
			} else {
				cells[i] = v
			}
		}
		if !c.Covers(cells) {
			return false
		}
		if len(c) == 1 && c[0] > 9 {
			// Documented Parse limitation: a lone wide position has no
			// dot separator to signal the wide form.
			return true
		}
		got, err := Parse(c.String())
		return err == nil && got.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	big := FromPairs(4, DimRange{0, 1}, DimRange{1, 3}, DimRange{3, 2})
	sub := FromPairs(4, DimRange{0, 1}, DimRange{3, 2})
	if !big.Contains(sub) {
		t.Error("superset constraints should contain the subset")
	}
	if sub.Contains(big) {
		t.Error("subset constraints should not contain the superset")
	}
	if !big.Contains(big) {
		t.Error("Contains not reflexive")
	}
	if !big.Contains(New(4)) {
		t.Error("all-DontCare not contained")
	}
	other := FromPairs(4, DimRange{0, 2})
	if big.Contains(other) {
		t.Error("conflicting range contained")
	}
	if big.Contains(New(5)) {
		t.Error("length mismatch contained")
	}
}
