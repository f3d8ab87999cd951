package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sample() *Dataset {
	return FromRows([]string{"a", "b", "c"}, [][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
}

func TestShape(t *testing.T) {
	ds := sample()
	if ds.N() != 3 || ds.D() != 3 {
		t.Fatalf("shape = %dx%d", ds.N(), ds.D())
	}
	if got := ds.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v", got)
	}
}

func TestAppendRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched row")
		}
	}()
	sample().AppendRow([]float64{1}, "")
}

func TestFromRowsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ragged rows")
		}
	}()
	FromRows([]string{"a"}, [][]float64{{1}, {1, 2}})
}

func TestIndexPanics(t *testing.T) {
	ds := sample()
	for name, fn := range map[string]func(){
		"At row":     func() { ds.At(3, 0) },
		"At col":     func() { ds.At(0, 3) },
		"At neg":     func() { ds.At(-1, 0) },
		"Row":        func() { ds.Row(3) },
		"Column":     func() { ds.Column(-1) },
		"SetAt":      func() { ds.SetAt(0, 9, 1) },
		"SelectCols": func() { ds.SelectColumns([]int{5}) },
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

func TestRowColumnCopies(t *testing.T) {
	ds := sample()
	r := ds.Row(0)
	r[0] = 99
	if ds.At(0, 0) == 99 {
		t.Error("Row returned a view, want copy")
	}
	c := ds.Column(0)
	c[0] = 99
	if ds.At(0, 0) == 99 {
		t.Error("Column returned a view, want copy")
	}
}

func TestAppendColumn(t *testing.T) {
	ds := sample()
	buf := ds.AppendColumn([]float64{-1}, 2)
	want := append([]float64{-1}, ds.Column(2)...)
	if len(buf) != len(want) {
		t.Fatalf("AppendColumn = %v, want %v", buf, want)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("AppendColumn = %v, want %v", buf, want)
		}
	}
}

func TestRowView(t *testing.T) {
	ds := sample()
	v := ds.RowView(1)
	if v[0] != 4 || v[2] != 6 {
		t.Errorf("RowView(1) = %v", v)
	}
}

func TestLabels(t *testing.T) {
	ds := New([]string{"x"}, 0)
	ds.AppendRow([]float64{1}, "")
	ds.AppendRow([]float64{2}, "pos")
	ds.AppendRow([]float64{3}, "neg")
	if got := ds.Label(0); got != "" {
		t.Errorf("Label(0) = %q", got)
	}
	if got := ds.Label(1); got != "pos" {
		t.Errorf("Label(1) = %q", got)
	}
	dist := ds.ClassDistribution()
	if dist[""] != 1 || dist["pos"] != 1 || dist["neg"] != 1 {
		t.Errorf("ClassDistribution = %v", dist)
	}
}

func TestUnlabeled(t *testing.T) {
	ds := sample()
	if ds.Label(0) != "" {
		t.Error("unlabeled Label not empty")
	}
	if ds.ClassDistribution() != nil {
		t.Error("unlabeled ClassDistribution not nil")
	}
	if rare, frac := ds.RareClasses(0.05); rare != nil || frac != 0 {
		t.Error("unlabeled RareClasses not nil")
	}
}

func TestRareClasses(t *testing.T) {
	ds := New([]string{"x"}, 0)
	for i := 0; i < 95; i++ {
		ds.AppendRow([]float64{float64(i)}, "common")
	}
	for i := 0; i < 3; i++ {
		ds.AppendRow([]float64{float64(i)}, "rare1")
	}
	for i := 0; i < 2; i++ {
		ds.AppendRow([]float64{float64(i)}, "rare2")
	}
	rare, frac := ds.RareClasses(0.05)
	if !rare["rare1"] || !rare["rare2"] || rare["common"] {
		t.Errorf("RareClasses = %v", rare)
	}
	if math.Abs(frac-0.05) > 1e-12 {
		t.Errorf("rare fraction = %v, want 0.05", frac)
	}
}

func TestMissing(t *testing.T) {
	ds := sample()
	ds.SetAt(1, 1, math.NaN())
	if !ds.IsMissing(1, 1) || ds.IsMissing(0, 0) {
		t.Error("IsMissing wrong")
	}
	if got := ds.MissingCount(); got != 1 {
		t.Errorf("MissingCount = %d", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := sample()
	c := ds.Clone()
	c.SetAt(0, 0, 42)
	if ds.At(0, 0) == 42 {
		t.Error("Clone shares storage")
	}
}

func TestSelectColumns(t *testing.T) {
	ds := sample()
	sub := ds.SelectColumns([]int{2, 0})
	if sub.D() != 2 || sub.Names[0] != "c" || sub.Names[1] != "a" {
		t.Fatalf("SelectColumns names = %v", sub.Names)
	}
	if sub.At(1, 0) != 6 || sub.At(1, 1) != 4 {
		t.Errorf("SelectColumns values wrong: %v", sub.Row(1))
	}
}

func TestSelectRows(t *testing.T) {
	ds := sample()
	sub := ds.SelectRows([]int{2, 0})
	if sub.N() != 2 || sub.At(0, 0) != 7 || sub.At(1, 0) != 1 {
		t.Errorf("SelectRows wrong: %v %v", sub.Row(0), sub.Row(1))
	}
}

func TestColumnIndex(t *testing.T) {
	ds := sample()
	if ds.ColumnIndex("b") != 1 {
		t.Error("ColumnIndex(b) wrong")
	}
	if ds.ColumnIndex("zzz") != -1 {
		t.Error("ColumnIndex missing not -1")
	}
}

func TestDescribe(t *testing.T) {
	if s := sample().Describe(); !strings.Contains(s, "3 rows x 3 cols") {
		t.Errorf("Describe = %q", s)
	}
}

func TestReadCSVNumeric(t *testing.T) {
	in := "a,b,label\n1,2,x\n3,4,y\n"
	ds, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{Header: true, LabelColumn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.D() != 2 {
		t.Fatalf("shape %dx%d", ds.N(), ds.D())
	}
	if ds.Names[0] != "a" || ds.Names[1] != "b" {
		t.Errorf("names %v", ds.Names)
	}
	if ds.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %v", ds.At(1, 1))
	}
	if ds.Label(0) != "x" || ds.Label(1) != "y" {
		t.Errorf("labels %q %q", ds.Label(0), ds.Label(1))
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("1,2\n3,4\n"), ReadCSVOptions{LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Names[0] != "c0" || ds.Names[1] != "c1" {
		t.Errorf("names %v", ds.Names)
	}
	if ds.Labels != nil {
		t.Error("unexpected labels")
	}
}

func TestReadCSVMissingTokens(t *testing.T) {
	in := "a,b\n1,?\n,2\nNA,3\n"
	ds, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{Header: true, LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.IsMissing(0, 1) || !ds.IsMissing(1, 0) || !ds.IsMissing(2, 0) {
		t.Error("missing tokens not NaN")
	}
	if ds.MissingCount() != 3 {
		t.Errorf("MissingCount = %d", ds.MissingCount())
	}
}

func TestReadCSVCategoricalEncoding(t *testing.T) {
	in := "color,v\nred,1\nblue,2\nred,3\n"
	ds, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{Header: true, LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.At(0, 0) != ds.At(2, 0) {
		t.Error("same category encoded differently")
	}
	if ds.At(0, 0) == ds.At(1, 0) {
		t.Error("different categories encoded identically")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), ReadCSVOptions{}); err == nil {
		t.Error("empty input: no error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), ReadCSVOptions{Header: true}); err == nil {
		t.Error("header only: no error")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), ReadCSVOptions{LabelColumn: -1}); err == nil {
		t.Error("ragged rows: no error")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n"), ReadCSVOptions{LabelColumn: 5}); err == nil {
		t.Error("label column out of range: no error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := New([]string{"x", "y"}, 0)
	ds.AppendRow([]float64{1.5, math.NaN()}, "a")
	ds.AppendRow([]float64{-2, 7}, "b")
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), ReadCSVOptions{Header: true, LabelColumn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.D() != 2 {
		t.Fatalf("round trip shape %dx%d", back.N(), back.D())
	}
	if back.At(0, 0) != 1.5 || !back.IsMissing(0, 1) || back.At(1, 1) != 7 {
		t.Error("round trip values wrong")
	}
	if back.Label(0) != "a" || back.Label(1) != "b" {
		t.Error("round trip labels wrong")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	ds := sample()
	path := t.TempDir() + "/out.csv"
	if err := ds.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path, ReadCSVOptions{Header: true, LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 || back.At(2, 2) != 9 {
		t.Error("file round trip wrong")
	}
}

func TestImputeMean(t *testing.T) {
	ds := FromRows([]string{"a"}, [][]float64{{1}, {math.NaN()}, {3}})
	imp := ds.ImputeMissing(ImputeMean)
	if got := imp.At(1, 0); got != 2 {
		t.Errorf("mean impute = %v, want 2", got)
	}
	if !ds.IsMissing(1, 0) {
		t.Error("ImputeMissing mutated the original")
	}
}

func TestImputeMedianAndZero(t *testing.T) {
	ds := FromRows([]string{"a"}, [][]float64{{1}, {math.NaN()}, {2}, {100}})
	if got := ds.ImputeMissing(ImputeMedian).At(1, 0); got != 2 {
		t.Errorf("median impute = %v, want 2", got)
	}
	if got := ds.ImputeMissing(ImputeZero).At(1, 0); got != 0 {
		t.Errorf("zero impute = %v, want 0", got)
	}
}

func TestImputeAllMissingColumn(t *testing.T) {
	ds := FromRows([]string{"a"}, [][]float64{{math.NaN()}, {math.NaN()}})
	if got := ds.ImputeMissing(ImputeMean).At(0, 0); got != 0 {
		t.Errorf("all-missing impute = %v, want 0", got)
	}
}

func TestDropConstantColumns(t *testing.T) {
	ds := FromRows([]string{"const", "var", "allnan"}, [][]float64{
		{5, 1, math.NaN()},
		{5, 2, math.NaN()},
	})
	out, keep := ds.DropConstantColumns()
	if out.D() != 1 || out.Names[0] != "var" {
		t.Errorf("kept %v", out.Names)
	}
	if len(keep) != 1 || keep[0] != 1 {
		t.Errorf("keep = %v", keep)
	}
}

func TestStandardize(t *testing.T) {
	ds := FromRows([]string{"a", "b"}, [][]float64{
		{1, 5}, {2, 5}, {3, 5},
	})
	z := ds.Standardize()
	col := z.Column(0)
	if math.Abs(col[0]+1) > 1e-12 || math.Abs(col[1]) > 1e-12 || math.Abs(col[2]-1) > 1e-12 {
		t.Errorf("standardized col = %v", col)
	}
	// constant column becomes zeros
	for i := 0; i < 3; i++ {
		if z.At(i, 1) != 0 {
			t.Errorf("constant col standardized to %v", z.At(i, 1))
		}
	}
}

func TestStandardizePreservesNaN(t *testing.T) {
	ds := FromRows([]string{"a"}, [][]float64{{1}, {math.NaN()}, {3}})
	z := ds.Standardize()
	if !z.IsMissing(1, 0) {
		t.Error("Standardize filled a NaN")
	}
}

func TestSummarizeColumns(t *testing.T) {
	ds := sample()
	sums := ds.SummarizeColumns()
	if len(sums) != 3 {
		t.Fatalf("got %d summaries", len(sums))
	}
	if sums[0].Mean != 4 || sums[2].Max != 9 {
		t.Errorf("summaries wrong: %+v", sums)
	}
}

func TestCategoricalMetadata(t *testing.T) {
	in := "color,v\nred,1\nblue,2\nred,3\ngreen,4\n"
	ds, err := ReadCSV(strings.NewReader(in), ReadCSVOptions{Header: true, LabelColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.IsCategorical(0) || ds.IsCategorical(1) {
		t.Fatal("categorical flags wrong")
	}
	if got := ds.CategoryOf(0, ds.At(0, 0)); got != "red" {
		t.Errorf("CategoryOf = %q", got)
	}
	if got := ds.CategoryOf(1, 1); got != "" {
		t.Errorf("numeric CategoryOf = %q", got)
	}
	// CategoriesIn over the full span lists every category in code order.
	all := ds.CategoriesIn(0, math.Inf(-1), math.Inf(1))
	if len(all) != 3 || all[0] != "red" || all[1] != "blue" || all[2] != "green" {
		t.Errorf("CategoriesIn = %v", all)
	}
	if ds.CategoriesIn(1, 0, 10) != nil {
		t.Error("numeric CategoriesIn not nil")
	}
	// Clone and SelectColumns preserve the mapping.
	c := ds.Clone()
	if c.CategoryOf(0, ds.At(1, 0)) != "blue" {
		t.Error("Clone lost categories")
	}
	sub := ds.SelectColumns([]int{1, 0})
	if !sub.IsCategorical(1) || sub.IsCategorical(0) {
		t.Error("SelectColumns lost or misplaced categories")
	}
	if sub.CategoryOf(1, ds.At(3, 0)) != "green" {
		t.Error("SelectColumns category lookup broken")
	}
}

func TestSetCategoriesPanics(t *testing.T) {
	ds := sample()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SetCategories did not panic")
		}
	}()
	ds.SetCategories(9, nil)
}
