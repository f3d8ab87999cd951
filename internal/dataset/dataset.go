// Package dataset provides the in-memory table abstraction underneath
// the outlier detectors: a row-major matrix of float64 values with NaN
// encoding missing attributes, named columns, and optional class
// labels used only for evaluation (rare-class recall in the paper's
// arrhythmia study), never by the detectors themselves.
//
// The paper's §3 notes the UCI data sets "were cleaned in order to
// take care of categorical and missing attributes"; the Clean helpers
// in this package implement that step: categorical columns are
// integer-encoded, and missing entries either stay NaN (the projection
// method handles them natively, §1.2) or are imputed for the
// full-dimensional distance baselines which cannot.
package dataset

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Dataset is an N×D table of float64 features with optional labels.
type Dataset struct {
	Names  []string  // D column names
	Labels []string  // optional, length N when present
	vals   []float64 // row-major N×D
	n, d   int
	// cats[j] maps a categorical column's integer codes back to the
	// original strings (nil for numeric columns). Populated by ReadCSV
	// and preserved by Clone/SelectColumns so explanations can render
	// category names instead of opaque codes.
	cats []map[float64]string
}

// New returns an empty dataset with the given column names, with
// capacity hints for rows.
func New(names []string, rowCap int) *Dataset {
	ds := &Dataset{
		Names: append([]string(nil), names...),
		d:     len(names),
	}
	ds.vals = make([]float64, 0, rowCap*ds.d)
	return ds
}

// Reset empties the dataset in place for reuse with the given column
// names, keeping the value storage's capacity — the pooled-decode path
// of the hidod server. Unlike New, the names slice is retained as-is
// (not copied), so callers passing a shared slice such as GenericNames
// must not mutate it afterwards.
func (ds *Dataset) Reset(names []string) {
	ds.Names = names
	ds.d = len(names)
	ds.n = 0
	ds.vals = ds.vals[:0]
	ds.Labels = nil
	ds.cats = nil
}

// genericNames caches the canonical positional column names c0, c1, …
// — the spelling of headerless CSV and JSON-lines ingestion. The names
// are prefix-stable, so one monotonically grown shared slice serves
// every width.
var genericNames struct {
	mu    sync.Mutex
	cache atomic.Value // []string, read lock-free
}

// GenericNames returns the positional column names c0 … c{d-1} as a
// shared read-only slice; callers must not mutate it.
func GenericNames(d int) []string {
	cur, _ := genericNames.cache.Load().([]string)
	if len(cur) < d {
		genericNames.mu.Lock()
		cur, _ = genericNames.cache.Load().([]string)
		if len(cur) < d {
			grown := make([]string, d)
			copy(grown, cur)
			for j := len(cur); j < d; j++ {
				grown[j] = fmt.Sprintf("c%d", j)
			}
			genericNames.cache.Store(grown)
			cur = grown
		}
		genericNames.mu.Unlock()
	}
	return cur[:d:d]
}

// FromRows builds a dataset from a slice of rows. Every row must have
// len(names) entries.
func FromRows(names []string, rows [][]float64) *Dataset {
	ds := New(names, len(rows))
	for i, r := range rows {
		if len(r) != ds.d {
			panic(fmt.Sprintf("dataset: row %d has %d values, want %d", i, len(r), ds.d))
		}
		ds.AppendRow(r, "")
	}
	return ds
}

// N returns the number of rows.
func (ds *Dataset) N() int { return ds.n }

// D returns the number of columns.
func (ds *Dataset) D() int { return ds.d }

// AppendRow adds one row. label may be empty; once any non-empty label
// has been supplied, all rows carry labels (empty strings fill gaps).
func (ds *Dataset) AppendRow(row []float64, label string) {
	if len(row) != ds.d {
		panic(fmt.Sprintf("dataset: AppendRow with %d values, want %d", len(row), ds.d))
	}
	ds.vals = append(ds.vals, row...)
	ds.n++
	if label != "" && ds.Labels == nil {
		ds.Labels = make([]string, ds.n-1)
	}
	if ds.Labels != nil {
		ds.Labels = append(ds.Labels, label)
	}
}

// AppendRows extends the dataset by n zero rows (empty-labeled when
// the dataset is labeled) and returns the appended block as a writable
// row-major view — the bulk-fill path of the binary batch decoder,
// which writes values column by column and so cannot use AppendRow.
// The view is invalidated by the next append.
func (ds *Dataset) AppendRows(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("dataset: AppendRows(%d)", n))
	}
	start := len(ds.vals)
	need := start + n*ds.d
	if cap(ds.vals) < need {
		grown := make([]float64, need)
		copy(grown, ds.vals)
		ds.vals = grown
	} else {
		ds.vals = ds.vals[:need]
		clear(ds.vals[start:])
	}
	ds.n += n
	if ds.Labels != nil {
		for i := 0; i < n; i++ {
			ds.Labels = append(ds.Labels, "")
		}
	}
	return ds.vals[start:need:need]
}

// At returns the value at row i, column j. NaN means missing.
func (ds *Dataset) At(i, j int) float64 {
	ds.check(i, j)
	return ds.vals[i*ds.d+j]
}

// SetAt overwrites the value at row i, column j.
func (ds *Dataset) SetAt(i, j int, v float64) {
	ds.check(i, j)
	ds.vals[i*ds.d+j] = v
}

func (ds *Dataset) check(i, j int) {
	if i < 0 || i >= ds.n || j < 0 || j >= ds.d {
		panic(fmt.Sprintf("dataset: index (%d,%d) out of range %dx%d", i, j, ds.n, ds.d))
	}
}

// Row returns row i as a copy.
func (ds *Dataset) Row(i int) []float64 {
	if i < 0 || i >= ds.n {
		panic(fmt.Sprintf("dataset: Row(%d) out of range [0,%d)", i, ds.n))
	}
	out := make([]float64, ds.d)
	copy(out, ds.vals[i*ds.d:(i+1)*ds.d])
	return out
}

// RowView returns row i as a view into the underlying storage; the
// caller must not mutate or retain it across appends.
func (ds *Dataset) RowView(i int) []float64 {
	if i < 0 || i >= ds.n {
		panic(fmt.Sprintf("dataset: RowView(%d) out of range [0,%d)", i, ds.n))
	}
	return ds.vals[i*ds.d : (i+1)*ds.d : (i+1)*ds.d]
}

// Column returns column j as a fresh slice.
func (ds *Dataset) Column(j int) []float64 {
	return ds.AppendColumn(make([]float64, 0, ds.n), j)
}

// AppendColumn appends column j to dst and returns the extended slice —
// the form for callers that gather column after column into one
// buffer.
func (ds *Dataset) AppendColumn(dst []float64, j int) []float64 {
	if j < 0 || j >= ds.d {
		panic(fmt.Sprintf("dataset: Column(%d) out of range [0,%d)", j, ds.d))
	}
	for i := 0; i < ds.n; i++ {
		dst = append(dst, ds.vals[i*ds.d+j])
	}
	return dst
}

// Label returns the label of row i, or "" if the dataset is unlabeled.
func (ds *Dataset) Label(i int) string {
	if ds.Labels == nil {
		return ""
	}
	return ds.Labels[i]
}

// IsMissing reports whether the value at (i, j) is missing.
func (ds *Dataset) IsMissing(i, j int) bool { return math.IsNaN(ds.At(i, j)) }

// MissingCount returns the total number of missing entries.
func (ds *Dataset) MissingCount() int {
	c := 0
	for _, v := range ds.vals {
		if math.IsNaN(v) {
			c++
		}
	}
	return c
}

// Clone returns a deep copy.
func (ds *Dataset) Clone() *Dataset {
	c := &Dataset{
		Names: append([]string(nil), ds.Names...),
		vals:  append([]float64(nil), ds.vals...),
		n:     ds.n,
		d:     ds.d,
	}
	if ds.Labels != nil {
		c.Labels = append([]string(nil), ds.Labels...)
	}
	if ds.cats != nil {
		c.cats = make([]map[float64]string, len(ds.cats))
		for j, m := range ds.cats {
			if m == nil {
				continue
			}
			c.cats[j] = make(map[float64]string, len(m))
			for k, v := range m {
				c.cats[j][k] = v
			}
		}
	}
	return c
}

// SetCategories records the code→string mapping of a categorical
// column, replacing any existing one. A nil mapping marks the column
// numeric again.
func (ds *Dataset) SetCategories(j int, codes map[float64]string) {
	if j < 0 || j >= ds.d {
		panic(fmt.Sprintf("dataset: SetCategories(%d) out of range [0,%d)", j, ds.d))
	}
	if ds.cats == nil {
		if codes == nil {
			return
		}
		ds.cats = make([]map[float64]string, ds.d)
	}
	ds.cats[j] = codes
}

// IsCategorical reports whether column j carries category mappings.
func (ds *Dataset) IsCategorical(j int) bool {
	if j < 0 || j >= ds.d {
		panic(fmt.Sprintf("dataset: IsCategorical(%d) out of range [0,%d)", j, ds.d))
	}
	return ds.cats != nil && ds.cats[j] != nil
}

// CategoryOf returns the original string of a categorical code, or
// "" when the column is numeric or the code unknown.
func (ds *Dataset) CategoryOf(j int, code float64) string {
	if !ds.IsCategorical(j) {
		return ""
	}
	return ds.cats[j][code]
}

// CategoriesIn returns the category names whose codes fall inside the
// half-open interval (lo, hi], sorted by code — the vocabulary a grid
// range covers. It returns nil for numeric columns.
func (ds *Dataset) CategoriesIn(j int, lo, hi float64) []string {
	if !ds.IsCategorical(j) {
		return nil
	}
	type pair struct {
		code float64
		name string
	}
	var ps []pair
	for code, name := range ds.cats[j] {
		if code > lo && code <= hi {
			ps = append(ps, pair{code, name})
		}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].code < ps[b].code })
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.name
	}
	return out
}

// SelectColumns returns a new dataset keeping only the given columns,
// in the given order. Labels are carried over.
func (ds *Dataset) SelectColumns(cols []int) *Dataset {
	names := make([]string, len(cols))
	for i, j := range cols {
		if j < 0 || j >= ds.d {
			panic(fmt.Sprintf("dataset: SelectColumns index %d out of range", j))
		}
		names[i] = ds.Names[j]
	}
	out := New(names, ds.n)
	row := make([]float64, len(cols))
	for i := 0; i < ds.n; i++ {
		for c, j := range cols {
			row[c] = ds.vals[i*ds.d+j]
		}
		out.AppendRow(row, ds.Label(i))
	}
	for c, j := range cols {
		if ds.IsCategorical(j) {
			m := make(map[float64]string, len(ds.cats[j]))
			for k, v := range ds.cats[j] {
				m[k] = v
			}
			out.SetCategories(c, m)
		}
	}
	return out
}

// SelectRows returns a new dataset keeping only the given rows, in the
// given order.
func (ds *Dataset) SelectRows(rows []int) *Dataset {
	out := New(ds.Names, len(rows))
	for _, i := range rows {
		out.AppendRow(ds.RowView(i), ds.Label(i))
	}
	return out
}

// ColumnIndex returns the index of the named column, or -1.
func (ds *Dataset) ColumnIndex(name string) int {
	for j, n := range ds.Names {
		if n == name {
			return j
		}
	}
	return -1
}

// Describe returns a one-line shape description.
func (ds *Dataset) Describe() string {
	lbl := "unlabeled"
	if ds.Labels != nil {
		lbl = "labeled"
	}
	return fmt.Sprintf("dataset: %d rows x %d cols, %d missing, %s",
		ds.n, ds.d, ds.MissingCount(), lbl)
}

// ClassDistribution returns label → count for a labeled dataset. It
// returns nil for unlabeled data.
func (ds *Dataset) ClassDistribution() map[string]int {
	if ds.Labels == nil {
		return nil
	}
	out := make(map[string]int)
	for _, l := range ds.Labels {
		out[l]++
	}
	return out
}

// RareClasses returns the set of labels whose relative frequency is
// strictly below threshold (the paper uses 5% for the arrhythmia
// study), plus the total fraction of rows carrying a rare label.
func (ds *Dataset) RareClasses(threshold float64) (rare map[string]bool, fraction float64) {
	dist := ds.ClassDistribution()
	if dist == nil {
		return nil, 0
	}
	rare = make(map[string]bool)
	total := float64(ds.n)
	count := 0
	for label, c := range dist {
		if float64(c)/total < threshold {
			rare[label] = true
			count += c
		}
	}
	return rare, float64(count) / total
}
