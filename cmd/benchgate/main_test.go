package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleLog = `goos: linux
goarch: amd64
pkg: hido
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServerScoreHandler/csv_batch1-8         	  168342	      8014 ns/op	  20.84 MB/s	    124776 records/s	    6464 B/op	      43 allocs/op
BenchmarkServerScoreHandler/binary_batch1-8      	  553477	      2305 ns/op	  33.41 MB/s	    433916 records/s	     872 B/op	      13 allocs/op
PASS
ok  	hido	13.634s
`

func TestParseBenchOutput(t *testing.T) {
	res, err := parseBenchOutput(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(res))
	}
	bin, ok := res["ServerScoreHandler/binary_batch1"]
	if !ok {
		t.Fatalf("binary_batch1 missing (GOMAXPROCS suffix not stripped?): %v", res)
	}
	if bin.AllocsPerOp != 13 || bin.RecordsPerS != 433916 || bin.NsPerOp != 2305 || bin.BytesPerOp != 872 {
		t.Fatalf("binary_batch1 parsed wrong: %+v", bin)
	}
	if _, err := parseBenchOutput(strings.NewReader("PASS\nok hido 1s\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

// TestParseBenchOutputKeepsEveryRow pins the keying of rows that share
// a name: a -cpu 1,2 run keeps both readings, the first under the bare
// name the baseline uses, a -count repeat is numbered, and a log of two
// packages keeps the second package's row under a "pkg:" prefix.
func TestParseBenchOutputKeepsEveryRow(t *testing.T) {
	const cpuLog = `pkg: hido
BenchmarkFit_Musk        	       3	  79447036 ns/op	    100061 evaluations/op	       195.0 generations/op	10544493 B/op	   28600 allocs/op
BenchmarkFit_Musk-2      	       3	  49447036 ns/op	    100061 evaluations/op	       195.0 generations/op	10644493 B/op	   28614 allocs/op
BenchmarkDiscretize_Musk 	      20	   7127416 ns/op	  130360 B/op	       8 allocs/op
BenchmarkDiscretize_Musk-2	      20	   3469953 ns/op	  246510 B/op	      11 allocs/op
BenchmarkDiscretize_Musk-2	      20	   3569953 ns/op	  246510 B/op	      12 allocs/op
PASS
`
	res, err := parseBenchOutput(strings.NewReader(cpuLog))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"Fit_Musk": 28600, "Fit_Musk-2": 28614, "Discretize_Musk": 8, "Discretize_Musk-2": 11, "Discretize_Musk-2#2": 12}
	if len(res) != len(want) {
		t.Fatalf("parsed %d rows, want %d: %v", len(res), len(want), res)
	}
	for key, allocs := range want {
		if got, ok := res[key]; !ok || got.AllocsPerOp != allocs {
			t.Errorf("%s: %+v (present %v), want %v allocs/op", key, got, ok, allocs)
		}
	}

	const pkgLog = `pkg: hido
BenchmarkClusterFit-2   	       5	 200000000 ns/op	     72262 evaluations/op	       141.0 generations/op	 9000000 B/op	  275000 allocs/op
ok  	hido	3.1s
pkg: hido/internal/cluster
BenchmarkClusterFit-2   	      10	 100000000 ns/op	 5000000 B/op	  120000 allocs/op
ok  	hido/internal/cluster	2.2s
`
	res, err = parseBenchOutput(strings.NewReader(pkgLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d rows, want 2: %v", len(res), res)
	}
	if root := res["ClusterFit"]; root.AllocsPerOp != 275000 || root.EvaluationsPerOp != 72262 {
		t.Errorf("root ClusterFit parsed wrong: %+v", root)
	}
	if inner := res["hido/internal/cluster:ClusterFit"]; inner.AllocsPerOp != 120000 {
		t.Errorf("internal/cluster ClusterFit parsed wrong: %+v", inner)
	}
	// The baseline keys the root row, and the gate reads that one.
	base := map[string]Result{"ClusterFit": {AllocsPerOp: 278000, EvaluationsPerOp: 72262, GenerationsPerOp: 141}}
	if bad := gate(base, res); len(bad) != 0 {
		t.Fatalf("root row gated: %v", bad)
	}
}

func TestGate(t *testing.T) {
	base := map[string]Result{
		"b1": {AllocsPerOp: 13, RecordsPerS: 100000},
		"b2": {AllocsPerOp: 500, RecordsPerS: 200000},
	}
	ok := map[string]Result{
		"b1": {AllocsPerOp: 14, RecordsPerS: 90000}, // within 10% / above 85%
		"b2": {AllocsPerOp: 480, RecordsPerS: 500000},
	}
	if bad := gate(base, ok); len(bad) != 0 {
		t.Fatalf("clean run gated: %v", bad)
	}
	cases := []struct {
		name string
		cur  map[string]Result
		want string
	}{
		{"allocs", map[string]Result{
			"b1": {AllocsPerOp: 15, RecordsPerS: 100000},
			"b2": {AllocsPerOp: 500, RecordsPerS: 200000},
		}, "allocs/op"},
		{"throughput", map[string]Result{
			"b1": {AllocsPerOp: 13, RecordsPerS: 100000},
			"b2": {AllocsPerOp: 500, RecordsPerS: 160000},
		}, "records/s"},
		{"missing", map[string]Result{
			"b1": {AllocsPerOp: 13, RecordsPerS: 100000},
		}, "missing"},
	}
	for _, tc := range cases {
		bad := gate(base, tc.cur)
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: violations %v, want one mentioning %q", tc.name, bad, tc.want)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "bench.log")
	if err := os.WriteFile(log, []byte(sampleLog), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(`{
  "comment": "test",
  "benchmarks": {
    "ServerScoreHandler/binary_batch1": {"allocs_per_op": 15, "records_per_s": 190000}
  }
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_serving.json")
	if err := run(log, baseline, out); err != nil {
		t.Fatalf("gate failed on a clean run: %v", err)
	}
	js, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"suite": "serving"`, `"ServerScoreHandler/binary_batch1"`, `"allocs_per_op": 13`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("report missing %q:\n%s", want, js)
		}
	}
	// A regressing baseline fails the run.
	if err := os.WriteFile(baseline, []byte(`{"benchmarks":{"ServerScoreHandler/binary_batch1":{"allocs_per_op": 5, "records_per_s": 190000}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(log, baseline, ""); err == nil {
		t.Fatal("allocs regression passed the gate")
	}
}

// TestGateSearchCounts pins the exact gate on a fit's evaluation and
// generation counts: parsed from their units, passed when equal, failed
// on any mismatch or when the run omits the metric.
func TestGateSearchCounts(t *testing.T) {
	const fitLog = "BenchmarkFit_Musk-2   	       3	  79447036 ns/op	    100061 evaluations/op	       195.0 generations/op	10544493 B/op	   31642 allocs/op\n"
	res, err := parseBenchOutput(strings.NewReader(fitLog))
	if err != nil {
		t.Fatal(err)
	}
	fit := res["Fit_Musk"]
	if fit.EvaluationsPerOp != 100061 || fit.GenerationsPerOp != 195 || fit.AllocsPerOp != 31642 {
		t.Fatalf("Fit_Musk parsed wrong: %+v", fit)
	}
	base := map[string]Result{"Fit_Musk": {AllocsPerOp: 34000, EvaluationsPerOp: 100061, GenerationsPerOp: 195}}
	if bad := gate(base, res); len(bad) != 0 {
		t.Fatalf("equal counts gated: %v", bad)
	}
	cases := []struct {
		name string
		cur  Result
		want string
	}{
		{"evaluations", Result{AllocsPerOp: 31642, EvaluationsPerOp: 100062, GenerationsPerOp: 195}, "evaluations/op"},
		{"generations", Result{AllocsPerOp: 31642, EvaluationsPerOp: 100061, GenerationsPerOp: 194}, "generations/op"},
		{"missing", Result{AllocsPerOp: 31642, GenerationsPerOp: 195}, "evaluations/op"},
	}
	for _, tc := range cases {
		bad := gate(base, map[string]Result{"Fit_Musk": tc.cur})
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: violations %v, want one mentioning %q", tc.name, bad, tc.want)
		}
	}
	// A baseline without counts gates none.
	if bad := gate(map[string]Result{"Fit_Musk": {AllocsPerOp: 34000}}, map[string]Result{"Fit_Musk": {AllocsPerOp: 31642}}); len(bad) != 0 {
		t.Fatalf("count-free baseline gated: %v", bad)
	}
}
