// Command benchgate turns `go test -bench -benchmem` output into a
// machine-readable benchmark report and gates CI on it: allocations or
// throughput regressing past the checked-in baseline fail the build.
//
//	go test -run xxx -bench BenchmarkServerScoreHandler -benchmem . | tee bench.log
//	benchgate -bench-log bench.log -baseline bench_baseline.json -out BENCH_serving.json
//
// The gate fails when, for any benchmark present in the baseline,
//
//   - the benchmark is missing from the new run, or
//   - allocs/op exceeds a non-zero baseline value by more than 10%, or
//   - records/s drops below 85% of baseline, or
//   - evaluations/op or generations/op differs at all from a non-zero
//     baseline value.
//
// Allocation counts are machine-independent, so the allocs gate is
// sharp; the baseline's records/s values are deliberately conservative
// low-water marks so the throughput gate only catches structural
// collapses, not runner jitter. A fit's evaluation and generation
// counts are fixed by its seed at any GOMAXPROCS, so any difference
// means the search itself changed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured series.
type Result struct {
	NsPerOp          float64 `json:"ns_per_op"`
	BytesPerOp       float64 `json:"bytes_per_op"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
	RecordsPerS      float64 `json:"records_per_s"`
	EvaluationsPerOp float64 `json:"evaluations_per_op,omitempty"`
	GenerationsPerOp float64 `json:"generations_per_op,omitempty"`
}

// Report is the BENCH_serving.json shape.
type Report struct {
	Suite      string            `json:"suite"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Baseline is the checked-in gate reference. Comment documents how the
// numbers were chosen; the gate only reads Benchmarks.
type Baseline struct {
	Comment    string            `json:"comment,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// parseBenchOutput extracts benchmark result lines from `go test
// -bench` output. Lines look like
//
//	BenchmarkName/sub-8  1234  5678 ns/op  90 B/op  12 allocs/op  345 records/s
//
// — a name, an iteration count, then (value, unit) pairs. Every row is
// kept under its own key (see rowKey), so a `-cpu 1,2,4` run or a log
// of several packages loses no reading.
func parseBenchOutput(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	firstPkg := map[string]string{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if p, ok := strings.CutPrefix(sc.Text(), "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name, procs := strings.TrimPrefix(fields[0], "Benchmark"), 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		var res Result
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: %s: bad value %q for %q", name, fields[i], fields[i+1])
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			case "records/s":
				res.RecordsPerS = v
			case "evaluations/op":
				res.EvaluationsPerOp = v
			case "generations/op":
				res.GenerationsPerOp = v
			}
		}
		out[rowKey(out, firstPkg, pkg, name, procs)] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines found")
	}
	return out, nil
}

// rowKey names a row of benchmark name (GOMAXPROCS suffix stripped)
// run at procs in package pkg. The first row of a name keeps the bare
// name, so a single-GOMAXPROCS run matches the baseline on any
// machine. A row of that name from another package is prefixed
// "pkg:", and a later row whose key is taken, at another GOMAXPROCS,
// gets the "-procs" suffix back; an exact repeat (-count) is numbered
// "#2", "#3", and so on. firstPkg records each name's first package.
func rowKey(out map[string]Result, firstPkg map[string]string, pkg, name string, procs int) string {
	if first, ok := firstPkg[name]; !ok {
		firstPkg[name] = pkg
	} else if first != pkg {
		name = pkg + ":" + name
	}
	key := name
	if _, taken := out[key]; taken {
		key = fmt.Sprintf("%s-%d", name, procs)
	}
	for n := 2; ; n++ {
		if _, taken := out[key]; !taken {
			return key
		}
		key = fmt.Sprintf("%s-%d#%d", name, procs, n)
	}
}

const (
	allocSlack      = 1.10 // >10% allocs/op regression fails
	throughputFloor = 0.85 // <85% of baseline records/s fails
)

// gate compares a run against the baseline and returns the violations.
func gate(baseline, current map[string]Result) []string {
	var names []string
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from the benchmark run", name))
			continue
		}
		if limit := base.AllocsPerOp * allocSlack; base.AllocsPerOp > 0 && cur.AllocsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f by more than 10%%",
				name, cur.AllocsPerOp, base.AllocsPerOp))
		}
		if floor := base.RecordsPerS * throughputFloor; base.RecordsPerS > 0 && cur.RecordsPerS < floor {
			bad = append(bad, fmt.Sprintf("%s: %.0f records/s is below 85%% of baseline %.0f",
				name, cur.RecordsPerS, base.RecordsPerS))
		}
		for _, c := range []struct {
			unit      string
			base, cur float64
		}{
			{"evaluations/op", base.EvaluationsPerOp, cur.EvaluationsPerOp},
			{"generations/op", base.GenerationsPerOp, cur.GenerationsPerOp},
		} {
			if c.base != 0 && c.cur != c.base {
				bad = append(bad, fmt.Sprintf("%s: %.0f %s differs from baseline %.0f",
					name, c.cur, c.unit, c.base))
			}
		}
	}
	return bad
}

func run(benchLog, baselinePath, outPath string) error {
	f, err := os.Open(benchLog)
	if err != nil {
		return err
	}
	current, err := parseBenchOutput(f)
	f.Close()
	if err != nil {
		return err
	}

	if outPath != "" {
		report := Report{Suite: "serving", Benchmarks: current}
		js, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchgate: wrote %d benchmark results to %s\n", len(current), outPath)
	}

	if baselinePath == "" {
		return nil
	}
	bb, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline Baseline
	if err := json.Unmarshal(bb, &baseline); err != nil {
		return fmt.Errorf("benchgate: parsing %s: %w", baselinePath, err)
	}
	if bad := gate(baseline.Benchmarks, current); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s\n", b)
		}
		return fmt.Errorf("benchgate: %d benchmark gate violation(s)", len(bad))
	}
	fmt.Printf("benchgate: %d benchmarks within baseline\n", len(baseline.Benchmarks))
	return nil
}

func main() {
	var (
		benchLog = flag.String("bench-log", "", "go test -bench output to parse (required)")
		baseline = flag.String("baseline", "", "baseline JSON to gate against (omit to skip the gate)")
		out      = flag.String("out", "", "write parsed results as JSON to this path")
	)
	flag.Parse()
	if *benchLog == "" {
		fmt.Fprintln(os.Stderr, "benchgate: need -bench-log")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*benchLog, *baseline, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}
