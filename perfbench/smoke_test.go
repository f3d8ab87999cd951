package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(file), len(prog))
			return
		}
		for i := range prog {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
}

// TestGoldenFits repeats the reference fits twice and prints their
// digests, which golden.go records.
func TestGoldenFits(t *testing.T) {
	seen := map[goldenFit]bool{}
	for _, name := range sortedKeys(goldenFits) {
		for _, g := range goldenFits[name] {
			if seen[g] {
				continue
			}
			seen[g] = true
			first, err := modelDigest(g)
			if err != nil {
				t.Fatal(err)
			}
			again, err := modelDigest(g)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s phi=%d data seed %d search seed %d: %s", g.profile, g.phi, g.dataSeed, g.searchSeed, first)
			if first != again {
				t.Errorf("%s search seed %d: digest %s, then %s", g.profile, g.searchSeed, first, again)
			}
			if first != g.digest {
				t.Errorf("%s phi=%d data seed %d search seed %d: digest %s, recorded %s",
					g.profile, g.phi, g.dataSeed, g.searchSeed, first, g.digest)
			}
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, with its
// output checks, and checks the printed result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	seconds := map[string]float64{"fit": 1, "score": 4, "ingest": 4, "cluster-fit": 1}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: seconds[name], trace: trace, traceDir: t.TempDir()}
			r := newRun()
			if err := runWorkload(o, r); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := writeResult(&out, o, r); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			// A run this short can see its open loop fall behind on a busy
			// machine; only the output checks must hold.
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: failed=%d attempted=%d\n%s",
					name, trace, res.Failed, res.Attempted, out.String())
			}
			if r.invalid != "" {
				t.Logf("%s trace=%v: %s", name, trace, r.invalid)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			if !trace {
				for _, d := range want {
					if v := res.Metrics[d.name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
					}
				}
			}
		}
	}
}
