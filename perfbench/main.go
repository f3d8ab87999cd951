// Command perfbench is hido's benchmark: it runs one named workload
// against the packages under internal/, checks every output, and prints
// the workload's metrics as one JSON object on its last line.
//
//	perfbench -workload fit|score|ingest|cluster-fit -seed N -seconds S -trace 0|1
//
// With -trace 0 the JSON carries the end-to-end metrics of
// BENCHMARK.json; with -trace 1 the run is replayed with spans recorded
// around the benchmark's own calls into each layer and the JSON carries
// the per-layer metrics. Lines before the JSON are a human-readable
// report: every percentile with its sample count, generator lateness,
// check failures, and the self time per layer. perfbench/README.md
// describes the workloads and which end-to-end metric each per-layer
// metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// -trace 0. Each workload defines its unit operation: one fit for fit and
// cluster-fit, one request for score and ingest (see README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// requestClasses are the request shapes whose handler cost is reported
// separately.
var requestClasses = [...]string{"jsonl_1", "hib1_64", "csv_1024", "ingest_hib1_256"}

// layers names the layers self time is attributed to, in report order.
var layers = []string{"bench", "net", "server", "batchwire", "dataset", "stream",
	"discretize", "grid", "core", "cluster", "storage"}

// layerMetrics are the per-layer metrics every workload reports with
// -trace 1. A layer the workload never reaches reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"discretize.fit_ms", "ms"},
		{"grid.build_ms", "ms"},
		{"core.search_ms", "ms"},
		{"core.evaluations", "count"},
		{"core.generations", "count"},
		{"core.evals_per_s", "1/s"},
		{"core.allocs_per_fit", "count"},
		{"grid.count_calls", "count"},
		{"grid.count_ns", "ns"},
		{"grid.extend_calls", "count"},
		{"grid.extend_ns", "ns"},
		{"grid.count_share", "ratio"},
		{"grid.cache_hit_ratio", "ratio"},
		{"grid.cache_entries", "count"},
		{"cube.key_bytes", "B"},
		{"server.transport_us", "us"},
	}
	for _, c := range requestClasses {
		defs = append(defs,
			metricDef{"server.handler_us." + c, "us"},
			metricDef{"server.self_us." + c, "us"},
			metricDef{"server.allocs_per_request." + c, "count"})
	}
	defs = append(defs,
		metricDef{"batchwire.decode_ns_per_record", "ns"},
		metricDef{"dataset.csv_decode_ns_per_record", "ns"},
		metricDef{"stream.score_ns_per_record", "ns"},
		metricDef{"stream.results_ns_per_record", "ns"},
		metricDef{"stream.ingest_ns_per_record", "ns"},
		metricDef{"stream.refits", "count"},
		metricDef{"stream.refit_errors", "count"},
		metricDef{"stream.refit_ms", "ms"},
		metricDef{"stream.heap_growth_mb", "MB"},
		metricDef{"cluster.count_rpcs_per_fit", "count"},
		metricDef{"cluster.cover_rpcs_per_fit", "count"},
		metricDef{"cluster.rpc_bytes_per_fit", "B"},
		metricDef{"cluster.storage_busy_share", "ratio"},
		metricDef{"cluster.rpc_mean_us", "us"},
		metricDef{"cluster.memo_hit_ratio", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l, "ratio"})
	}
	return defs
}()

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

// duration is the timed phase's length.
func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// run collects what one workload run measured and checked.
type run struct {
	attempted, failed int
	// problems holds the first check failures, for the report; load
	// loops add to it from several goroutines.
	mu       sync.Mutex
	problems []string
	// invalid is set when the load generator could not keep its
	// schedule; such a run is not reported as correct.
	invalid string
	metrics map[string]float64
	report  []string
}

func newRun() *run { return &run{metrics: map[string]float64{}} }

// fail records a failed operation with its reason.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records why an operation failed; the load loops count the
// failure itself.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// say appends a report line.
func (r *run) say(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *run) error{
	"fit":         runFit,
	"score":       runScore,
	"ingest":      runIngest,
	"cluster-fit": runClusterFit,
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish turns a run into the printed result: every metric of the
// selected set, in its unit.
func finish(r *run, trace bool) result {
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	out := result{
		Correct:   r.failed == 0 && r.invalid == "" && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: fit, score, ingest or cluster-fit")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the workload traced and reports per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	_, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n",
			strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	r := newRun()
	if err := runWorkload(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// writeResult prints the report lines, then the result JSON.
func writeResult(w io.Writer, o options, r *run) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, line := range r.report {
		fmt.Fprintf(bw, "# %s\n", line)
	}
	fmt.Fprintf(bw, "# error_rate=%s ratio (failed %d of %d attempted)\n",
		strconv.FormatFloat(ratio(float64(r.failed), float64(r.attempted)), 'g', 6, 64), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(bw, "# FAILED: %s\n", p)
	}
	if r.invalid != "" {
		fmt.Fprintf(bw, "# INVALID: %s\n", r.invalid)
	}
	js, err := json.Marshal(finish(r, o.trace))
	if err != nil {
		return err
	}
	bw.Write(js)
	bw.WriteByte('\n')
	return bw.Flush()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// Set-up runs at least minSetups times and until minSetupTime of
// set-up has passed; setup_s is the median. A short set-up runs more
// often, so a scheduling hiccup in a few of them does not move the
// median.
const (
	minSetups    = 9
	minSetupTime = 3 * time.Second
)

// setUp runs setup repeatedly, tearing each instance down before the
// next, and returns the last with every set-up's time in seconds. Each
// set-up starts from a collected heap, so none pays for the garbage of
// the one before.
func setUp[T any](setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var times []float64
	var total time.Duration
	for {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, nil, err
		}
		d := time.Since(start)
		times = append(times, d.Seconds())
		total += d
		if len(times) >= minSetups && total >= minSetupTime {
			return v, times, nil
		}
		teardown(v)
	}
}

// cpuSeconds is the CPU time the process has used so far, user and
// system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// recordEndToEnd stores the metrics every untraced workload reports;
// rss is the peak RSS read when the timed phase ended.
func recordEndToEnd(r *run, setups []float64, rss, p50ms, perS float64) {
	setupS := median(setups)
	r.metrics["setup_s"] = setupS
	r.metrics["latency_p50_ms"] = p50ms
	r.metrics["throughput_per_s"] = perS
	r.metrics["peak_rss_mb"] = rss
	s := sorted(setups)
	r.say("setup_s=%.4f s (median of %d set-ups, %.4f to %.4f s)  peak_rss_mb=%.1f MB",
		setupS, len(s), s[0], s[len(s)-1], rss)
}
