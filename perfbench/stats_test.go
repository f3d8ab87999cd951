package main

import (
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := sorted(xs)
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got == got {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {999, 0.99, 9}, {20, 0.5, 10}, {0, 0.5, 0},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got, want := qualifies(c.n, c.q), c.beyond >= 10; got != want {
			t.Errorf("qualifies(%d, %v) = %v, want %v", c.n, c.q, got, want)
		}
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	line := describe("x", "ms", xs, 0.9)
	if !strings.Contains(line, "n=99") || !strings.Contains(line, "p90 not reported (9 beyond, need 10)") {
		t.Errorf("describe with 9 samples beyond p90: %q", line)
	}
	line = describe("x", "ms", append(xs, 99), 0.9)
	if !strings.Contains(line, "p90=89 ms (10 beyond)") {
		t.Errorf("describe with 10 samples beyond p90: %q", line)
	}
}

func TestLatencyRunsFromTheDueTime(t *testing.T) {
	ms := time.Millisecond
	s := sample{due: 10 * ms, sent: 12 * ms, done: 15 * ms, ok: true}
	if s.latency() != 5*ms || s.lateness() != 2*ms {
		t.Errorf("latency %v lateness %v, want 5ms and 2ms", s.latency(), s.lateness())
	}
	failed := sample{due: 0, sent: 0, done: ms}
	if got := latencies([]sample{s, failed}, nil); len(got) != 1 || got[0] != 5 {
		t.Errorf("latencies = %v, want only the successful sample's 5 ms", got)
	}
	if got := latenesses([]sample{s, failed}); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("latenesses = %v, want [2 0]", got)
	}
}

func TestBacklogGrew(t *testing.T) {
	span := time.Second
	var steady, growing []sample
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * span / 100
		steady = append(steady, sample{due: due, sent: due + 50*time.Microsecond})
		// Each send starts 1 ms later than the one before: a generator
		// that cannot keep up.
		growing = append(growing, sample{due: due, sent: due + time.Duration(i)*time.Millisecond})
	}
	if grew, _ := backlogGrew(steady, span); grew {
		t.Error("a generator 50 µs late is marked as falling behind")
	}
	grew, late := backlogGrew(growing, span)
	if !grew || late < maxLateLastQuarter {
		t.Errorf("growing backlog: grew=%v late=%v", grew, late)
	}
}

func TestCoveredUnionsOverlapsInsideParent(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		children []interval
		want     int64
	}{
		{nil, 0},
		{[]interval{{110, 120}, {130, 150}}, 30},
		{[]interval{{110, 140}, {120, 150}}, 40},             // overlap counted once
		{[]interval{{50, 120}, {190, 260}}, 30},              // clipped to the parent
		{[]interval{{120, 130}, {110, 180}, {170, 190}}, 80}, // nested and chained
		{[]interval{{0, 50}}, 0},
	} {
		if got := covered(parent, c.children); got != c.want {
			t.Errorf("covered(%v, %v) = %d, want %d", parent, c.children, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.add(span{Name: "op", Layer: "bench", Start: 0, End: 100})
	a := tr.add(span{Parent: root, Name: "a", Layer: "core", Start: 10, End: 40})
	tr.add(span{Parent: root, Name: "b", Layer: "net", Start: 30, End: 60})
	tr.add(span{Parent: a, Name: "c", Layer: "grid", Start: 15, End: 25})
	tr.aggregate(root, "counts", "bitset", 1000, 10)
	// A second tree under another root name is left out.
	tr.add(span{Name: "other", Layer: "core", Start: 0, End: 1000})

	self, total := tr.selfTimes("op")
	want := map[string]int64{
		"bench":  100 - 50 - 10, // minus the union of a and b, minus the aggregate
		"core":   30 - 10,
		"net":    30,
		"grid":   10,
		"bitset": 10,
	}
	if total != 100 {
		t.Errorf("total = %d, want 100", total)
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, self[l], w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("self = %v, want only %v", self, want)
	}
}

func TestSeriesParsing(t *testing.T) {
	text := `# HELP x
hidod_ingest_records_total 1536
hidod_ingest_refits_total{model="default",outcome="ok"} 3
hidod_cluster_rpc_seconds_sum{peer="a",rpc="count"} 0.5
hidod_cluster_rpc_seconds_sum{peer="b",rpc="count"} 0.25
hidod_cluster_rpc_seconds_count{peer="a",rpc="count"} 10
`
	if v, err := seriesSum(text, "hidod_ingest_records_total "); err != nil || v != 1536 {
		t.Errorf("records = %v, %v", v, err)
	}
	if v, err := seriesSum(text, `hidod_ingest_refits_total{model="default",outcome="ok"} `); err != nil || v != 3 {
		t.Errorf("refits ok = %v, %v", v, err)
	}
	if v, err := seriesSum(text, `hidod_ingest_refits_total{model="default",outcome="error"} `); err != nil || v != 0 {
		t.Errorf("absent series = %v, %v; want 0", v, err)
	}
	if v, err := seriesSum(text, "hidod_cluster_rpc_seconds_sum{"); err != nil || v != 0.75 {
		t.Errorf("sum = %v, %v", v, err)
	}
}
