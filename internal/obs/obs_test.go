package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want slog.Level
		ok   bool
	}{
		{"debug", slog.LevelDebug, true},
		{"Info", slog.LevelInfo, true},
		{"", slog.LevelInfo, true},
		{"WARN", slog.LevelWarn, true},
		{"warning", slog.LevelWarn, true},
		{"error", slog.LevelError, true},
		{"verbose", slog.LevelInfo, false},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseLevel(%q) err=%v, want ok=%v", c.in, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNewLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelWarn, true)
	log.Info("dropped")
	log.Warn("kept", "key", "value")
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("info line survived a warn-level logger: %q", out)
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("JSON logger wrote non-JSON %q: %v", out, err)
	}
	if line["msg"] != "kept" || line["key"] != "value" {
		t.Errorf("unexpected JSON log line: %v", line)
	}

	buf.Reset()
	NewLogger(&buf, slog.LevelInfo, false).Info("text", "k", 1)
	if !strings.Contains(buf.String(), "k=1") {
		t.Errorf("text logger lost the keyed field: %q", buf.String())
	}
}

func TestTracerEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	run := tr.RunID("evo")
	if run != "evo-1" {
		t.Errorf("first run ID = %q, want evo-1", run)
	}
	if tr.RunID("evo") == run {
		t.Error("run IDs not unique")
	}

	tr.Emit(run, "generation", map[string]any{"gen": 0, "best": -3.5})
	tr.Emit(run, "summary", map[string]any{"evals": 42})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	lastTS := -1.0
	for i, l := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %q: %v", i, l, err)
		}
		if ev["run"] != run {
			t.Errorf("line %d run = %v", i, ev["run"])
		}
		ts, ok := ev["ts_ms"].(float64)
		if !ok || ts < lastTS {
			t.Errorf("line %d ts_ms = %v, want monotone nondecreasing", i, ev["ts_ms"])
		}
		lastTS = ts
	}
}

func TestTracerObserverEventShapes(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	o := tr.Observer()
	o.OnGeneration(GenerationEvent{Run: "r1", Gen: 7, BestFit: -2, Evaluations: 40})
	o.OnProgress(ProgressEvent{Run: "r1", TasksDone: 2, TasksTotal: 10, Evaluations: 100})
	o.OnDone(SummaryEvent{Run: "r1", Algo: "brute", Evaluations: 100, Elapsed: time.Second})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var gen map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &gen); err != nil {
		t.Fatal(err)
	}
	if gen["ev"] != "generation" || gen["gen"] != 7.0 || gen["evals"] != 40.0 {
		t.Errorf("generation line: %v", gen)
	}
	for i, want := range []string{"generation", "progress", "summary"} {
		var ev map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatal(err)
		}
		if ev["ev"] != want {
			t.Errorf("line %d ev = %v, want %s", i, ev["ev"], want)
		}
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := tr.RunID("w")
			for i := 0; i < 50; i++ {
				tr.Emit(run, "progress", map[string]any{"i": i, "g": g})
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8*50 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*50)
	}
	for _, l := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("interleaved write produced invalid JSON: %q", l)
		}
	}
}

func TestMulti(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	var calls []string
	a := Funcs{Done: func(SummaryEvent) { calls = append(calls, "a") }}
	b := Funcs{Done: func(SummaryEvent) { calls = append(calls, "b") }}
	if got := Multi(nil, a); got == nil {
		t.Fatal("Multi dropped the only observer")
	}
	m := Multi(a, nil, b)
	m.OnDone(SummaryEvent{})
	m.OnGeneration(GenerationEvent{}) // nil callbacks ignore
	m.OnProgress(ProgressEvent{})
	if strings.Join(calls, ",") != "a,b" {
		t.Errorf("fan-out order: %v", calls)
	}
}

func TestLogObserverLines(t *testing.T) {
	var buf bytes.Buffer
	o := NewLogObserver(&buf)
	o.OnGeneration(GenerationEvent{Run: "evo-1", Gen: 3, BestFit: -2.5, Converged: 0.5, Evaluations: 12})
	o.OnProgress(ProgressEvent{Run: "brute-1", TasksDone: 1, TasksTotal: 4, Evaluations: 10})
	o.OnDone(SummaryEvent{Run: "evo-1", Algo: "evo", Projections: 5})
	out := buf.String()
	for _, want := range []string{"[evo-1] gen 3", "evals=12", "[brute-1] 1/4 tasks", "done evo: 5 projections"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestIDSource(t *testing.T) {
	s := NewIDSource("req")
	a, b := s.Next(), s.Next()
	if a == b {
		t.Errorf("IDs collide: %q", a)
	}
	if !strings.HasPrefix(a, "req-") {
		t.Errorf("ID %q missing prefix", a)
	}
	if NewIDSource("req").Next() == a {
		t.Error("fresh sources should salt differently")
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" || b.GoVersion == "unknown" {
		// go test binaries always carry a build info block.
		t.Errorf("GoVersion = %q", b.GoVersion)
	}
	if got := VersionLine("hido"); !strings.HasPrefix(got, "hido ") || !strings.Contains(got, b.GoVersion) {
		t.Errorf("VersionLine = %q", got)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := t.Context()
	if got := RequestID(ctx); got != "" {
		t.Errorf("empty context carries ID %q", got)
	}
	ctx = WithRequestID(ctx, "req-1")
	if got := RequestID(ctx); got != "req-1" {
		t.Errorf("RequestID = %q", got)
	}
}
