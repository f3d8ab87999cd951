package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Every response carries a request ID: minted when the client sends
// none, echoed verbatim when it does.
func TestRequestIDHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := doJSON(t, h, "GET", "/healthz", "", nil, nil)
	minted := rec.Header().Get("X-Request-Id")
	if minted == "" {
		t.Fatal("no X-Request-Id minted")
	}
	rec2 := doJSON(t, h, "GET", "/healthz", "", nil, nil)
	if rec2.Header().Get("X-Request-Id") == minted {
		t.Error("request IDs repeat across requests")
	}

	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-Id", "client-abc-123")
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req)
	if got := rec3.Header().Get("X-Request-Id"); got != "client-abc-123" {
		t.Errorf("client request ID not echoed: %q", got)
	}
}

// The liveness probe identifies the running binary: build stamp plus
// process uptime.
func TestHealthzBuildInfo(t *testing.T) {
	s := newTestServer(t, Config{})
	var body struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		Go            string  `json:"go"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	rec := doJSON(t, s.Handler(), "GET", "/healthz", "", nil, &body)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if body.Status != "ok" {
		t.Errorf("status %q", body.Status)
	}
	if !strings.HasPrefix(body.Go, "go") {
		t.Errorf("go toolchain %q", body.Go)
	}
	if body.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", body.UptimeSeconds)
	}
}

// The observability series: per-phase latency histograms, runtime
// gauges, and per-model gauges must all appear in the exposition after
// one scored request.
func TestMetricsObservabilitySeries(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	batch := scoreWindow(t, 25, 120)
	doJSON(t, h, "POST", "/api/v1/score?label=8", "text/csv", csvBody(t, batch), nil)

	rec := doJSON(t, h, "GET", "/metrics", "", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	out := rec.Body.String()
	wants := []string{
		"# TYPE hidod_request_phase_seconds histogram",
		`hidod_request_phase_seconds_count{endpoint="/api/v1/score",phase="decode"} 1`,
		`hidod_request_phase_seconds_count{endpoint="/api/v1/score",phase="score"} 1`,
		`hidod_request_phase_seconds_count{endpoint="/api/v1/score",phase="encode"} 1`,
		"# TYPE hidod_goroutines gauge",
		"# TYPE hidod_heap_alloc_bytes gauge",
		"# TYPE hidod_gc_pause_seconds_total gauge",
		"# TYPE hidod_gc_cycles_total gauge",
		`hidod_model_age_seconds{model="default"}`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
