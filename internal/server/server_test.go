package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hido/internal/dataset"
	"hido/internal/stream"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// refWindow builds the shared correlated reference window: dims 0-2
// track one factor, the rest are noise.
func refWindow(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name: "ref", N: n, D: 8,
		Groups: []synth.Group{{Dims: []int{0, 1, 2}, Noise: 0.03}},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// scoreWindow builds a labeled batch whose final row breaks the
// correlation (the planted alert).
func scoreWindow(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	r := xrand.New(seed)
	ds := dataset.New([]string{"a", "b", "c", "d", "e", "f", "g", "h"}, n)
	for i := 0; i < n-1; i++ {
		f := r.Float64()
		ds.AppendRow([]float64{f, f, f, r.Float64(), r.Float64(), r.Float64(), r.Float64(), r.Float64()}, "ok")
	}
	ds.AppendRow([]float64{0.02, 0.97, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, "bad")
	return ds
}

func fitMonitor(t testing.TB, n int, seed uint64) *stream.Monitor {
	t.Helper()
	mon, err := stream.NewMonitor(refWindow(t, n, seed), stream.Options{Phi: 5, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// newTestServer builds a server with a "default" model installed.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Now == nil {
		base := time.Unix(1_700_000_000, 0)
		cfg.Now = func() time.Time { return base }
	}
	s := New(cfg)
	if err := s.registry.Set("default", Entry{
		Monitor: fitMonitor(t, 600, 40), FittedAt: cfg.Now().Add(-time.Hour), Source: "test",
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func csvBody(t testing.TB, ds *dataset.Dataset) *bytes.Buffer {
	t.Helper()
	var b bytes.Buffer
	if err := ds.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func doJSON(t testing.TB, h http.Handler, method, url, contentType string, body io.Reader, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, url, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, url, rec.Body.String(), err)
		}
	}
	return rec
}

// A top-n request against a model narrower than the reference window
// fails the request, not the process: the width check runs before the
// scoring fan-out starts its workers, and the server keeps serving.
func TestTopNModelNarrowerThanWindow(t *testing.T) {
	s := newTestServer(t, Config{
		ScoreWorkers: 4,
		TopNer:       NewDatasetTopN(refWindow(t, 1000, 41), 4),
	})
	h := s.Handler()
	narrow, err := synth.Generate(synth.Config{
		Name: "narrow", N: 300, D: 5,
		Groups: []synth.Group{{Dims: []int{0, 1, 2}, Noise: 0.03}},
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := stream.NewMonitor(narrow, stream.Options{Phi: 5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := mon.Save(&model); err != nil {
		t.Fatal(err)
	}
	if rec := doJSON(t, h, "PUT", "/api/v1/models/narrow", "application/json", &model, nil); rec.Code != http.StatusOK {
		t.Fatalf("put: %d %s", rec.Code, rec.Body.String())
	}
	rec := doJSON(t, h, "GET", "/api/v1/topn?model=narrow", "", nil, nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "top-n failed") {
		t.Fatalf("topn against a 5-dim model over an 8-dim window: %d %s", rec.Code, rec.Body.String())
	}
	var resp scoreResponse
	if rec := doJSON(t, h, "POST", "/api/v1/score?label=8", "text/csv", csvBody(t, scoreWindow(t, 40, 44)), &resp); rec.Code != http.StatusOK {
		t.Fatalf("score after the failed topn: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Records != 40 {
		t.Errorf("score after the failed topn: %d records, want 40", resp.Records)
	}
}

func TestScoreCSV(t *testing.T) {
	s := newTestServer(t, Config{})
	batch := scoreWindow(t, 40, 50)

	var resp scoreResponse
	rec := doJSON(t, s.Handler(), "POST", "/api/v1/score?label=8&explain=1", "text/csv",
		csvBody(t, batch), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("score: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Records != 40 || resp.Model != "default" {
		t.Errorf("resp header wrong: %+v", resp)
	}
	if resp.Flagged == 0 {
		t.Fatal("planted contrarian not flagged")
	}
	found := false
	for _, res := range resp.Results {
		if res.Record == 39 {
			found = true
			if !res.Flagged || res.Score >= 0 || res.Label != "bad" || len(res.Explanations) == 0 {
				t.Errorf("contrarian result malformed: %+v", res)
			}
		}
	}
	if !found {
		t.Error("contrarian row missing from flagged-only results")
	}

	// all=1 returns every record, flagged or not.
	var all scoreResponse
	rec = doJSON(t, s.Handler(), "POST", "/api/v1/score?label=8&all=1", "text/csv",
		csvBody(t, batch), &all)
	if rec.Code != http.StatusOK || len(all.Results) != 40 {
		t.Errorf("all=1 returned %d results (code %d)", len(all.Results), rec.Code)
	}
}

func TestScoreJSONLines(t *testing.T) {
	s := newTestServer(t, Config{})
	batch := scoreWindow(t, 10, 60)

	var b bytes.Buffer
	for i := 0; i < batch.N(); i++ {
		row := batch.RowView(i)
		if i%2 == 0 {
			vals, _ := json.Marshal(row)
			fmt.Fprintf(&b, "{\"values\":%s,\"label\":%q}\n", vals, batch.Label(i))
		} else {
			vals, _ := json.Marshal(row)
			fmt.Fprintf(&b, "%s\n", vals)
		}
	}
	var resp scoreResponse
	rec := doJSON(t, s.Handler(), "POST", "/api/v1/score?all=1", "application/x-ndjson", &b, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("score: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Records != 10 {
		t.Fatalf("scored %d records, want 10", resp.Records)
	}
	if !resp.Results[9].Flagged {
		t.Error("contrarian not flagged via JSON lines")
	}
	if resp.Results[8].Label != "ok" {
		t.Errorf("object-form label lost: %+v", resp.Results[8])
	}

	// null encodes a missing attribute and must be accepted.
	nullBody := strings.NewReader(`[0.5, null, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]`)
	rec = doJSON(t, s.Handler(), "POST", "/api/v1/score", "application/x-ndjson", nullBody, nil)
	if rec.Code != http.StatusOK {
		t.Errorf("null attribute rejected: %d %s", rec.Code, rec.Body.String())
	}
}

func TestScoreErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 2048})
	h := s.Handler()

	cases := []struct {
		name, url, ct, body string
		want                int
	}{
		{"unknown model", "/api/v1/score?model=absent", "application/x-ndjson", "[1,2,3,4,5,6,7,8]", http.StatusNotFound},
		{"wrong width", "/api/v1/score", "application/x-ndjson", "[1,2,3]", http.StatusBadRequest},
		{"garbage json", "/api/v1/score", "application/x-ndjson", "{not json", http.StatusBadRequest},
		{"empty body", "/api/v1/score", "application/x-ndjson", "", http.StatusBadRequest},
		{"csv wrong width", "/api/v1/score", "text/csv", "a,b\n1,2\n", http.StatusBadRequest},
		{"csv non-numeric is strict", "/api/v1/score", "text/csv",
			"a,b,c,d,e,f,g,h\n1,2,3,4,5,6,7,oops\n1,2,3,4,5,6,7,8\n", http.StatusBadRequest},
		{"body too large", "/api/v1/score", "application/x-ndjson",
			strings.Repeat("[1,2,3,4,5,6,7,8]\n", 1000), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec := doJSON(t, h, "POST", tc.url, tc.ct, strings.NewReader(tc.body), nil)
		if rec.Code != tc.want {
			t.Errorf("%s: code %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %q", tc.name, rec.Body.String())
		}
	}
}

func TestModelLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// Download the default model, upload it under a new name.
	rec := doJSON(t, h, "GET", "/api/v1/models/default", "", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("download: %d", rec.Code)
	}
	modelJSON := rec.Body.Bytes()

	var put map[string]any
	rec = doJSON(t, h, "PUT", "/api/v1/models/copy", "application/json", bytes.NewReader(modelJSON), &put)
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	if put["model"] != "copy" || put["d"].(float64) != 8 {
		t.Errorf("upload response: %+v", put)
	}

	// The copy scores identically to the original.
	batch := scoreWindow(t, 20, 70)
	var a, b scoreResponse
	doJSON(t, h, "POST", "/api/v1/score?label=8&all=1", "text/csv", csvBody(t, batch), &a)
	doJSON(t, h, "POST", "/api/v1/score?model=copy&label=8&all=1", "text/csv", csvBody(t, batch), &b)
	aj, _ := json.Marshal(a.Results)
	bj, _ := json.Marshal(b.Results)
	if !bytes.Equal(aj, bj) {
		t.Error("uploaded copy scores differently from the original")
	}

	// List shows both with metadata.
	var list struct{ Models []modelInfo }
	doJSON(t, h, "GET", "/api/v1/models", "", nil, &list)
	if len(list.Models) != 2 {
		t.Fatalf("listed %d models, want 2", len(list.Models))
	}
	for _, m := range list.Models {
		if m.D != 8 || m.Projections == 0 || m.FittedAt == "" {
			t.Errorf("model info malformed: %+v", m)
		}
	}

	// Hot swap: replace "copy" with a model fitted on another window.
	other := fitMonitor(t, 500, 80)
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, h, "PUT", "/api/v1/models/copy", "application/json", &buf, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("hot swap: %d", rec.Code)
	}

	// Delete works once, then 404s.
	if rec = doJSON(t, h, "DELETE", "/api/v1/models/copy", "", nil, nil); rec.Code != http.StatusNoContent {
		t.Errorf("delete: %d", rec.Code)
	}
	if rec = doJSON(t, h, "DELETE", "/api/v1/models/copy", "", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("second delete: %d", rec.Code)
	}

	// Corrupt uploads are rejected.
	if rec = doJSON(t, h, "PUT", "/api/v1/models/bad", "application/json", strings.NewReader("{"), nil); rec.Code != http.StatusBadRequest {
		t.Errorf("corrupt upload: %d", rec.Code)
	}
}

func TestHealthAndReady(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	if rec := doJSON(t, h, "GET", "/healthz", "", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz: %d", rec.Code)
	}
	if rec := doJSON(t, h, "GET", "/readyz", "", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz with no models: %d", rec.Code)
	}
	if err := s.registry.Set("default", Entry{Monitor: fitMonitor(t, 400, 90), FittedAt: time.Unix(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if rec := doJSON(t, h, "GET", "/readyz", "", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("readyz with a model: %d", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	batch := scoreWindow(t, 25, 100)
	doJSON(t, h, "POST", "/api/v1/score?label=8", "text/csv", csvBody(t, batch), nil)
	doJSON(t, h, "POST", "/api/v1/score?model=absent", "application/x-ndjson", strings.NewReader("[1]"), nil)

	rec := doJSON(t, h, "GET", "/metrics", "", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	out := rec.Body.String()
	wants := []string{
		`hidod_requests_total{endpoint="/api/v1/score",method="POST",code="200"} 1`,
		`hidod_requests_total{endpoint="/api/v1/score",method="POST",code="404"} 1`,
		"hidod_records_scored_total 25",
		"# TYPE hidod_request_duration_seconds histogram",
		`hidod_model_age_seconds{model="default"} 3600`,
		"hidod_models 1",
		"hidod_in_flight_requests 1", // the /metrics request itself
	}
	for _, want := range wants {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(out, "hidod_alerts_total") {
		t.Error("alert counter family missing")
	}
}

// TestSaturation is the acceptance check: with MaxInFlight=N, N+k
// concurrent score requests produce exactly k 429s and N clean 200s.
func TestSaturation(t *testing.T) {
	const n, k = 3, 4
	s := newTestServer(t, Config{MaxInFlight: n})
	h := s.Handler()
	batch := scoreWindow(t, 5, 110)
	body := csvBody(t, batch).Bytes()

	started := make(chan struct{}, n)
	release := make(chan struct{})
	var hookOnce sync.Mutex
	parked := 0
	s.testHookScoring = func() {
		hookOnce.Lock()
		parked++
		hookOnce.Unlock()
		started <- struct{}{}
		<-release
	}

	codes := make(chan int, n+k)
	var wg sync.WaitGroup
	// N requests park inside their in-flight slot.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := doJSON(t, h, "POST", "/api/v1/score?label=8", "text/csv", bytes.NewReader(body), nil)
			codes <- rec.Code
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("score requests did not reach the scoring hook")
		}
	}
	// k more arrive while the server is saturated.
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := doJSON(t, h, "POST", "/api/v1/score?label=8", "text/csv", bytes.NewReader(body), nil)
			codes <- rec.Code
		}()
	}
	// Busy-wait until the k rejects have been counted, then release.
	deadline := time.Now().Add(10 * time.Second)
	for s.mSaturated.Value() < k {
		if time.Now().After(deadline) {
			t.Fatalf("only %v saturation rejects", s.mSaturated.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(codes)

	got := map[int]int{}
	for c := range codes {
		got[c]++
	}
	if got[http.StatusOK] != n || got[http.StatusTooManyRequests] != k {
		t.Fatalf("codes = %v, want %d 200s and %d 429s", got, n, k)
	}
	if parked != n {
		t.Errorf("%d requests reached scoring, want %d", parked, n)
	}
	if v := s.mSaturated.Value(); v != k {
		t.Errorf("saturated counter = %v, want %d", v, k)
	}
}

func TestScoreTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	// Park the request past its deadline while it holds the slot.
	s.testHookScoring = func() { time.Sleep(100 * time.Millisecond) }
	batch := scoreWindow(t, 3000, 120)
	rec := doJSON(t, s.Handler(), "POST", "/api/v1/score?label=8", "text/csv", csvBody(t, batch), nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out score: %d %s", rec.Code, rec.Body.String())
	}
}
