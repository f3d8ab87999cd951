package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/dataset"
	"hido/internal/stream"
)

// localFitter is a Fitter over rows this process holds: the
// distributed fit's contract (one synchronous fit, model and its
// bytes back) without a cluster. calls counts Fit invocations.
type localFitter struct {
	ds    *dataset.Dataset
	calls atomic.Int32
	// block, when set, parks Fit until the request context ends.
	block bool
	fail  error
}

func (f *localFitter) Fit(ctx context.Context, opt stream.Options) (*stream.Monitor, []byte, error) {
	f.calls.Add(1)
	if f.block {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	if f.fail != nil {
		return nil, nil, f.fail
	}
	mon, err := stream.NewMonitor(f.ds, opt)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		return nil, nil, err
	}
	return mon, buf.Bytes(), nil
}

// badFitQueries are parameter sets both fit endpoints must answer
// with 400 before any fit starts.
var badFitQueries = []string{
	"phi=1", "phi=65536", "phi=x",
	"s=1", "s=0", "s=NaN", "s=-Inf",
	"m=-1", "seed=-1", "kind=bagging",
	"kind=ensemble&members=-1", "kind=ensemble&combiner=median",
}

// wantJSONError requires a JSON error body with the given status.
func wantJSONError(t *testing.T, what string, code int, got int, ctype, body string) {
	t.Helper()
	if got != code || !strings.HasPrefix(ctype, "application/json") || !strings.Contains(body, `"error"`) {
		t.Errorf("%s: %d %q %s, want %d with a JSON error", what, got, ctype, body, code)
	}
}

// TestFitParametersRejected sends every bad parameter set to both fit
// endpoints: each must answer 400 JSON without starting a job or
// calling the Fitter. φ above 65 535 used to be accepted by
// /api/v1/fit and fail the job later as a panic in the discretizer.
func TestFitParametersRejected(t *testing.T) {
	fitter := &localFitter{ds: refWindow(t, 300, 160)}
	s := newTestServer(t, Config{Fitter: fitter})
	h := s.Handler()
	body := csvBody(t, refWindow(t, 200, 161)).String()
	for _, q := range badFitQueries {
		rec := doJSON(t, h, "POST", "/api/v1/fit?"+q, "text/csv", strings.NewReader(body), nil)
		wantJSONError(t, "/api/v1/fit?"+q, http.StatusBadRequest, rec.Code,
			rec.Header().Get("Content-Type"), rec.Body.String())
		rec = doJSON(t, h, "POST", "/api/v1/cluster/fit?"+q, "", nil, nil)
		wantJSONError(t, "/api/v1/cluster/fit?"+q, http.StatusBadRequest, rec.Code,
			rec.Header().Get("Content-Type"), rec.Body.String())
	}
	// A valid ensemble request is a distributed-fit 400 only.
	rec := doJSON(t, h, "POST", "/api/v1/cluster/fit?kind=ensemble", "", nil, nil)
	wantJSONError(t, "cluster kind=ensemble", http.StatusBadRequest, rec.Code,
		rec.Header().Get("Content-Type"), rec.Body.String())
	if n := s.jobs.inFlight(); n != 0 {
		t.Errorf("%d fit jobs started for rejected parameters", n)
	}
	if n := fitter.calls.Load(); n != 0 {
		t.Errorf("Fitter called %d times for rejected parameters", n)
	}
}

// TestClusterFitRoute drives POST /api/v1/cluster/fit through the
// middleware with a local Fitter: the model is installed and
// persisted under ?model=, the response carries a request ID and is
// counted per route, and a failed or overdue fit answers JSON 502 or
// 504. Without a Fitter the route is a 404.
func TestClusterFitRoute(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec := doJSON(t, h, "POST", "/api/v1/cluster/fit", "", nil, nil)
	wantJSONError(t, "no Fitter", http.StatusNotFound, rec.Code,
		rec.Header().Get("Content-Type"), rec.Body.String())

	ref := refWindow(t, 300, 162)
	fitter := &localFitter{ds: ref}
	fs := newFakeStore()
	s := newTestServer(t, Config{Fitter: fitter, Store: fs, RequestTimeout: 50 * time.Millisecond})
	h = s.Handler()
	var out clusterFitResponse
	rec = doJSON(t, h, "POST", "/api/v1/cluster/fit?model=mined&phi=4&seed=9", "", nil, &out)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Request-Id") == "" {
		t.Fatalf("cluster fit: %d %s (request ID %q)", rec.Code, rec.Body.String(), rec.Header().Get("X-Request-Id"))
	}
	want, err := stream.NewMonitor(ref, stream.Options{Phi: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.registry.Get("mined")
	if !ok || e.Source != "cluster-fit" {
		t.Fatalf("model not installed: %+v %v", e, ok)
	}
	var got, wantJS bytes.Buffer
	if err := e.Monitor.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wantJS); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantJS.Bytes()) {
		t.Error("installed model differs from a fit with the same parameters")
	}
	if out.Model != "mined" || out.Phi != 4 || out.K != want.K() || out.Projections != len(want.Projections()) {
		t.Errorf("response %+v", out)
	}
	if src, ok := fs.savedSource("mined"); !ok || src != "cluster-fit" {
		t.Errorf("cluster fit not persisted: %q %v", src, ok)
	}
	metrics := doJSON(t, h, "GET", "/metrics", "", nil, nil).Body.String()
	if !strings.Contains(metrics, `hidod_requests_total{endpoint="/api/v1/cluster/fit",method="POST",code="200"} 1`) {
		t.Error("route metric not counted")
	}
	if !strings.Contains(metrics, `hidod_store_saves_total{op="save"} 1`) {
		t.Error("store save not counted")
	}

	fitter.fail = errors.New("shard gone")
	rec = doJSON(t, h, "POST", "/api/v1/cluster/fit?model=broken", "", nil, nil)
	wantJSONError(t, "failed fit", http.StatusBadGateway, rec.Code,
		rec.Header().Get("Content-Type"), rec.Body.String())
	fitter.fail, fitter.block = nil, true
	rec = doJSON(t, h, "POST", "/api/v1/cluster/fit?model=slow", "", nil, nil)
	wantJSONError(t, "overdue fit", http.StatusGatewayTimeout, rec.Code,
		rec.Header().Get("Content-Type"), rec.Body.String())
	for _, name := range []string{"broken", "slow"} {
		if _, ok := s.registry.Get(name); ok {
			t.Errorf("failed fit installed %q", name)
		}
	}
}
