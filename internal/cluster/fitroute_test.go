package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"hido/internal/obs"
	"hido/internal/server"
	"hido/internal/stream"
)

// postFit POSTs to the select node's cluster fit route and returns
// the response with its body read.
func postFit(t *testing.T, base, query string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/cluster/fit?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// wantJSONStatus requires a JSON error answer with the given status.
func wantJSONStatus(t *testing.T, what string, resp *http.Response, body string, code int) {
	t.Helper()
	if resp.StatusCode != code || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") ||
		!strings.Contains(body, `"error"`) {
		t.Errorf("%s: %d %q %s, want %d with a JSON error", what, resp.StatusCode,
			resp.Header.Get("Content-Type"), body, code)
	}
}

// sumRPCs takes every meter's counts and adds them up.
func sumRPCs(meters []*rpcMeter) int {
	n := 0
	for _, m := range meters {
		for _, c := range m.take() {
			n += c
		}
	}
	return n
}

// countGate parks a shard's count RPCs until release is closed,
// signalling entered on the first one.
type countGate struct {
	next    http.Handler
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *countGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if path.Base(r.URL.Path) == "count" {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	g.next.ServeHTTP(w, r)
}

// TestClusterFitThroughServer drives POST /api/v1/cluster/fit through
// a stock internal/server with the coordinator as its Fitter, as
// cmd/hidod's select role mounts it. The route answers with the
// single-node model bytes, a request ID, a trace whose root holds the
// fit's count RPCs, and a route metric; bad parameters are JSON 400s
// that send no RPC; a second fit in flight past MaxInFlight is a 429;
// a dead shard is a JSON 502; and two fits at one seed send each
// shard the same count and cover RPCs, byte for byte in total.
func TestClusterFitThroughServer(t *testing.T) {
	full := testData(t, 240)
	want := singleNodeModel(t, full, stream.Options{Phi: 4, Seed: 7})
	co, meters, slots := startMeteredCluster(t, splitAt(full, []int{70, 151}))
	rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"})
	s := server.New(server.Config{MaxInFlight: 1, Spans: rec})
	s.SetFitter(co)
	sel := httptest.NewServer(s.Handler())
	defer sel.Close()

	for _, q := range []string{"phi=1", "phi=65536", "s=1", "kind=ensemble"} {
		resp, body := postFit(t, sel.URL, q)
		wantJSONStatus(t, q, resp, body, http.StatusBadRequest)
		if n := sumRPCs(meters); n != 0 {
			t.Errorf("%s: %d RPCs sent for rejected parameters", q, n)
		}
	}

	fitOnce := func(model string) [][4]int {
		t.Helper()
		resp, body := postFit(t, sel.URL, "model="+model+"&phi=4&seed=7")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Request-Id") == "" {
			t.Fatalf("fit %s: %d %s (request ID %q)", model, resp.StatusCode, body, resp.Header.Get("X-Request-Id"))
		}
		var out struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil || out.Model != model {
			t.Fatalf("fit %s: response %s (%v)", model, body, err)
		}
		code, js := get(t, sel.URL+"/api/v1/models/"+model)
		if code != http.StatusOK || js != string(want) {
			t.Errorf("fit %s: model (%d) differs from the single-node fit", model, code)
		}
		var perShard [][4]int
		for _, m := range meters {
			calls, sent := m.take(), m.takeSent()
			perShard = append(perShard, [4]int{calls["count"], calls["cover"], sent["count"], sent["cover"]})
		}
		traceID := resp.Header.Get("X-Trace-Id")
		if traceID == "" {
			t.Fatalf("fit %s: no X-Trace-Id", model)
		}
		waitForTrace(t, sel.URL, traceID, "/api/v1/cluster/fit", "rpc:count")
		return perShard
	}
	first, second := fitOnce("a"), fitOnce("b")
	for i, c := range first {
		if c[0] == 0 || second[i] != c {
			t.Errorf("shard %d: count and cover RPCs and their request bytes %v on the first fit, %v on the second",
				i, c, second[i])
		}
	}
	_, metrics := get(t, sel.URL+"/metrics")
	if !strings.Contains(metrics, `hidod_requests_total{endpoint="/api/v1/cluster/fit",method="POST",code="200"} 2`) {
		t.Error("route metric does not count the two fits")
	}

	// One fit parked in a count RPC holds the only in-flight slot.
	gate := &countGate{next: meters[0], entered: make(chan struct{}), release: make(chan struct{})}
	slots[0].set(gate)
	done := make(chan int)
	go func() {
		resp, err := http.Post(sel.URL+"/api/v1/cluster/fit?model=c&phi=4&seed=7", "", nil)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("parked fit never reached a count RPC")
	}
	resp, body := postFit(t, sel.URL, "model=d&phi=4&seed=7")
	wantJSONStatus(t, "second fit in flight", resp, body, http.StatusTooManyRequests)
	close(gate.release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("parked fit answered %d", code)
	}
	slots[0].set(meters[0])

	// A shard that drops every connection fails the fit.
	slots[1].set(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }))
	resp, body = postFit(t, sel.URL, "model=e&phi=4&seed=7")
	wantJSONStatus(t, "dead shard", resp, body, http.StatusBadGateway)
	if code, _ := get(t, sel.URL+"/api/v1/models/e"); code != http.StatusNotFound {
		t.Errorf("failed fit installed a model (%d)", code)
	}
}

// waitForTrace polls the select node's debug endpoint until the trace
// holds a span of every wanted name: the root span lands in the ring
// in the middleware's deferred cleanup, which can trail the response.
func waitForTrace(t *testing.T, base, traceID string, names ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, base+"/api/v1/debug/traces/"+traceID)
		missing := ""
		for _, n := range names {
			if !strings.Contains(body, `"name":"`+n+`"`) {
				missing = n
				break
			}
		}
		if code == http.StatusOK && missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s: %d, no %q span", traceID, code, missing)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A coordinator whose options fail stream.Options.Validate returns the
// error before any RPC, where φ above 65 535 used to gather every
// shard's rows and then panic in the discretizer.
func TestClusterFitRejectsOptionsBeforeRPC(t *testing.T) {
	co, meters, _ := startMeteredCluster(t, splitAt(testData(t, 120), []int{60}))
	for _, opt := range []FitOptions{
		{Phi: 1}, {Phi: 65536}, {Phi: 4, TargetS: 1}, {Phi: 4, M: -1},
		{Phi: 4, Ensemble: &stream.EnsembleOptions{Combiner: "median"}},
	} {
		if _, _, err := co.Fit(context.Background(), opt); err == nil {
			t.Errorf("%+v: fit succeeded", opt)
		}
		if n := sumRPCs(meters); n != 0 {
			t.Errorf("%+v: %d RPCs sent", opt, n)
		}
	}
}
