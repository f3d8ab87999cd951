package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/obs"
	"hido/internal/server"
	"hido/internal/stream"
)

// TestTraceProtoRoundTrip drives the trace messages through encode →
// decode and requires them back unchanged.
func TestTraceProtoRoundTrip(t *testing.T) {
	req := &traceReq{TraceID: "t-cafe"}
	typ, payload, err := decodeFrame(req.encode())
	if err != nil || typ != msgTraceReq {
		t.Fatalf("traceReq frame: type %d err %v", typ, err)
	}
	var gotReq traceReq
	if err := gotReq.decode(payload); err != nil || gotReq.TraceID != "t-cafe" {
		t.Fatalf("traceReq: got %+v err %v", gotReq, err)
	}

	// Starts built via time.Unix: the wire carries UTC unix nanos, so
	// monotonic-clock-free times round-trip exactly.
	resp := &traceResp{Spans: []obs.SpanData{
		{TraceID: "t-1", SpanID: "s-1", Name: "storage:score", Node: "storage :9001",
			Start: time.Unix(1700000000, 12345).UTC(), DurMS: 1.5,
			Attrs: obs.SpanAttrs{{Key: "code", Value: "200"}, {Key: "rows", Value: "80"}}},
		{TraceID: "t-1", SpanID: "s-2", ParentID: "s-1", Name: "storage:count",
			Start: time.Unix(1700000001, 0).UTC(), DurMS: math.Inf(1)},
	}}
	typ, payload, err = decodeFrame(resp.encode())
	if err != nil || typ != msgTraceResp {
		t.Fatalf("traceResp frame: type %d err %v", typ, err)
	}
	var gotResp traceResp
	if err := gotResp.decode(payload); err != nil {
		t.Fatalf("traceResp decode: %v", err)
	}
	if !reflect.DeepEqual(resp.Spans, gotResp.Spans) {
		t.Errorf("traceResp: got %+v want %+v", gotResp.Spans, resp.Spans)
	}
}

// spanTreeJSON mirrors the debug endpoint's tree nodes.
type spanTreeJSON struct {
	Trace    string         `json:"trace"`
	Span     string         `json:"span"`
	Parent   string         `json:"parent"`
	Name     string         `json:"name"`
	Node     string         `json:"node"`
	Children []spanTreeJSON `json:"children"`
}

// flattenTree lists every node in the forest.
func flattenTree(nodes []spanTreeJSON) []spanTreeJSON {
	var out []spanTreeJSON
	for _, n := range nodes {
		out = append(out, n)
		out = append(out, flattenTree(n.Children)...)
	}
	return out
}

// TestClusterTraceEndToEnd is the tentpole acceptance test: one score
// request against a traced 3-shard cluster yields, via a single GET
// on the select node's debug endpoint, a span tree under one trace ID
// holding the root, the serving phases, a per-peer RPC span per
// shard, and the storage-side spans each shard recorded. After a
// shard dies, the next trace shows the local failover span.
func TestClusterTraceEndToEnd(t *testing.T) {
	full := testData(t, 240)
	mon, err := stream.NewMonitor(full, stream.Options{Phi: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	shards := splitAt(full, []int{70, 151})
	var peers []string
	var storageSrvs []*httptest.Server
	var storageRecs []*obs.SpanRecorder
	for i, sh := range shards {
		rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "storage-" + string(rune('a'+i))})
		st := NewStorage(sh, nil)
		st.SetSpans(rec)
		srv := httptest.NewServer(st.Handler())
		t.Cleanup(srv.Close)
		storageSrvs = append(storageSrvs, srv)
		storageRecs = append(storageRecs, rec)
		peers = append(peers, srv.URL)
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Peers:  peers,
		Quorum: 1,
		Client: ClientConfig{Timeout: 10 * time.Second, Retries: -1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	selRec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"})
	sSel := server.New(server.Config{Spans: selRec})
	sSel.SetBatchScorer(co)
	sSel.SetTopNer(co)
	sSel.SetTraceFetcher(co)
	installModel(t, sSel, mon)
	sel := httptest.NewServer(sSel.Handler())
	defer sel.Close()

	scoreOnce := func() string {
		t.Helper()
		resp, err := http.Post(sel.URL+"/api/v1/score?all=1", "application/x-ndjson",
			strings.NewReader(scoreBody(t, full)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score: %d", resp.StatusCode)
		}
		traceID := resp.Header.Get("X-Trace-Id")
		if traceID == "" {
			t.Fatal("score response carries no X-Trace-Id")
		}
		return traceID
	}

	// fetchTree pulls the assembled cross-node tree, polling briefly:
	// the root span lands in the ring in the middleware's deferred
	// cleanup, which can trail the response by a scheduler beat.
	fetchTree := func(traceID string) []spanTreeJSON {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			code, body := get(t, sel.URL+"/api/v1/debug/traces/"+traceID)
			if code == http.StatusOK {
				var tr struct {
					Trace string         `json:"trace"`
					Spans int            `json:"spans"`
					Tree  []spanTreeJSON `json:"tree"`
				}
				if err := json.Unmarshal([]byte(body), &tr); err != nil {
					t.Fatalf("trace response not JSON: %v in %q", err, body)
				}
				flat := flattenTree(tr.Tree)
				rooted := false
				for _, n := range flat {
					if n.Parent == "" && n.Name == "/api/v1/score" {
						rooted = true
					}
				}
				if rooted {
					return tr.Tree
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never became complete (last: %d)", traceID, code)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	traceID := scoreOnce()
	flat := flattenTree(fetchTree(traceID))

	names := map[string]int{}
	for _, n := range flat {
		if n.Trace != traceID {
			t.Fatalf("span %s carries trace %s, want %s", n.Span, n.Trace, traceID)
		}
		names[n.Name]++
	}
	for _, want := range []string{"/api/v1/score", "decode", "score", "encode"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %q span (have %v)", want, names)
		}
	}
	// One score RPC per shard, each continued on its shard: the
	// storage-side span rode back through the trace RPC.
	if names["rpc:score"] < len(shards) {
		t.Errorf("trace has %d rpc:score spans, want >= %d (have %v)", names["rpc:score"], len(shards), names)
	}
	if names["storage:score"] < len(shards) {
		t.Errorf("trace has %d storage:score spans, want >= %d (have %v)", names["storage:score"], len(shards), names)
	}
	// Storage spans must say which node ran them, and each shard must
	// actually hold its own spans locally.
	for i, rec := range storageRecs {
		if len(rec.Trace(traceID)) == 0 {
			t.Errorf("shard %d retained no spans for trace %s", i, traceID)
		}
	}
	for _, n := range flat {
		if strings.HasPrefix(n.Name, "storage:") && !strings.HasPrefix(n.Node, "storage-") {
			t.Errorf("storage span %q attributed to node %q", n.Name, n.Node)
		}
	}
	// Parentage: storage:score spans hang under rpc:score spans — the
	// tree is connected across the process boundary.
	var checkParent func(nodes []spanTreeJSON, parent string)
	checkParent = func(nodes []spanTreeJSON, parent string) {
		for _, n := range nodes {
			if n.Name == "storage:score" && parent != "rpc:score" {
				t.Errorf("storage:score parented under %q, want rpc:score", parent)
			}
			checkParent(n.Children, n.Name)
		}
	}
	checkParent(fetchTree(traceID), "")

	// Kill a shard: scoring fails over to a local chunk, and the trace
	// shows it.
	storageSrvs[1].Close()
	failTrace := scoreOnce()
	flat = flattenTree(fetchTree(failTrace))
	found := false
	for _, n := range flat {
		if n.Name == "failover:score" {
			found = true
			if n.Node != "select" {
				t.Errorf("failover span attributed to %q, want select", n.Node)
			}
		}
	}
	if !found {
		t.Errorf("trace after shard death lacks a failover:score span")
	}

	// The listing endpoint knows both traces.
	code, body := get(t, sel.URL+"/api/v1/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("debug/traces: %d %s", code, body)
	}
	var listing struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			TraceID string `json:"trace"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("traces listing not JSON: %v", err)
	}
	if !listing.Enabled {
		t.Error("traces listing says tracing disabled")
	}
	got := map[string]bool{}
	for _, tr := range listing.Traces {
		got[tr.TraceID] = true
	}
	if !got[traceID] || !got[failTrace] {
		t.Errorf("traces listing lacks %s or %s: %+v", traceID, failTrace, listing.Traces)
	}
}

// TestClientRetrySpans requires every attempt — including retries — to
// appear in the trace as its own RPC span with an attempt counter.
func TestClientRetrySpans(t *testing.T) {
	ds := testData(t, 40)
	st := NewStorage(ds, nil)
	real := st.Handler()
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"})
	root := rec.StartRoot("test", "t-retry")
	ctx := obs.ContextWithSpan(context.Background(), root)

	client := NewClient(ClientConfig{Timeout: 5 * time.Second, Retries: 1, Backoff: time.Millisecond})
	if _, err := client.Call(ctx, flaky.URL, "info", emptyFrame(msgInfoReq), msgInfoResp); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := rec.Trace("t-retry")
	attempts := map[string]bool{}
	erred := 0
	for _, sd := range spans {
		if sd.Name != "rpc:info" {
			continue
		}
		for _, a := range sd.Attrs {
			if a.Key == "attempt" {
				attempts[a.Value] = true
			}
			if a.Key == "error" {
				erred++
			}
		}
		if sd.ParentID == "" {
			t.Error("rpc span has no parent")
		}
	}
	if !attempts["1"] || !attempts["2"] {
		t.Errorf("retry attempts missing from trace: %v", spans)
	}
	if erred != 1 {
		t.Errorf("%d rpc spans carry an error attr, want exactly the failed first attempt", erred)
	}
}

// TestStorageTraceHeaders pins how a storage RPC reads the trace
// headers: a frame without them is served and records no span (an
// untraced or pre-tracing caller), a bad frame that carries them is
// still a 400 the client does not retry, IDs over obs.MaxIDLen are
// served untraced, and a peer that does not trace answers a traced
// call in one exchange.
func TestStorageTraceHeaders(t *testing.T) {
	ds := testData(t, 40)
	// storageNode serves a traced storage node, counting exchanges.
	storageNode := func(t *testing.T) (*obs.SpanRecorder, *atomic.Int32, string) {
		rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "storage"})
		st := NewStorage(ds, nil)
		st.SetSpans(rec)
		h := st.Handler()
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return rec, &calls, srv.URL
	}
	// postInfo posts a bare info frame with the given headers.
	postInfo := func(t *testing.T, url string, hdr map[string]string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/rpc/v1/info",
			strings.NewReader(string(emptyFrame(msgInfoReq))))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	tracedCtx := func(t *testing.T, traceID string) context.Context {
		root := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"}).StartRoot("test", traceID)
		t.Cleanup(root.End)
		return obs.ContextWithSpan(context.Background(), root)
	}

	t.Run("no-headers", func(t *testing.T) {
		rec, _, url := storageNode(t)
		if code := postInfo(t, url, nil); code != http.StatusOK {
			t.Fatalf("frame without trace headers: %d", code)
		}
		if n := rec.TotalSpans(); n != 0 {
			t.Errorf("untraced RPC recorded %d spans, want 0", n)
		}
	})

	t.Run("bad-frame-with-headers", func(t *testing.T) {
		rec, calls, url := storageNode(t)
		client := NewClient(ClientConfig{Timeout: 5 * time.Second, Retries: 2, Backoff: time.Millisecond})
		// An info frame on the count endpoint is the shard's 400 verdict.
		_, err := client.Call(tracedCtx(t, "t-bad"), url, "count", emptyFrame(msgInfoReq), msgCountResp)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("got %v, want a 400 StatusError", err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("bad frame sent %d times, want 1", n)
		}
		spans := rec.Trace("t-bad")
		if len(spans) != 1 || spans[0].Name != "storage:count" {
			t.Fatalf("storage spans for t-bad: %+v, want one storage:count", spans)
		}
		if got := spans[0].Attrs; len(got) != 1 || got[0] != (obs.SpanAttr{Key: "code", Value: "400"}) {
			t.Errorf("storage:count attrs %v, want code 400", got)
		}
	})

	t.Run("oversized-headers", func(t *testing.T) {
		rec, _, url := storageNode(t)
		long := strings.Repeat("x", obs.MaxIDLen+1)
		for _, hdr := range []map[string]string{
			{traceHeader: long, parentHeader: "s-1"},
			{traceHeader: "t-ok", parentHeader: long},
		} {
			if code := postInfo(t, url, hdr); code != http.StatusOK {
				t.Fatalf("oversized trace headers: %d, want 200", code)
			}
		}
		if n := rec.TotalSpans(); n != 0 {
			t.Errorf("oversized trace headers recorded %d spans, want 0", n)
		}
		// At the bound the same RPC is traced.
		atBound := strings.Repeat("y", obs.MaxIDLen)
		if code := postInfo(t, url, map[string]string{traceHeader: atBound, parentHeader: "s-1"}); code != http.StatusOK {
			t.Fatalf("trace ID at the bound: %d", code)
		}
		if spans := rec.Trace(atBound); len(spans) != 1 || spans[0].ParentID != "s-1" {
			t.Errorf("trace ID at the bound: spans %+v, want one parented on s-1", spans)
		}
	})

	t.Run("peer-ignores-headers", func(t *testing.T) {
		// A storage node that does not trace: it decodes the frame and
		// never looks at the headers.
		var calls atomic.Int32
		var traced atomic.Int32
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if r.Header.Get(traceHeader) == "t-compat" && r.Header.Get(parentHeader) != "" {
				traced.Add(1)
			}
			body, _ := io.ReadAll(r.Body)
			if _, _, err := decodeFrame(body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write((&infoResp{N: ds.N(), Names: ds.Names, Fingerprint: "d-x"}).encode())
		}))
		defer peer.Close()

		ctx := tracedCtx(t, "t-compat")
		client := NewClient(ClientConfig{Timeout: 5 * time.Second, Retries: -1})
		for i := 0; i < 3; i++ {
			payload, err := client.Call(ctx, peer.URL, "info", emptyFrame(msgInfoReq), msgInfoResp)
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			var info infoResp
			if err := info.decode(payload); err != nil || info.N != ds.N() {
				t.Fatalf("call %d: bad answer %+v %v", i, info, err)
			}
		}
		if calls.Load() != 3 || traced.Load() != 3 {
			t.Errorf("exchanges=%d traced=%d, want 3 traced calls in 3 exchanges", calls.Load(), traced.Load())
		}
	})
}

// TestClusterOversizedTraceID sends cluster requests whose trace ID —
// an inbound X-Trace-Id, or an X-Request-Id standing in for one — is
// longer than obs.MaxIDLen. The select node must serve them untraced
// and answer as it answers any request: top-n and score 200 from
// every shard with no chunk failed over, and the next ordinary
// request still traced across the shards, whether the coordinator has
// served traced RPCs before or not.
func TestClusterOversizedTraceID(t *testing.T) {
	full := testData(t, 240)
	mon, err := stream.NewMonitor(full, stream.Options{Phi: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", obs.MaxIDLen+1)
	for _, header := range []string{"X-Trace-Id", "X-Request-Id"} {
		for _, warm := range []bool{true, false} {
			name := header + "/fresh"
			if warm {
				name = header + "/warm"
			}
			t.Run(name, func(t *testing.T) {
				var recs []*obs.SpanRecorder
				var peers []string
				for _, sh := range splitAt(full, []int{70, 151}) {
					rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "storage"})
					st := NewStorage(sh, nil)
					st.SetSpans(rec)
					srv := httptest.NewServer(st.Handler())
					t.Cleanup(srv.Close)
					recs = append(recs, rec)
					peers = append(peers, srv.URL)
				}
				sSel := server.New(server.Config{Spans: obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"})})
				m := NewMetrics(sSel.Metrics())
				co, err := NewCoordinator(CoordinatorConfig{
					Peers:   peers,
					Metrics: m,
					Client:  ClientConfig{Timeout: 10 * time.Second, Retries: -1, Backoff: time.Millisecond},
				})
				if err != nil {
					t.Fatal(err)
				}
				sSel.SetBatchScorer(co)
				sSel.SetTopNer(co)
				installModel(t, sSel, mon)
				sel := httptest.NewServer(sSel.Handler())
				t.Cleanup(sel.Close)

				// send issues one request, with the oversized ID in header
				// unless header is "".
				send := func(method, path, header string) (*http.Response, string) {
					t.Helper()
					var body io.Reader
					if method == http.MethodPost {
						body = strings.NewReader(scoreBody(t, full))
					}
					req, err := http.NewRequest(method, sel.URL+path, body)
					if err != nil {
						t.Fatal(err)
					}
					req.Header.Set("Content-Type", "application/x-ndjson")
					if header != "" {
						req.Header.Set(header, long)
					}
					resp, err := http.DefaultClient.Do(req)
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
				// tracedScore requires an ordinary score request to be
				// traced on every shard.
				tracedScore := func() {
					t.Helper()
					resp, body := send(http.MethodPost, "/api/v1/score?all=1", "")
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("score: %d %s", resp.StatusCode, body)
					}
					id := resp.Header.Get("X-Trace-Id")
					for i, rec := range recs {
						if len(rec.Trace(id)) == 0 {
							t.Errorf("shard %d recorded no span for trace %q", i, id)
						}
					}
				}
				storageSpans := func() uint64 {
					var n uint64
					for _, rec := range recs {
						n += rec.TotalSpans()
					}
					return n
				}

				if warm {
					tracedScore()
				}
				fallback, spans := m.Fallback.Value(), storageSpans()
				resp, body := send(http.MethodGet, "/api/v1/topn?n=5", header)
				if resp.StatusCode != http.StatusOK || strings.Contains(body, `"partial":true`) {
					t.Errorf("top-n with an oversized %s: %d %s", header, resp.StatusCode, body)
				}
				resp, body = send(http.MethodPost, "/api/v1/score?all=1", header)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("score with an oversized %s: %d %s", header, resp.StatusCode, body)
				}
				if got := resp.Header.Get("X-Trace-Id"); got != "" {
					t.Errorf("untraced score answered X-Trace-Id %.40q", got)
				}
				if got := m.Fallback.Value(); got != fallback {
					t.Errorf("oversized %s moved the local fallback counter %v -> %v", header, fallback, got)
				}
				if got := storageSpans(); got != spans {
					t.Errorf("oversized %s recorded %d storage spans, want 0", header, got-spans)
				}
				tracedScore()
			})
		}
	}
}
