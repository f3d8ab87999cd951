// Package server is hido's network-facing serving subsystem: the HTTP
// API behind cmd/hidod. It wraps the streaming monitor
// (internal/stream) in a named model registry and exposes scoring,
// asynchronous fitting, model management, health probes and
// Prometheus-format self-metrics (internal/metrics).
//
// The paper's motivating deployments — credit-card fraud, network
// intrusion — are online services: models are mined offline on a
// reference window and incoming events are scored continuously. This
// package is that deployment shape. Production behaviors are part of
// the design, not bolt-ons:
//
//   - backpressure: a max-in-flight semaphore bounds the heavy
//     endpoints (score, ingest, top-n and both fits); excess requests
//     get 429 immediately instead of queueing without bound.
//   - per-request timeouts: scoring runs under the request context
//     plus a configurable deadline; a timed-out or disconnected
//     request abandons its batch instead of burning the worker pool.
//   - body-size limits: every request body is capped; overruns are 413.
//   - hot swap: PUT /api/v1/models/{name} replaces a model atomically
//     while scoring traffic continues on the old snapshot.
//   - observability: structured access logs plus /metrics counters,
//     latency histograms, and gauges for in-flight work and model age.
//
// API (all JSON unless noted):
//
//	POST   /api/v1/score?model=N[&explain=1][&all=1]   score a batch (CSV or JSON-lines body)
//	POST   /api/v1/ingest?model=N[&explain=1][&all=1]  score a batch AND feed it into the model's sliding window (needs -ingest-window)
//	GET    /api/v1/topn?model=N&n=K                    rank stored reference rows (needs -data or -role select)
//	POST   /api/v1/fit?model=N&phi=..&s=..             async fit -> 202 + job id
//	POST   /api/v1/cluster/fit?model=N&phi=..&s=..     distributed fit over the storage nodes -> 200 (needs -role select)
//	GET    /api/v1/jobs/{id}                           fit job status
//	GET    /api/v1/models                              list models + metadata
//	GET    /api/v1/models/{name}                       download model JSON (hidomon format)
//	PUT    /api/v1/models/{name}                       upload/hot-swap a model
//	DELETE /api/v1/models/{name}                       remove a model
//	GET    /healthz                                    liveness (always 200)
//	GET    /readyz                                     readiness (503 until a model is loaded)
//	GET    /metrics                                    Prometheus text format
package server

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hido/internal/metrics"
	"hido/internal/obs"
	"hido/internal/stream"
)

// Config tunes the server. The zero value serves with sane defaults.
type Config struct {
	// MaxInFlight bounds concurrently served heavy requests (score,
	// fit); excess requests are rejected with 429. Default 64.
	MaxInFlight int
	// MaxFitJobs bounds concurrently running background fits; excess
	// fit requests are rejected with 429. Default 2.
	MaxFitJobs int
	// MaxBodyBytes caps request bodies; overruns are 413.
	// Default 32 MiB.
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline for heavy endpoints.
	// Default 30s.
	RequestTimeout time.Duration
	// ScoreWorkers is the per-request scoring fan-out (0 =
	// GOMAXPROCS). Total scoring parallelism is bounded by
	// MaxInFlight × ScoreWorkers.
	ScoreWorkers int
	// Logger receives structured access and error logs; nil discards.
	Logger *slog.Logger
	// Now is the clock (test seam). Default time.Now.
	Now func() time.Time
	// Store, when set, receives every registry mutation — fit
	// completion, model upload, delete — so the model set survives a
	// process crash; nil keeps the registry memory-only. Persistence is
	// best-effort: a store failure is logged and counted
	// (hidod_store_errors_total) but never fails the request, so a full
	// disk degrades durability, not serving. cmd/hidod wires
	// internal/store behind -state-dir.
	Store ModelStore
	// BatchScorer, when set, replaces local scoring on /api/v1/score —
	// the cluster coordinator's scatter-gather seam. nil scores on the
	// registry monitor. See SetBatchScorer for late binding.
	BatchScorer BatchScorer
	// TopNer, when set, serves GET /api/v1/topn over stored reference
	// rows (a local -data window, or a cluster's shards). nil answers
	// 404 on that endpoint.
	TopNer TopNer
	// Spans, when set, enables distributed request tracing: the
	// middleware opens a root span per API request (honoring an inbound
	// X-Trace-Id, else reusing the request ID as trace ID), handlers
	// add phase child spans, and the debug endpoints serve the
	// recorder's ring. nil (the default) disables tracing with zero
	// cost on the serving path. cmd/hidod wires it behind -trace-sample.
	Spans *obs.SpanRecorder
	// SlowRequest, when positive, logs any request slower than this
	// threshold at warn level (JSON-lines via Logger) with its trace ID
	// so the trace can be pulled from /api/v1/debug/traces/{id}.
	SlowRequest time.Duration
	// Fitter, when set, serves POST /api/v1/cluster/fit — the cluster
	// coordinator's distributed fit seam. nil answers 404 on that
	// endpoint. See SetFitter for late binding.
	Fitter Fitter
	// TraceFetcher, when set, lets GET /api/v1/debug/traces/{id}
	// assemble spans recorded on other nodes — the cluster
	// coordinator's trace RPC seam. nil serves local spans only. See
	// SetTraceFetcher for late binding.
	TraceFetcher TraceFetcher
	// IngestWindow, when positive, enables POST /api/v1/ingest: each
	// model scores arriving records and buffers them in a sliding
	// reference window of this many rows, refitting in the background
	// every IngestRefitEvery records (internal/stream's ingest mode).
	// 0 — the default — keeps the endpoint off (it answers 404 with an
	// explanation). cmd/hidod wires it behind -ingest-window.
	IngestWindow int
	// IngestRefitEvery is the background-refit cadence in ingested
	// records. Defaults to IngestWindow: refit once per full window's
	// worth of arrivals.
	IngestRefitEvery int
}

// TraceFetcher gathers one trace's spans from the rest of the
// cluster. Implementations fan out to storage peers and tolerate
// partial answers: an unreachable or pre-tracing peer contributes no
// spans, not an error.
type TraceFetcher interface {
	FetchTrace(ctx context.Context, traceID string) ([]obs.SpanData, error)
}

// ModelStore persists registry mutations. Implementations must be safe
// for concurrent use: fit jobs commit from their own goroutines while
// uploads and deletes arrive on request handlers.
type ModelStore interface {
	Save(name string, mon *stream.Monitor, fittedAt time.Time, source string) error
	Delete(name string) error
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.MaxFitJobs == 0 {
		c.MaxFitJobs = 2
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ScoreWorkers == 0 {
		c.ScoreWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.IngestWindow > 0 && c.IngestRefitEvery <= 0 {
		c.IngestRefitEvery = c.IngestWindow
	}
	return c
}

// Server is the HTTP serving subsystem. Create with New, mount
// Handler() on an http.Server, and call DrainJobs during shutdown.
type Server struct {
	cfg      Config
	registry *Registry
	jobs     *jobs
	reg      *metrics.Registry
	sem      chan struct{}
	mux      *http.ServeMux

	reqIDs  *obs.IDSource
	started time.Time

	mRequests *metrics.Counter
	mLatency  *metrics.Histogram
	mPhase    *metrics.Histogram

	// Pre-bound phase series for the scoring and ingest hot paths:
	// observing through them does no label lookup and no allocation.
	phScoreDecode *metrics.BoundHistogram
	phScoreScore  *metrics.BoundHistogram
	phScoreEncode *metrics.BoundHistogram

	phIngestDecode *metrics.BoundHistogram
	phIngestScore  *metrics.BoundHistogram
	phIngestEncode *metrics.BoundHistogram

	mInFlight    *metrics.Gauge
	mSaturated   *metrics.Counter
	mRecords     *metrics.Counter
	mAlerts      *metrics.Counter
	mModels      *metrics.Gauge
	mModelAge    *metrics.Gauge
	mJobsRunning *metrics.Gauge
	mJobsTotal   *metrics.Counter

	mGoroutines *metrics.Gauge
	mHeapBytes  *metrics.Gauge
	mGCPauses   *metrics.Gauge
	mGCCycles   *metrics.Gauge

	// Scheduler/GC pressure from runtime/metrics, refreshed at scrape
	// time; runtimeSamples is the reusable sample batch (guarded by
	// runtimeMu — scrapes are rare, contention is nil).
	mSchedLat      *metrics.Gauge
	mGCPauseQ      *metrics.Gauge
	mMutexWait     *metrics.Gauge
	runtimeMu      sync.Mutex
	runtimeSamples []rtmetrics.Sample

	mSlow       *metrics.Counter
	mTraceSpans *metrics.Gauge

	mStoreSaves  *metrics.Counter
	mStoreErrors *metrics.Counter

	mIngestRecords *metrics.Counter
	mIngestRefits  *metrics.Counter
	mIngestDrift   *metrics.Gauge
	mIngestWindow  *metrics.Gauge

	// testHookScoring, when set, runs while a score request holds its
	// in-flight slot, letting tests park requests deterministically.
	testHookScoring func()
	// testHookFitting, when set, runs inside the async fit goroutine
	// before the fit starts; tests use it to inject panics and stalls.
	testHookFitting func()
}

// New builds a Server with an empty model registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		jobs:     newJobs(),
		reg:      reg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		reqIDs:   obs.NewIDSource("req"),
		started:  cfg.Now(),

		mRequests: reg.Counter("hidod_requests_total",
			"HTTP requests served, by endpoint, method and status code.",
			"endpoint", "method", "code"),
		mLatency: reg.Histogram("hidod_request_duration_seconds",
			"HTTP request latency in seconds, by endpoint.", nil, "endpoint"),
		mPhase: reg.Histogram("hidod_request_phase_seconds",
			"Per-phase request latency in seconds (decode, score, encode), by endpoint.",
			nil, "endpoint", "phase"),
		mInFlight: reg.Gauge("hidod_in_flight_requests",
			"Requests currently being served."),
		mSaturated: reg.Counter("hidod_saturated_total",
			"Requests rejected with 429 because max-in-flight (or the fit-job bound) was reached."),
		mRecords: reg.Counter("hidod_records_scored_total",
			"Records scored across all score requests."),
		mAlerts: reg.Counter("hidod_alerts_total",
			"Scored records that matched at least one sparse projection."),
		mModels: reg.Gauge("hidod_models",
			"Models currently installed in the registry."),
		mModelAge: reg.Gauge("hidod_model_age_seconds",
			"Seconds since each installed model was fitted or uploaded.", "model"),
		mJobsRunning: reg.Gauge("hidod_fit_jobs_running",
			"Background fit jobs currently running."),
		mJobsTotal: reg.Counter("hidod_fit_jobs_total",
			"Completed background fit jobs, by final state.", "state"),

		mGoroutines: reg.Gauge("hidod_goroutines",
			"Goroutines alive at scrape time."),
		mHeapBytes: reg.Gauge("hidod_heap_alloc_bytes",
			"Bytes of allocated heap objects at scrape time."),
		mGCPauses: reg.Gauge("hidod_gc_pause_seconds_total",
			"Cumulative stop-the-world GC pause seconds."),
		mGCCycles: reg.Gauge("hidod_gc_cycles_total",
			"Completed GC cycles."),

		mSchedLat: reg.Gauge("hidod_sched_latency_seconds",
			"Goroutine scheduling latency (time runnable before running) since process start, by quantile, from runtime/metrics /sched/latencies:seconds.",
			"quantile"),
		mGCPauseQ: reg.Gauge("hidod_gc_pause_seconds",
			"GC stop-the-world pause duration since process start, by quantile, from runtime/metrics /gc/pauses:seconds.",
			"quantile"),
		mMutexWait: reg.Gauge("hidod_mutex_wait_seconds_total",
			"Approximate cumulative seconds goroutines have spent blocked on runtime-internal and sync mutexes, from runtime/metrics /sync/mutex/wait/total:seconds."),

		mSlow: reg.Counter("hidod_slow_requests_total",
			"Requests slower than the -slow-request threshold, by endpoint.",
			"endpoint"),
		mTraceSpans: reg.Gauge("hidod_trace_spans_recorded_total",
			"Spans completed into the trace ring since process start (0 when tracing is disabled)."),

		mStoreSaves: reg.Counter("hidod_store_saves_total",
			"Registry mutations committed to the on-disk model store, by operation.",
			"op"),
		mStoreErrors: reg.Counter("hidod_store_errors_total",
			"Model-store operations that failed (durability degraded, serving unaffected), by operation.",
			"op"),

		mIngestRecords: reg.Counter("hidod_ingest_records_total",
			"Records accepted into sliding reference windows across all ingest requests."),
		mIngestRefits: reg.Counter("hidod_ingest_refits_total",
			"Completed background refits from ingested windows, by model and outcome.",
			"model", "outcome"),
		mIngestDrift: reg.Gauge("hidod_ingest_drift",
			"Live divergence between each serving grid cut's exact rank in the model's buffered window and its equi-depth target, refreshed at scrape time.",
			"model"),
		mIngestWindow: reg.Gauge("hidod_ingest_window_rows",
			"Records currently buffered in each model's sliding reference window.",
			"model"),
	}
	s.phScoreDecode = s.mPhase.Bind("/api/v1/score", "decode")
	s.phScoreScore = s.mPhase.Bind("/api/v1/score", "score")
	s.phScoreEncode = s.mPhase.Bind("/api/v1/score", "encode")
	s.phIngestDecode = s.mPhase.Bind("/api/v1/ingest", "decode")
	s.phIngestScore = s.mPhase.Bind("/api/v1/ingest", "score")
	s.phIngestEncode = s.mPhase.Bind("/api/v1/ingest", "encode")
	s.runtimeSamples = []rtmetrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/pauses:seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	s.mux = http.NewServeMux()
	s.route("POST /api/v1/score", "/api/v1/score", true, s.handleScore)
	s.route("POST /api/v1/ingest", "/api/v1/ingest", true, s.handleIngest)
	s.route("GET /api/v1/topn", "/api/v1/topn", true, s.handleTopN)
	s.route("POST /api/v1/fit", "/api/v1/fit", true, s.handleFit)
	s.route("POST /api/v1/cluster/fit", "/api/v1/cluster/fit", true, s.handleClusterFit)
	s.route("GET /api/v1/jobs/{id}", "/api/v1/jobs/{id}", false, s.handleJob)
	s.route("GET /api/v1/models", "/api/v1/models", false, s.handleModelList)
	s.route("GET /api/v1/models/{name}", "/api/v1/models/{name}", false, s.handleModelGet)
	s.route("PUT /api/v1/models/{name}", "/api/v1/models/{name}", false, s.handleModelPut)
	s.route("DELETE /api/v1/models/{name}", "/api/v1/models/{name}", false, s.handleModelDelete)
	s.route("GET /api/v1/debug/traces", "/api/v1/debug/traces", false, s.handleDebugTraces)
	s.route("GET /api/v1/debug/traces/{id}", "/api/v1/debug/traces/{id}", false, s.handleDebugTrace)
	s.route("GET /api/v1/debug/requests", "/api/v1/debug/requests", false, s.handleDebugRequests)
	s.route("GET /healthz", "/healthz", false, s.handleHealthz)
	s.route("GET /readyz", "/readyz", false, s.handleReadyz)
	s.route("GET /metrics", "/metrics", false, s.handleMetrics)
	return s
}

// traced reports whether requests to an endpoint get a root span.
// Observability endpoints don't: tracing the trace reader (or the
// metrics scrape loop) would fill the span ring with its own
// introspection traffic.
func traced(endpoint string) bool {
	switch endpoint {
	case "/metrics", "/healthz", "/readyz":
		return false
	}
	return !strings.HasPrefix(endpoint, "/api/v1/debug/")
}

// Registry exposes the model store (cmd/hidod preloads models into it).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the metrics registry (for extra process-level gauges).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetBatchScorer installs the scoring seam after construction —
// cmd/hidod builds the cluster coordinator against this server's
// metrics registry, which only exists once New has returned. Must be
// called before the server starts serving.
func (s *Server) SetBatchScorer(b BatchScorer) { s.cfg.BatchScorer = b }

// SetTopNer installs the top-n seam after construction; same late
// binding contract as SetBatchScorer.
func (s *Server) SetTopNer(t TopNer) { s.cfg.TopNer = t }

// SetFitter installs the distributed fit seam after construction;
// same late binding contract as SetBatchScorer.
func (s *Server) SetFitter(f Fitter) { s.cfg.Fitter = f }

// SetTraceFetcher installs the cross-node trace seam after
// construction; same late binding contract as SetBatchScorer.
func (s *Server) SetTraceFetcher(f TraceFetcher) { s.cfg.TraceFetcher = f }

// Spans exposes the server's span recorder (nil when tracing is off);
// cmd/hidod hands it to the cluster coordinator so RPC spans land in
// the same ring.
func (s *Server) Spans() *obs.SpanRecorder { return s.cfg.Spans }

// DrainJobs blocks until running fit jobs and in-flight background
// ingest refits finish, or ctx expires. Graceful shutdown calls it
// after http.Server.Shutdown has drained request handlers.
func (s *Server) DrainJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.jobs.wait()
		for _, n := range s.registry.Names() {
			if e, ok := s.registry.Get(n); ok {
				e.Monitor.WaitIngest()
			}
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// routeMetrics caches the metric series one route writes on every
// request, so the middleware does no label joins in steady state: the
// latency histogram is bound at mount time, and one counter per status
// code is bound the first time that code is served.
type routeMetrics struct {
	latency *metrics.BoundHistogram
	codes   [600]atomic.Pointer[metrics.BoundCounter]
}

func (rm *routeMetrics) counter(s *Server, endpoint, method string, code int) *metrics.BoundCounter {
	if code < 100 || code >= len(rm.codes) {
		return nil
	}
	if c := rm.codes[code].Load(); c != nil {
		return c
	}
	c := s.mRequests.Bind(endpoint, method, strconv.Itoa(code))
	// A racing Store targets the same underlying series; either
	// BoundCounter is correct.
	rm.codes[code].Store(c)
	return c
}

// route mounts a handler with the shared middleware stack: request-ID
// assignment, body limits, access logging, request metrics, and — for
// heavy endpoints — the in-flight semaphore and per-request deadline.
func (s *Server) route(pattern, endpoint string, heavy bool, h http.HandlerFunc) {
	method, _, _ := strings.Cut(pattern, " ")
	rm := &routeMetrics{latency: s.mLatency.Bind(endpoint)}
	spannable := traced(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Now()
		sw := &statusWriter{ResponseWriter: w}
		// Propagate the caller's correlation ID when it supplies one;
		// mint a fresh one otherwise. Handlers read it back from the
		// request context (obs.RequestID) and clients from the response
		// header.
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = s.reqIDs.Next()
		}
		sw.Header().Set("X-Request-Id", reqID)
		ctx := obs.WithRequestID(r.Context(), reqID)
		// Root span for the trace: an inbound X-Trace-Id joins the
		// caller's trace, otherwise the request ID doubles as trace ID.
		// The response echoes the trace ID so clients can pull the span
		// tree from /api/v1/debug/traces/{id}. All of this is skipped —
		// span stays nil, zero allocations — when tracing is off.
		var span *obs.Span
		if spannable && s.cfg.Spans != nil {
			traceID := r.Header.Get("X-Trace-Id")
			if traceID == "" {
				traceID = reqID
			}
			if span = s.cfg.Spans.StartRoot(endpoint, traceID); span != nil {
				sw.Header().Set("X-Trace-Id", traceID)
				ctx = obs.ContextWithSpan(ctx, span)
			}
		}
		if heavy {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)
		s.mInFlight.Add(1)
		defer func() {
			s.mInFlight.Add(-1)
			elapsed := s.cfg.Now().Sub(start)
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
				s.mSlow.Inc(endpoint)
				s.cfg.Logger.Warn("slow request",
					"req", reqID, "trace", span.TraceID(),
					"method", r.Method, "endpoint", endpoint,
					"code", code,
					"duration_ms", float64(elapsed.Microseconds())/1000,
					"threshold_ms", float64(s.cfg.SlowRequest.Microseconds())/1000,
					"remote", r.RemoteAddr)
			}
			// End after the slow-request log: End recycles the span.
			if span != nil {
				span.SetAttrInt("code", int64(code))
				span.End()
			}
			// GET patterns also match HEAD requests; those take the
			// label-joining slow path so the method label stays truthful.
			if c := rm.counter(s, endpoint, method, code); c != nil && r.Method == method {
				c.Inc()
			} else {
				s.mRequests.Inc(endpoint, r.Method, strconv.Itoa(code))
			}
			rm.latency.Observe(elapsed.Seconds())
			if s.cfg.Logger.Enabled(context.Background(), slog.LevelInfo) {
				s.cfg.Logger.Info("request",
					"req", reqID,
					"method", r.Method, "path", r.URL.Path, "endpoint", endpoint,
					"code", code, "bytes", sw.bytes,
					"duration_ms", float64(elapsed.Microseconds())/1000,
					"remote", r.RemoteAddr)
			}
		}()

		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		if heavy {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.mSaturated.Inc()
				writeError(sw, http.StatusTooManyRequests, "server saturated: max in-flight requests reached")
				return
			}
		}
		h(sw, r)
	})
}

// persist commits the named registry entry to the configured model
// store, if any. Best-effort: failures are logged and counted, never
// surfaced to the serving path — a broken disk degrades durability,
// not availability.
func (s *Server) persist(name string, log *slog.Logger) {
	if s.cfg.Store == nil {
		return
	}
	e, ok := s.registry.Get(name)
	if !ok {
		return
	}
	if err := s.cfg.Store.Save(name, e.Monitor, e.FittedAt, e.Source); err != nil {
		s.mStoreErrors.Inc("save")
		log.Error("model persist failed", "model", name, "error", err)
		return
	}
	s.mStoreSaves.Inc("save")
}

// unpersist removes the named model from the configured store, if any,
// with the same best-effort semantics as persist.
func (s *Server) unpersist(name string, log *slog.Logger) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Delete(name); err != nil {
		s.mStoreErrors.Inc("delete")
		log.Error("model unpersist failed", "model", name, "error", err)
		return
	}
	s.mStoreSaves.Inc("delete")
}

// phase times one stage of a request (decode, score, encode) into the
// per-phase latency histogram: f runs, then the elapsed wall clock is
// recorded under the endpoint+phase pair.
func (s *Server) phase(endpoint, phase string, f func()) {
	start := s.cfg.Now()
	f()
	s.mPhase.Observe(s.cfg.Now().Sub(start).Seconds(), endpoint, phase)
}

// httpStatusFromErr maps decode/scoring failures to status codes.
func httpStatusFromErr(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
