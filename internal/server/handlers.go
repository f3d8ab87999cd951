package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"hido/internal/dataset"
	"hido/internal/obs"
	"hido/internal/stream"
)

// scoreResponse is the body of a successful POST /api/v1/score.
type scoreResponse struct {
	Model   string                `json:"model"`
	Records int                   `json:"records"`
	Flagged int                   `json:"flagged"`
	Results []stream.RecordResult `json:"results"`
}

// fitResponse is the 202 body of POST /api/v1/fit.
type fitResponse struct {
	Job       string `json:"job"`
	Model     string `json:"model"`
	Records   int    `json:"records"`
	StatusURL string `json:"status_url"`
}

// modelInfo is one row of GET /api/v1/models.
type modelInfo struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	D           int     `json:"d"`
	K           int     `json:"k"`
	Projections int     `json:"projections"`
	Members     int     `json:"members,omitempty"`
	FittedAt    string  `json:"fitted_at"`
	AgeSeconds  float64 `json:"age_seconds"`
	Source      string  `json:"source"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// modelParam returns the model name a request addresses, defaulting to
// "default" so single-model deployments need no query parameter. q is
// the request's parsed query; nil (a request with no query string)
// yields every default.
func modelParam(q url.Values) string {
	if name := q.Get("model"); name != "" {
		return name
	}
	return "default"
}

func boolParam(q url.Values, name string) bool {
	v := q.Get(name)
	return v != "" && v != "0" && v != "false"
}

// handleScore scores one uploaded batch against a registered model.
// Each phase — decode, score, encode — is timed into the per-phase
// latency histogram (through series bound at construction). All
// request-scoped scratch — decode buffers, the dataset, alert and
// result slices, the response encoding — comes from a pooled
// scoreArena, so steady-state scoring allocates nothing beyond what
// net/http itself needs.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var q url.Values
	if r.URL.RawQuery != "" {
		q = r.URL.Query()
	}
	name := modelParam(q)
	e, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", name))
		return
	}
	ar := arenaPool.Get().(*scoreArena)
	defer arenaPool.Put(ar)
	// sp is nil when tracing is off; every span call below is then a
	// nil-receiver no-op, keeping this path allocation-free.
	sp := obs.SpanFrom(r.Context())
	sp.SetAttr("model", name)
	t := s.cfg.Now()
	csp := sp.Child("decode")
	ds, err := decodeRecords(ar, r, q, e.Monitor.D(), true)
	csp.End()
	s.phScoreDecode.Observe(s.cfg.Now().Sub(t).Seconds())
	if err != nil {
		writeError(w, httpStatusFromErr(err), err.Error())
		return
	}
	sp.SetAttrInt("records", int64(ds.N()))
	if s.testHookScoring != nil {
		s.testHookScoring()
	}
	t = s.cfg.Now()
	csp = sp.Child("score")
	var alerts []stream.Alert
	if s.cfg.BatchScorer != nil {
		alerts, err = s.cfg.BatchScorer.ScoreBatch(obs.ContextWithSpan(r.Context(), csp), name, e.Monitor, ds, s.cfg.ScoreWorkers)
	} else {
		alerts, err = e.Monitor.ScoreBatchBuf(r.Context(), ds, s.cfg.ScoreWorkers, ar.alerts)
		if alerts != nil {
			ar.alerts = alerts
		}
	}
	csp.End()
	s.phScoreScore.Observe(s.cfg.Now().Sub(t).Seconds())
	if err != nil {
		writeError(w, httpStatusFromErr(err), "scoring aborted: "+err.Error())
		return
	}
	flagged := 0
	for i := range alerts {
		if alerts[i].Flagged() {
			flagged++
		}
	}
	s.mRecords.Add(float64(len(alerts)))
	s.mAlerts.Add(float64(flagged))
	t = s.cfg.Now()
	csp = sp.Child("encode")
	ar.results = e.Monitor.ResultsAppend(ar.results, ds, alerts, boolParam(q, "explain"), !boolParam(q, "all"))
	writeJSONArena(w, ar, http.StatusOK, scoreResponse{
		Model:   name,
		Records: len(alerts),
		Flagged: flagged,
		Results: ar.results,
	})
	csp.End()
	s.phScoreEncode.Observe(s.cfg.Now().Sub(t).Seconds())
}

// fitOptions parses the parameters both fit endpoints take: phi
// (default 5), s and m (the stream defaults when absent), seed
// (default 1), and kind=single|ensemble with the ensemble's members,
// bag, algo and combiner. stream.Options.Validate checks the result,
// so both endpoints reject what a fit would.
func fitOptions(q url.Values) (stream.Options, error) {
	opt := stream.Options{Phi: 5, Seed: 1}
	var err error
	if v := q.Get("phi"); v != "" {
		if opt.Phi, err = strconv.Atoi(v); err != nil {
			return opt, errors.New("bad phi: " + v)
		}
	}
	if v := q.Get("s"); v != "" {
		// An explicit 0 is not the default: it asks for a target no
		// cube can be abnormal against.
		if opt.TargetS, err = strconv.ParseFloat(v, 64); err != nil || opt.TargetS == 0 {
			return opt, errors.New("bad s: " + v)
		}
	}
	if v := q.Get("m"); v != "" {
		if opt.M, err = strconv.Atoi(v); err != nil {
			return opt, errors.New("bad m: " + v)
		}
	}
	if v := q.Get("seed"); v != "" {
		if opt.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return opt, errors.New("bad seed: " + v)
		}
	}
	// kind=ensemble selects the subspace-ensemble model; members, bag,
	// algo, and combiner tune it (zero values pick the ensemble
	// defaults).
	switch q.Get("kind") {
	case "", "single":
	case "ensemble":
		eo := &stream.EnsembleOptions{Algo: q.Get("algo"), Combiner: q.Get("combiner")}
		if v := q.Get("members"); v != "" {
			if eo.Members, err = strconv.Atoi(v); err != nil {
				return opt, errors.New("bad members: " + v)
			}
		}
		if v := q.Get("bag"); v != "" {
			if eo.BagSize, err = strconv.Atoi(v); err != nil {
				return opt, errors.New("bad bag: " + v)
			}
		}
		opt.Ensemble = eo
	default:
		return opt, errors.New("bad kind: " + q.Get("kind") + " (want single or ensemble)")
	}
	if err := opt.Validate(); err != nil {
		return opt, fmt.Errorf("invalid fit parameters: %w", err)
	}
	return opt, nil
}

// handleFit fits a model asynchronously from an uploaded reference
// window and installs it in the registry on success.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := modelParam(q)
	opt, err := fitOptions(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Fitting tolerates categorical columns (they are integer-encoded
	// like the offline CLI does), so the lenient decoder is correct
	// here where the scoring path is strict.
	var ds *dataset.Dataset
	s.phase("/api/v1/fit", "decode", func() {
		ds, err = decodeRecords(nil, r, q, 0, false)
	})
	if err != nil {
		writeError(w, httpStatusFromErr(err), err.Error())
		return
	}

	id, err := s.jobs.start(name, ds.N(), s.cfg.MaxFitJobs, s.cfg.Now())
	if err != nil {
		s.mSaturated.Inc()
		writeError(w, http.StatusTooManyRequests, "fit rejected: "+err.Error())
		return
	}
	s.mJobsRunning.Set(float64(s.jobs.inFlight()))
	jobLog := s.cfg.Logger.With("job", id, "model", name, "req", obs.RequestID(r.Context()))
	// The fitting searches report through the job-scoped logger:
	// per-generation events at debug, run summaries at info.
	opt.Observer = obs.NewSlogObserver(jobLog)
	go func() {
		jobLog.Info("fit job started", "records", ds.N(), "phi", opt.Phi, "s", opt.TargetS)
		// The fit runs inside a recovered closure: a panicking fit must
		// still finish its job, or the WaitGroup leaks, graceful drain
		// hangs forever, and the running counter permanently consumes a
		// fit slot.
		var mon *stream.Monitor
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("fit panicked: %v", p)
				}
			}()
			if s.testHookFitting != nil {
				s.testHookFitting()
			}
			mon, err = stream.NewMonitor(ds, opt)
			if err != nil {
				return err
			}
			return s.registry.Set(name, Entry{Monitor: mon, FittedAt: s.cfg.Now(), Source: "fit:" + id})
		}()
		state, msg := "done", ""
		if err != nil {
			state, msg = "failed", err.Error()
			jobLog.Error("fit job failed", "error", msg)
		} else {
			jobLog.Info("fit job done", "projections", len(mon.Projections()))
			s.persist(name, jobLog)
		}
		s.jobs.finish(id, msg, s.cfg.Now())
		s.mJobsRunning.Set(float64(s.jobs.inFlight()))
		s.mJobsTotal.Inc(state)
	}()

	statusURL := "/api/v1/jobs/" + id
	w.Header().Set("Location", statusURL)
	writeJSON(w, http.StatusAccepted, fitResponse{
		Job: id, Model: name, Records: ds.N(), StatusURL: statusURL,
	})
}

// Fitter is the seam behind POST /api/v1/cluster/fit: a synchronous
// single-search fit over reference rows this server does not hold,
// returning the monitor and its saved model JSON. The cluster
// coordinator (internal/cluster) plugs in its distributed fit; nil
// answers 404 on that endpoint. See SetFitter for late binding.
type Fitter interface {
	Fit(ctx context.Context, opt stream.Options) (*stream.Monitor, []byte, error)
}

// clusterFitResponse is the body of a successful POST
// /api/v1/cluster/fit.
type clusterFitResponse struct {
	Model       string `json:"model"`
	Phi         int    `json:"phi"`
	K           int    `json:"k"`
	Projections int    `json:"projections"`
}

// handleClusterFit runs the Fitter's fit and installs the model under
// ?model=. It takes /api/v1/fit's parameters except kind=ensemble: the
// distributed fit mines a single-search model, so that is a 400, like
// any parameter the fit would reject, and no RPC is sent. The fit is
// synchronous because its heavy half runs on the shards. A failed fit
// answers 502, one past the request deadline 504.
func (s *Server) handleClusterFit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fitter == nil {
		writeError(w, http.StatusNotFound, "cluster fit unavailable: no storage nodes attached (start with -role select)")
		return
	}
	q := r.URL.Query()
	name := modelParam(q)
	opt, err := fitOptions(q)
	if err == nil && opt.Ensemble != nil {
		err = errors.New("bad kind: ensemble (a distributed fit mines a single-search model)")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mon, _, err := s.cfg.Fitter.Fit(r.Context(), opt)
	if err != nil {
		code := http.StatusBadGateway
		if cerr := r.Context().Err(); cerr != nil {
			code = httpStatusFromErr(cerr)
		}
		writeError(w, code, "cluster fit failed: "+err.Error())
		return
	}
	if err := s.registry.Set(name, Entry{Monitor: mon, FittedAt: s.cfg.Now(), Source: "cluster-fit"}); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.persist(name, s.cfg.Logger.With("req", obs.RequestID(r.Context())))
	writeJSON(w, http.StatusOK, clusterFitResponse{
		Model: name, Phi: opt.Phi, K: mon.K(), Projections: len(mon.Projections()),
	})
}

// handleJob reports fit job status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.jobs.get(id, s.cfg.Now())
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("job %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleModelList lists installed models with metadata.
func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.Now()
	names := s.registry.Names()
	infos := make([]modelInfo, 0, len(names))
	for _, n := range names {
		e, ok := s.registry.Get(n)
		if !ok {
			continue
		}
		infos = append(infos, modelInfo{
			Name:        n,
			Kind:        e.Monitor.Kind(),
			D:           e.Monitor.D(),
			K:           e.Monitor.K(),
			Projections: len(e.Monitor.Projections()),
			Members:     e.Monitor.Members(),
			FittedAt:    e.FittedAt.UTC().Format(time.RFC3339),
			AgeSeconds:  now.Sub(e.FittedAt).Seconds(),
			Source:      e.Source,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

// handleModelGet downloads a model as hidomon-format JSON, so a model
// fitted on the server can be scored offline by the CLI and vice
// versa.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", name))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := e.Monitor.Save(w); err != nil {
		s.cfg.Logger.Error("model download failed", "model", name, "error", err)
	}
}

// handleModelPut uploads (or hot-swaps) a model atomically.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	mon, err := stream.Load(r.Body)
	if err != nil {
		writeError(w, httpStatusFromErr(err), err.Error())
		return
	}
	if err := s.registry.Set(name, Entry{Monitor: mon, FittedAt: s.cfg.Now(), Source: "put"}); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.persist(name, s.cfg.Logger)
	writeJSON(w, http.StatusOK, map[string]any{
		"model": name, "kind": mon.Kind(), "d": mon.D(), "k": mon.K(),
		"projections": len(mon.Projections()),
	})
}

// handleModelDelete removes a model from the registry.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.Delete(name) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q not loaded", name))
		return
	}
	s.unpersist(name, s.cfg.Logger)
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz is the liveness probe. The body carries the build
// stamp (version, go toolchain, VCS revision) and process uptime so a
// probe or operator can identify the running binary.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := obs.Build()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        b.Version,
		"go":             b.GoVersion,
		"revision":       b.Revision,
		"uptime_seconds": s.cfg.Now().Sub(s.started).Seconds(),
	})
}

// handleReadyz is the readiness probe: ready once a model is loaded.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.registry.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no models loaded")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the Prometheus text exposition. Gauges derived
// from registry state (model count, model ages, ingest state, running
// jobs) and from the Go runtime (goroutines, heap, GC) are
// refreshed at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.Now()
	names := s.registry.Names()
	s.mModels.Set(float64(len(names)))
	for _, n := range names {
		if e, ok := s.registry.Get(n); ok {
			s.mModelAge.Set(now.Sub(e.FittedAt).Seconds(), n)
			if e.Monitor.IngestEnabled() {
				s.mIngestDrift.Set(e.Monitor.Drift(), n)
				s.mIngestWindow.Set(float64(e.Monitor.IngestStats().WindowRows), n)
			}
		}
	}
	s.mJobsRunning.Set(float64(s.jobs.inFlight()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mGoroutines.Set(float64(runtime.NumGoroutine()))
	s.mHeapBytes.Set(float64(ms.HeapAlloc))
	s.mGCPauses.Set(float64(ms.PauseTotalNs) / 1e9)
	s.mGCCycles.Set(float64(ms.NumGC))
	s.refreshRuntimeMetrics()
	s.mTraceSpans.Set(float64(s.cfg.Spans.TotalSpans()))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		s.cfg.Logger.Error("metrics write failed", "error", err)
	}
}
