package server

import (
	"fmt"
	"net/http"
	"net/url"

	"hido/internal/obs"
	"hido/internal/stream"
)

// ingestResponse is the body of a successful POST /api/v1/ingest: the
// scoring half matches scoreResponse byte for byte, and the window
// fields report where continuous ingestion stands so a client can
// watch drift build and refits land without a separate metrics scrape.
type ingestResponse struct {
	Model   string `json:"model"`
	Records int    `json:"records"`
	Flagged int    `json:"flagged"`
	// WindowRows is the sliding reference window's current size.
	WindowRows int `json:"window_rows"`
	// SinceRefit counts records ingested since the last refit snapshot.
	SinceRefit int `json:"since_refit"`
	// Refits and RefitErrs count completed background refits.
	Refits    uint64 `json:"refits"`
	RefitErrs uint64 `json:"refit_errors"`
	// Refitting reports whether a background refit is in flight now.
	Refitting bool `json:"refitting"`
	// Drift is the divergence of the last refit's window from the grid
	// that refit replaced, each cut's rank counted exactly (the live
	// value is on /metrics as hidod_ingest_drift).
	Drift   float64               `json:"drift"`
	Results []stream.RecordResult `json:"results"`
}

// ensureIngest lazily switches the model into continuous-ingestion
// mode on its first ingest request. Losing the enable race to a
// concurrent request is fine — exactly one EnableIngest wins and both
// requests proceed on it.
func (s *Server) ensureIngest(name string, mon *stream.Monitor) error {
	if mon.IngestEnabled() {
		return nil
	}
	err := mon.EnableIngest(stream.IngestOptions{
		Window:     s.cfg.IngestWindow,
		RefitEvery: s.cfg.IngestRefitEvery,
		OnRefit:    func(res stream.RefitResult) { s.onIngestRefit(name, mon, res) },
	})
	if err != nil && mon.IngestEnabled() {
		return nil
	}
	return err
}

// onIngestRefit observes every background refit: counters and logs for
// both outcomes, and on success a registry re-stamp (so model age and
// GET /api/v1/models reflect the refreshed fit) plus best-effort
// persistence. Runs on the refit goroutine — everything here is cheap
// or already best-effort.
func (s *Server) onIngestRefit(name string, mon *stream.Monitor, res stream.RefitResult) {
	if res.Err != nil {
		s.mIngestRefits.Inc(name, "error")
		s.cfg.Logger.Warn("ingest refit failed", "model", name, "rows", res.Rows, "error", res.Err)
		return
	}
	s.mIngestRefits.Inc(name, "ok")
	s.cfg.Logger.Info("ingest refit", "model", name, "rows", res.Rows, "drift", res.Drift)
	// Re-stamp only if this monitor is still the installed one: a
	// concurrent PUT or fit may have hot-swapped the entry, and stamping
	// the replacement with this refit's provenance would lie.
	if e, ok := s.registry.Get(name); ok && e.Monitor == mon {
		_ = s.registry.Set(name, Entry{Monitor: mon, FittedAt: s.cfg.Now(), Source: "ingest-refit"})
		s.persist(name, s.cfg.Logger)
	}
}

// handleIngest scores one arriving batch and feeds it into the model's
// sliding reference window, kicking off a background refit when due.
// The request path is handleScore plus a buffer append: same strict
// decoding, same pooled arena, same phase accounting — a refit that
// starts mid-request runs on its own goroutine and never delays the
// response.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.cfg.IngestWindow <= 0 {
		writeError(w, http.StatusNotFound,
			"ingest disabled: start hidod with -ingest-window to enable continuous ingestion")
		return
	}
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
	if err := s.ensureIngest(name, e.Monitor); err != nil {
		writeError(w, http.StatusInternalServerError, "enabling ingest: "+err.Error())
		return
	}
	ar := arenaPool.Get().(*scoreArena)
	defer arenaPool.Put(ar)
	sp := obs.SpanFrom(r.Context())
	sp.SetAttr("model", name)
	t := s.cfg.Now()
	csp := sp.Child("decode")
	ds, err := decodeRecords(ar, r, q, e.Monitor.D(), true)
	csp.End()
	s.phIngestDecode.Observe(s.cfg.Now().Sub(t).Seconds())
	if err != nil {
		writeError(w, httpStatusFromErr(err), err.Error())
		return
	}
	sp.SetAttrInt("records", int64(ds.N()))
	t = s.cfg.Now()
	csp = sp.Child("ingest")
	alerts, err := e.Monitor.IngestBatch(r.Context(), ds, s.cfg.ScoreWorkers, ar.alerts)
	if alerts != nil {
		ar.alerts = alerts
	}
	csp.End()
	s.phIngestScore.Observe(s.cfg.Now().Sub(t).Seconds())
	if err != nil {
		writeError(w, httpStatusFromErr(err), "ingest aborted: "+err.Error())
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
	s.mIngestRecords.Add(float64(len(alerts)))
	st := e.Monitor.IngestStats()
	t = s.cfg.Now()
	csp = sp.Child("encode")
	ar.results = e.Monitor.ResultsAppend(ar.results, ds, alerts, boolParam(q, "explain"), !boolParam(q, "all"))
	writeJSONArena(w, ar, http.StatusOK, ingestResponse{
		Model:      name,
		Records:    len(alerts),
		Flagged:    flagged,
		WindowRows: st.WindowRows,
		SinceRefit: st.SinceRefit,
		Refits:     st.Refits,
		RefitErrs:  st.RefitErrs,
		Refitting:  st.Refitting,
		Drift:      st.Drift,
		Results:    ar.results,
	})
	csp.End()
	s.phIngestEncode.Observe(s.cfg.Now().Sub(t).Seconds())
}
