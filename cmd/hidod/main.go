// Command hidod serves fitted outlier models over HTTP: the online
// half of the paper's fraud/intrusion deployments, with hidomon as the
// offline half (both speak the same model JSON and alert JSON).
//
// Start with one or more pre-fitted models:
//
//	hidod -addr :8080 -load default=model.json -load fraud=fraud.json
//
// or start empty and fit over the API:
//
//	hidod -addr :8080
//	curl -X POST --data-binary @ref.csv -H 'Content-Type: text/csv' \
//	    'localhost:8080/api/v1/fit?model=default&phi=5'
//
// Endpoints: POST /api/v1/score, POST /api/v1/ingest (with
// -ingest-window), POST /api/v1/fit, GET /api/v1/jobs/{id},
// GET|PUT|DELETE /api/v1/models/{name}, GET /api/v1/models, /healthz,
// /readyz, /metrics (Prometheus text format).
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops,
// in-flight requests and background fit jobs drain (bounded by
// -drain), then the process exits 0.
//
// # Cluster mode
//
// hidod also runs as a sharded cluster (see internal/cluster): each
// storage node owns a disjoint slice of the reference rows,
//
//	hidod -role storage -addr :9001 -data shard1.csv -data-header
//
// and one select node fans score/top-n/fit requests out to them and
// merges the answers, serving the exact same public API:
//
//	hidod -role select -addr :8080 \
//	    -storage-nodes http://host1:9001,http://host2:9001
//
// The select node adds POST /api/v1/cluster/fit (distributed fit over
// the union of the shards — bit-identical to a single-node fit on the
// concatenated data; a route of internal/server, with /api/v1/fit's
// parameters) and GET /api/v1/cluster/info.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hido/internal/cluster"
	"hido/internal/dataset"
	"hido/internal/obs"
	"hido/internal/server"
	"hido/internal/store"
	"hido/internal/stream"
)

// modelFlags collects repeated -load name=path flags.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, s := range *m {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

// clusterOpts carries the role flags from main to the role runners.
// The zero value is a plain single-node hidod.
type clusterOpts struct {
	role       string
	dataPath   string
	dataHeader bool
	labelCol   int
	peers      []string
	quorum     int
	rpcTimeout time.Duration
	rpcRetries int
}

// validateRoleFlags rejects flag combinations that contradict the
// chosen role, with errors that say what to change. Roles split
// responsibilities: storage nodes own rows and never load models
// (models replicate from the select node); select nodes own models
// and never load rows (rows live on the shards).
func validateRoleFlags(o clusterOpts, loads int, stateDir string, ingestWindow, refitEvery int) error {
	if ingestWindow < 0 {
		return fmt.Errorf("-ingest-window %d must be positive (or 0 to disable)", ingestWindow)
	}
	if refitEvery != 0 && ingestWindow == 0 {
		return fmt.Errorf("-refit-every is only meaningful with -ingest-window")
	}
	if refitEvery < 0 {
		return fmt.Errorf("-refit-every %d must be positive (or 0 for the default: the ingest window)", refitEvery)
	}
	switch o.role {
	case "", "single":
		if len(o.peers) > 0 {
			return fmt.Errorf("-storage-nodes is only meaningful with -role select (got role %q)", o.role)
		}
	case "storage":
		if o.dataPath == "" {
			return fmt.Errorf("-role storage needs -data: a storage node exists to own a row shard")
		}
		if loads > 0 {
			return fmt.Errorf("-role storage cannot take -load: models replicate from the select node on demand")
		}
		if len(o.peers) > 0 {
			return fmt.Errorf("-role storage cannot take -storage-nodes: only the select node fans out")
		}
		if stateDir != "" {
			return fmt.Errorf("-role storage cannot take -state-dir: shards hold rows, not durable models")
		}
		if ingestWindow > 0 {
			return fmt.Errorf("-role storage cannot take -ingest-window: shards own rows, models ingest on the serving node")
		}
	case "select":
		if o.dataPath != "" {
			return fmt.Errorf("-role select cannot take -data: reference rows live on the storage nodes")
		}
		if len(o.peers) == 0 {
			return fmt.Errorf("-role select needs -storage-nodes (comma-separated base URLs)")
		}
		if o.quorum < 1 || o.quorum > len(o.peers) {
			return fmt.Errorf("-quorum %d outside [1,%d]", o.quorum, len(o.peers))
		}
		if ingestWindow > 0 {
			return fmt.Errorf("-role select cannot take -ingest-window: refitting from a locally buffered window would ignore the shards' rows")
		}
	default:
		return fmt.Errorf("unknown -role %q (want single, storage or select)", o.role)
	}
	return nil
}

// parsePeers splits the -storage-nodes list and strips trailing
// slashes so URL joins are uniform.
func parsePeers(v string) []string {
	var peers []string
	for _, p := range strings.Split(v, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func main() {
	var models modelFlags
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		inflight  = flag.Int("max-inflight", 64, "max concurrently served score/fit requests (excess get 429)")
		fitJobs   = flag.Int("max-fit-jobs", 2, "max concurrently running background fits")
		maxBody   = flag.Int64("max-body", 32<<20, "request body limit in bytes")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline for score/fit")
		workers   = flag.Int("workers", 0, "scoring workers per request (0 = GOMAXPROCS)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
		stateDir  = flag.String("state-dir", "", "durable model directory: every fit/PUT/DELETE is persisted there and the model set is recovered on startup")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "json", "log format: json or text")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); empty disables")
		pprofMtx  = flag.Int("pprof-mutex", 0, "mutex profile fraction (runtime.SetMutexProfileFraction): 1 samples every contention event, 0 disables")
		pprofBlk  = flag.Int("pprof-block", 0, "block profile rate in nanoseconds (runtime.SetBlockProfileRate): 1 samples every blocking event, 0 disables")
		version   = flag.Bool("version", false, "print version and exit")

		traceSample = flag.Float64("trace-sample", 0, "fraction of requests to record as distributed traces, in [0,1]; 0 disables tracing entirely")
		traceRing   = flag.Int("trace-ring", 4096, "completed spans retained for the debug endpoints (oldest evicted)")
		slowReq     = flag.Duration("slow-request", 0, "log requests slower than this threshold at warn level with their trace ID; 0 disables")

		ingestWindow = flag.Int("ingest-window", 0, "enable POST /api/v1/ingest: buffer this many records per model in a sliding reference window and refit from it in the background (0 disables)")
		refitEvery   = flag.Int("refit-every", 0, "background refit cadence in ingested records (default: the ingest window)")

		role       = flag.String("role", "single", "node role: single, storage (own a row shard, answer cluster RPCs) or select (fan out to -storage-nodes)")
		dataPath   = flag.String("data", "", "reference data CSV: the row shard for -role storage, or the local top-n reference set for -role single")
		dataHeader = flag.Bool("data-header", false, "first row of -data carries column names")
		labelCol   = flag.Int("label", -1, "column of -data holding class labels instead of a feature (-1 = none)")
		storage    = flag.String("storage-nodes", "", "comma-separated storage node base URLs (select role only)")
		quorum     = flag.Int("quorum", 1, "minimum storage shards that must answer a top-n fan-out; fewer fails the request, more-but-not-all marks it partial")
		rpcTimeout = flag.Duration("rpc-timeout", 5*time.Second, "per-attempt deadline for one storage RPC")
		rpcRetries = flag.Int("rpc-retries", 2, "retries per failed storage RPC (transport errors and 5xx only)")
	)
	flag.Var(&models, "load", "preload a model as name=path (repeatable)")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("hidod"))
		return
	}

	copts := clusterOpts{
		role: *role, dataPath: *dataPath, dataHeader: *dataHeader, labelCol: *labelCol,
		peers: parsePeers(*storage), quorum: *quorum,
		rpcTimeout: *rpcTimeout, rpcRetries: *rpcRetries,
	}
	if err := validateRoleFlags(copts, len(models), *stateDir, *ingestWindow, *refitEvery); err != nil {
		fmt.Fprintf(os.Stderr, "hidod: %v\n", err)
		os.Exit(2)
	}
	if *traceSample < 0 || *traceSample > 1 {
		fmt.Fprintf(os.Stderr, "hidod: -trace-sample %v outside [0,1]\n", *traceSample)
		os.Exit(2)
	}

	// Contention profiling is opt-in: both profilers tax every
	// lock/block event, so they stay off unless asked for.
	if *pprofMtx > 0 {
		runtime.SetMutexProfileFraction(*pprofMtx)
	}
	if *pprofBlk > 0 {
		runtime.SetBlockProfileRate(*pprofBlk)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hidod: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat != "text")

	// One span recorder per process, labeled with role+address so a
	// cross-node trace says which node ran each span. nil when tracing
	// is off — the recorder's nil path is free.
	var spans *obs.SpanRecorder
	if *traceSample > 0 {
		spans = obs.NewSpanRecorder(obs.SpanRecorderConfig{
			Node:   copts.role + " " + *addr,
			Ring:   *traceRing,
			Sample: *traceSample,
		})
	}

	if copts.role == "storage" {
		if err := runStorage(*addr, copts, spans, *drain, logger); err != nil {
			fmt.Fprintf(os.Stderr, "hidod: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *pprofAddr, *stateDir, models, copts, server.Config{
		MaxInFlight:      *inflight,
		MaxFitJobs:       *fitJobs,
		MaxBodyBytes:     *maxBody,
		RequestTimeout:   *timeout,
		ScoreWorkers:     *workers,
		Logger:           logger,
		Spans:            spans,
		SlowRequest:      *slowReq,
		IngestWindow:     *ingestWindow,
		IngestRefitEvery: *refitEvery,
	}, *drain, logger); err != nil {
		fmt.Fprintf(os.Stderr, "hidod: %v\n", err)
		os.Exit(1)
	}
}

// loadModels installs each -load model into the registry. With a
// state store attached the -load models are persisted too: they were
// given explicitly on this boot's command line, so they override (and
// durably replace) whatever recovery found under the same names.
func loadModels(s *server.Server, models modelFlags, st *store.Store) error {
	for _, m := range models {
		f, err := os.Open(m.path)
		if err != nil {
			return err
		}
		mon, err := stream.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", m.path, err)
		}
		now := time.Now()
		if err := s.Registry().Set(m.name, server.Entry{
			Monitor: mon, FittedAt: now, Source: "file:" + m.path,
		}); err != nil {
			return err
		}
		if st != nil {
			if err := st.Save(m.name, mon, now, "file:"+m.path); err != nil {
				return fmt.Errorf("persisting %s: %w", m.name, err)
			}
		}
	}
	return nil
}

// openStateDir opens the durable model store and reports what
// recovery found. Quarantined files are logged, not fatal: one
// corrupt model must not keep the whole service down.
func openStateDir(dir string, logger *slog.Logger) (*store.Store, store.Report, error) {
	st, rep, err := store.Open(dir)
	if err != nil {
		return nil, store.Report{}, fmt.Errorf("opening state dir %s: %w", dir, err)
	}
	for file, why := range rep.Quarantined {
		logger.Warn("quarantined corrupt model file", "dir", dir, "file", file, "reason", why)
	}
	if rep.Adopted > 0 {
		logger.Info("adopted orphaned model files", "dir", dir, "count", rep.Adopted)
	}
	return st, rep, nil
}

// loadData reads a reference CSV for -data: the shard a storage node
// serves, or the local top-n reference set on a single node.
func loadData(o clusterOpts) (*dataset.Dataset, error) {
	ds, err := dataset.ReadCSVFile(o.dataPath, dataset.ReadCSVOptions{
		Header: o.dataHeader, LabelColumn: o.labelCol,
	})
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", o.dataPath, err)
	}
	return ds, nil
}

// runStorage serves one row shard's cluster RPCs until SIGINT/SIGTERM,
// then drains: http.Server.Shutdown waits for in-flight count/score
// RPCs before the process exits, so a rolling restart never truncates
// a fan-out mid-merge.
func runStorage(addr string, o clusterOpts, spans *obs.SpanRecorder, drain time.Duration, logger *slog.Logger) error {
	b := obs.Build()
	logger.Info("starting", "binary", "hidod", "role", "storage",
		"version", b.Version, "go", b.GoVersion, "revision", b.Revision)
	ds, err := loadData(o)
	if err != nil {
		return err
	}
	st := cluster.NewStorage(ds, logger)
	st.SetSpans(spans)
	logger.Info("shard loaded", "data", o.dataPath, "rows", ds.N(), "dims", ds.D(),
		"fingerprint", st.Fingerprint())

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           st.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr, "role", "storage")
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining rpcs: %w", err)
	}
	logger.Info("shutdown complete")
	return nil
}

func run(addr, pprofAddr, stateDir string, models modelFlags, copts clusterOpts, cfg server.Config, drain time.Duration, logger *slog.Logger) error {
	b := obs.Build()
	logger.Info("starting", "binary", "hidod",
		"version", b.Version, "go", b.GoVersion, "revision", b.Revision)
	var st *store.Store
	var rep store.Report
	if stateDir != "" {
		var err error
		st, rep, err = openStateDir(stateDir, logger)
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	s := server.New(cfg)
	// Recovery first, then -load: explicit command-line models override
	// recovered ones of the same name.
	for _, m := range rep.Models {
		if err := s.Registry().Set(m.Name, server.Entry{
			Monitor: m.Monitor, FittedAt: m.FittedAt, Source: m.Source,
		}); err != nil {
			return fmt.Errorf("installing recovered model %s: %w", m.Name, err)
		}
	}
	if st != nil {
		logger.Info("recovered models", "dir", stateDir, "models", st.Names())
	}
	if err := loadModels(s, models, st); err != nil {
		return err
	}

	handler := s.Handler()
	var co *cluster.Coordinator
	switch copts.role {
	case "select":
		var err error
		co, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
			Peers:   copts.peers,
			Quorum:  copts.quorum,
			Client:  cluster.ClientConfig{Timeout: copts.rpcTimeout, Retries: copts.rpcRetries},
			Logger:  logger,
			Metrics: cluster.NewMetrics(s.Metrics()),
		})
		if err != nil {
			return err
		}
		// The stock server fronts the cluster through its seams, so the
		// public API bytes cannot drift from single-node, and the
		// distributed fit runs behind the same middleware as every
		// other route.
		s.SetBatchScorer(co)
		s.SetTopNer(co)
		s.SetTraceFetcher(co)
		s.SetFitter(co)
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("GET /api/v1/cluster/info", handleClusterInfo(co))
		handler = mux
	default:
		if copts.dataPath != "" {
			ds, err := loadData(copts)
			if err != nil {
				return err
			}
			logger.Info("reference data loaded", "data", copts.dataPath, "rows", ds.N(), "dims", ds.D())
			s.SetTopNer(server.NewDatasetTopN(ds, cfg.ScoreWorkers))
		}
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if pprofAddr != "" {
		stopPprof, err := servePprof(pprofAddr, logger)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr, "models", s.Registry().Names())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests,
	// then wait for background fit jobs, all within the drain budget.
	logger.Info("shutting down", "drain", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining requests: %w", err)
	}
	if err := s.DrainJobs(shutdownCtx); err != nil {
		return fmt.Errorf("draining fit jobs: %w", err)
	}
	if co != nil {
		if err := co.Drain(shutdownCtx); err != nil {
			return fmt.Errorf("draining storage rpcs: %w", err)
		}
	}
	logger.Info("shutdown complete")
	return nil
}

// handleClusterInfo reports the connected topology: peers, their row
// offsets in the global order, and the quorum in force.
func handleClusterInfo(co *cluster.Coordinator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info, err := co.Info(r.Context())
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(info)
	}
}

// servePprof serves net/http/pprof on its own listener, separate from
// the API server so profiling is never exposed on the service port.
// Only loopback hosts are accepted: profiles leak memory contents, so
// the listener must not be reachable off-box.
func servePprof(addr string, logger *slog.Logger) (stop func(), err error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("pprof address %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
		return nil, fmt.Errorf("pprof address %q is not a loopback address", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		logger.Info("pprof listening", "addr", ln.Addr().String())
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logger.Error("pprof server failed", "error", err)
		}
	}()
	return func() { _ = srv.Close() }, nil
}
