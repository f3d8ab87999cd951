package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/grid"
	"hido/internal/metrics"
	"hido/internal/obs"
	"hido/internal/stream"
)

// Storage caps: how many pushed grids and model replicas a node keeps
// resident. Oldest entries are evicted FIFO — a re-push rebuilds them,
// so eviction costs latency, never correctness.
const (
	maxStoredGrids  = 4
	maxStoredModels = 16
)

// Storage is a storage node: it owns one row shard and answers the
// binary RPCs a coordinator fans out — shard info, transient row
// gather, grid push, cube count/cover (the distributed-search seam),
// model replication, chunk scoring, and local top-n.
//
// It holds no public-API state: models arrive as replicas pushed by
// the coordinator, keyed by fingerprint, and grids are built on push
// from the coordinator's globally fitted cut points.
type Storage struct {
	ds     *dataset.Dataset
	fp     string
	logger *slog.Logger
	reg    *metrics.Registry
	spans  *obs.SpanRecorder

	mRPCs *metrics.Counter
	mLat  *metrics.Histogram

	mu         sync.RWMutex
	grids      map[string]*grid.Index
	gridPhi    map[string]int
	gridOrder  []string
	models     map[string]*stream.Monitor
	modelOrder []string

	started time.Time
}

// NewStorage builds a storage node over its row shard. The logger
// receives one structured line per RPC at debug level; nil discards.
func NewStorage(ds *dataset.Dataset, logger *slog.Logger) *Storage {
	if logger == nil {
		logger = obs.NopLogger()
	}
	reg := metrics.NewRegistry()
	return &Storage{
		ds:     ds,
		fp:     DataFingerprint(ds),
		logger: logger,
		reg:    reg,
		mRPCs: reg.Counter("hidod_cluster_storage_rpcs_total",
			"Storage-node RPCs served, by rpc and status code.", "rpc", "code"),
		mLat: reg.Histogram("hidod_cluster_storage_rpc_seconds",
			"Storage-node RPC latency in seconds, by rpc.", nil, "rpc"),
		grids:   map[string]*grid.Index{},
		gridPhi: map[string]int{},
		models:  map[string]*stream.Monitor{},
		started: time.Now(),
	}
}

// Fingerprint returns the shard data fingerprint.
func (st *Storage) Fingerprint() string { return st.fp }

// SetSpans enables distributed tracing on this node: RPCs arriving
// with trace headers continue the caller's trace as spans in r's
// ring, served back through the trace RPC and the node's own debug
// endpoints. nil (the default) disables tracing. Must be set before
// the node starts serving.
func (st *Storage) SetSpans(r *obs.SpanRecorder) { st.spans = r }

// DataFingerprint hashes a dataset's shape, attribute names and exact
// value bits. It is the shard-compatibility check: a coordinator
// records it at connect time and a grid push names it, so a shard
// restarted over different data is detected instead of silently
// miscounted.
func DataFingerprint(ds *dataset.Dataset) string {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(ds.N()))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(ds.D()))
	h.Write(buf[:])
	for _, name := range ds.Names {
		io.WriteString(h, name)
		h.Write([]byte{0})
	}
	for i := 0; i < ds.N(); i++ {
		for _, v := range ds.RowView(i) {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return "d-" + hex.EncodeToString(h.Sum(nil)[:16])
}

// Handler returns the node's HTTP handler: the /rpc/v1/ endpoints
// plus /healthz and /metrics.
func (st *Storage) Handler() http.Handler {
	mux := http.NewServeMux()
	rpc := func(name string, want msgType, h func(payload []byte) ([]byte, error)) {
		mux.HandleFunc("POST /rpc/v1/"+name, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			code, traceID := st.serveRPC(w, r, name, want, h)
			st.mRPCs.Inc(name, fmt.Sprint(code))
			st.mLat.Observe(time.Since(start).Seconds(), name)
			if traceID == "" {
				st.logger.Debug("rpc", "rpc", name, "code", code,
					"duration_ms", float64(time.Since(start).Microseconds())/1000,
					"remote", r.RemoteAddr)
			} else {
				st.logger.Debug("rpc", "rpc", name, "code", code, "trace", traceID,
					"duration_ms", float64(time.Since(start).Microseconds())/1000,
					"remote", r.RemoteAddr)
			}
		})
	}
	rpc("info", msgInfoReq, st.rpcInfo)
	rpc("rows", msgRowsReq, st.rpcRows)
	rpc("grid", msgGridReq, st.rpcGrid)
	rpc("count", msgCountReq, st.rpcCount)
	rpc("cover", msgCoverReq, st.rpcCover)
	rpc("model", msgModelPush, st.rpcModel)
	rpc("score", msgScoreReq, st.rpcScore)
	rpc("topn", msgTopNReq, st.rpcTopN)
	rpc("trace", msgTraceReq, st.rpcTrace)
	// Local debug introspection, mirroring the select node's endpoints:
	// an operator can ask any storage node directly what it holds.
	mux.HandleFunc("GET /api/v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		writeStorageJSON(w, http.StatusOK, map[string]any{
			"enabled": st.spans.Enabled(), "node": st.spans.Node(),
			"traces": st.spans.Recent(0),
		})
	})
	mux.HandleFunc("GET /api/v1/debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans := st.spans.Trace(id)
		if len(spans) == 0 {
			writeStorageJSON(w, http.StatusNotFound, map[string]string{"error": "trace not held on this node"})
			return
		}
		writeStorageJSON(w, http.StatusOK, map[string]any{
			"trace": id, "spans": len(spans), "tree": obs.BuildSpanTree(spans),
		})
	})
	mux.HandleFunc("GET /api/v1/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		writeStorageJSON(w, http.StatusOK, map[string]any{
			"enabled": st.spans.Enabled(), "node": st.spans.Node(),
			"requests": st.spans.Live(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		b := obs.Build()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","role":"storage","rows":%d,"dims":%d,"fingerprint":%q,"version":%q,"uptime_seconds":%g}`+"\n",
			st.ds.N(), st.ds.D(), st.fp, b.Version, time.Since(st.started).Seconds())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := st.reg.WriteText(w); err != nil {
			st.logger.Error("metrics write failed", "error", err)
		}
	})
	return mux
}

// rpcError carries an HTTP status with a message; handlers use it to
// distinguish client faults (bad frame, unknown grid) from the 412
// model-miss signal the coordinator reacts to.
type rpcError struct {
	code int
	msg  string
}

func (e *rpcError) Error() string { return e.msg }

func rpcErrorf(code int, format string, args ...any) error {
	return &rpcError{code: code, msg: fmt.Sprintf(format, args...)}
}

// serveRPC reads one frame and answers it through dispatch. Trace
// headers continue the caller's trace as a span on this node. Returns
// the status code for metrics and the recorded trace ID (if any) for
// the debug log.
func (st *Storage) serveRPC(w http.ResponseWriter, r *http.Request, name string, want msgType, h func([]byte) ([]byte, error)) (int, string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFramePayload+64))
	if err != nil {
		return writeRPCError(w, http.StatusRequestEntityTooLarge, err.Error()), ""
	}
	// Continue the select node's trace; nil st.spans, absent headers or
	// IDs over obs.MaxIDLen yield a nil span and every span call is a
	// no-op.
	sp := st.spans.Continue("storage:"+name, obs.SpanContext{
		TraceID: r.Header.Get(traceHeader),
		SpanID:  r.Header.Get(parentHeader),
	})
	traceID := sp.TraceID()
	code := dispatch(w, body, want, h)
	sp.SetAttrInt("code", int64(code))
	sp.End()
	return code, traceID
}

// dispatch validates one frame and writes either the handler's
// response frame or a plain-text error, returning the status code.
func dispatch(w http.ResponseWriter, body []byte, want msgType, h func([]byte) ([]byte, error)) int {
	t, payload, err := decodeFrame(body)
	if err != nil {
		return writeRPCError(w, http.StatusBadRequest, err.Error())
	}
	if t != want {
		return writeRPCError(w, http.StatusBadRequest,
			fmt.Sprintf("cluster: message type %d on a type-%d endpoint", t, want))
	}
	resp, err := h(payload)
	if err != nil {
		code := http.StatusInternalServerError
		var re *rpcError
		if errors.As(err, &re) {
			code = re.code
		}
		return writeRPCError(w, code, err.Error())
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(resp)
	return http.StatusOK
}

func writeStorageJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeRPCError(w http.ResponseWriter, code int, msg string) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, msg)
	return code
}

func (st *Storage) rpcInfo(payload []byte) ([]byte, error) {
	resp := infoResp{N: st.ds.N(), Names: st.ds.Names, Fingerprint: st.fp}
	return resp.encode(), nil
}

func (st *Storage) rpcRows(payload []byte) ([]byte, error) {
	n, d := st.ds.N(), st.ds.D()
	resp := rowsResp{N: n, D: d, Values: make([]float64, 0, n*d)}
	for i := 0; i < n; i++ {
		resp.Values = append(resp.Values, st.ds.RowView(i)...)
	}
	return resp.encode(), nil
}

func (st *Storage) rpcGrid(payload []byte) ([]byte, error) {
	var req gridReq
	if err := req.decode(payload); err != nil {
		return nil, rpcErrorf(http.StatusBadRequest, "%v", err)
	}
	if req.DataFP != st.fp {
		return nil, rpcErrorf(http.StatusConflict,
			"cluster: grid push expects shard %s, this shard is %s", req.DataFP, st.fp)
	}
	if len(req.Cuts) != st.ds.D() {
		return nil, rpcErrorf(http.StatusConflict,
			"cluster: grid push has %d dims, shard has %d", len(req.Cuts), st.ds.D())
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.grids[req.GridID]; !ok {
		// Index this shard's rows under the coordinator's global cuts:
		// a record's range depends only on (cuts, value), so the shards'
		// bitmaps concatenate to exactly what a single-node fit over all
		// rows would build — the invariant the whole distributed search
		// rests on.
		g := discretize.Apply(st.ds, req.Phi, req.Cuts)
		st.grids[req.GridID] = grid.Build(g)
		st.gridPhi[req.GridID] = req.Phi
		st.gridOrder = append(st.gridOrder, req.GridID)
		if len(st.gridOrder) > maxStoredGrids {
			old := st.gridOrder[0]
			st.gridOrder = st.gridOrder[1:]
			delete(st.grids, old)
			delete(st.gridPhi, old)
		}
		st.logger.Info("grid built", "grid", req.GridID, "phi", req.Phi, "rows", st.ds.N())
	}
	return emptyFrame(msgGridAck), nil
}

// lookupGrid fetches a pushed grid; unknown IDs are 409 so the
// coordinator re-pushes (e.g. after this node restarted or evicted).
func (st *Storage) lookupGrid(id string) (*grid.Index, int, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ix, ok := st.grids[id]
	if !ok {
		return nil, 0, rpcErrorf(http.StatusConflict, "cluster: unknown grid %q", id)
	}
	return ix, st.gridPhi[id], nil
}

// gridCubes decodes a count or cover request, resolves its grid, and
// checks the cubes' dimensionality and cells.
func (st *Storage) gridCubes(payload []byte, rpc string) (*grid.Index, []cube.Cube, error) {
	var req countReq
	if err := req.decode(payload); err != nil {
		return nil, nil, rpcErrorf(http.StatusBadRequest, "%v", err)
	}
	ix, phi, err := st.lookupGrid(req.GridID)
	if err != nil {
		return nil, nil, err
	}
	if req.D != st.ds.D() {
		return nil, nil, rpcErrorf(http.StatusConflict,
			"cluster: %s over %d dims, shard has %d", rpc, req.D, st.ds.D())
	}
	for i, c := range req.Cubes {
		if !c.Valid(phi) {
			return nil, nil, rpcErrorf(http.StatusBadRequest,
				"cluster: %s cube %d has cells outside [0,%d]", rpc, i, phi)
		}
	}
	return ix, req.Cubes, nil
}

func (st *Storage) rpcCount(payload []byte) ([]byte, error) {
	ix, cs, err := st.gridCubes(payload, "count")
	if err != nil {
		return nil, err
	}
	resp := countResp{Counts: make([]int, len(cs))}
	for i, c := range cs {
		resp.Counts[i] = ix.Count(c)
	}
	return resp.encode(), nil
}

func (st *Storage) rpcCover(payload []byte) ([]byte, error) {
	ix, cs, err := st.gridCubes(payload, "cover")
	if err != nil {
		return nil, err
	}
	resp := coverResp{Covers: make([][]int, len(cs))}
	for i, c := range cs {
		resp.Covers[i] = ix.Cover(c).Indices()
	}
	return resp.encode(), nil
}

func (st *Storage) rpcModel(payload []byte) ([]byte, error) {
	var req modelPush
	if err := req.decode(payload); err != nil {
		return nil, rpcErrorf(http.StatusBadRequest, "%v", err)
	}
	if got := ModelFingerprint(req.JSON); got != req.FP {
		return nil, rpcErrorf(http.StatusBadRequest,
			"cluster: model bytes hash to %s, push names %s", got, req.FP)
	}
	mon, err := stream.Load(bytes.NewReader(req.JSON))
	if err != nil {
		return nil, rpcErrorf(http.StatusBadRequest, "%v", err)
	}
	if mon.D() != st.ds.D() {
		return nil, rpcErrorf(http.StatusConflict,
			"cluster: model has %d dims, shard has %d", mon.D(), st.ds.D())
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.models[req.FP]; !ok {
		st.models[req.FP] = mon
		st.modelOrder = append(st.modelOrder, req.FP)
		if len(st.modelOrder) > maxStoredModels {
			old := st.modelOrder[0]
			st.modelOrder = st.modelOrder[1:]
			delete(st.models, old)
		}
		st.logger.Info("model replica installed", "fingerprint", req.FP,
			"projections", len(mon.Projections()))
	}
	return emptyFrame(msgModelAck), nil
}

// lookupModel fetches a model replica; a miss is 412, the signal the
// coordinator answers with a push-and-retry.
func (st *Storage) lookupModel(fp string) (*stream.Monitor, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	mon, ok := st.models[fp]
	if !ok {
		return nil, rpcErrorf(http.StatusPreconditionFailed, "cluster: model %q not replicated", fp)
	}
	return mon, nil
}

func (st *Storage) rpcScore(payload []byte) ([]byte, error) {
	var req scoreReq
	if err := req.decode(payload); err != nil {
		return nil, rpcErrorf(http.StatusBadRequest, "%v", err)
	}
	mon, err := st.lookupModel(req.ModelFP)
	if err != nil {
		return nil, err
	}
	if req.D != mon.D() {
		return nil, rpcErrorf(http.StatusConflict,
			"cluster: score rows have %d dims, model has %d", req.D, mon.D())
	}
	resp := scoreResp{Alerts: make([]wireAlert, req.N)}
	sc := mon.NewScorer()
	for i := 0; i < req.N; i++ {
		a := sc.Score(req.Values[i*req.D : (i+1)*req.D])
		resp.Alerts[i] = wireAlert{Score: a.Score, Matches: a.Matches}
	}
	return resp.encode(), nil
}

func (st *Storage) rpcTopN(payload []byte) ([]byte, error) {
	var req topNReq
	if err := req.decode(payload); err != nil {
		return nil, rpcErrorf(http.StatusBadRequest, "%v", err)
	}
	if req.N < 1 {
		return nil, rpcErrorf(http.StatusBadRequest, "cluster: top-n with n=%d", req.N)
	}
	mon, err := st.lookupModel(req.ModelFP)
	if err != nil {
		return nil, err
	}
	if mon.D() != st.ds.D() {
		return nil, rpcErrorf(http.StatusConflict,
			"cluster: model has %d dims, shard has %d", mon.D(), st.ds.D())
	}
	n := st.ds.N()
	items := make([]topNItem, n)
	sc := mon.NewScorer()
	for i := 0; i < n; i++ {
		a := sc.Score(st.ds.RowView(i))
		items[i] = topNItem{Index: i, Score: a.Score, Flagged: a.Flagged()}
	}
	// Most outlying first: ascending score (sparsity coefficients are
	// negative for outliers), row index as the stable tie-break — the
	// same comparator the coordinator merges with and the single-node
	// top-n sorts with, which is what makes the merge exact.
	sort.Slice(items, func(a, b int) bool {
		if items[a].Score != items[b].Score {
			return items[a].Score < items[b].Score
		}
		return items[a].Index < items[b].Index
	})
	if req.N < len(items) {
		items = items[:req.N]
	}
	resp := topNResp{Rows: n, Items: items}
	return resp.encode(), nil
}

// rpcTrace answers with this node's retained spans for one trace —
// the scatter half of cross-node span-tree assembly. A node without
// tracing enabled (or whose ring evicted the trace) answers an empty
// list, never an error: observability gaps degrade the tree, not the
// request.
func (st *Storage) rpcTrace(payload []byte) ([]byte, error) {
	var req traceReq
	if err := req.decode(payload); err != nil {
		return nil, rpcErrorf(http.StatusBadRequest, "%v", err)
	}
	resp := traceResp{Spans: st.spans.Trace(req.TraceID)}
	return resp.encode(), nil
}

// ModelFingerprint names a model by its exact serialized bytes.
func ModelFingerprint(modelJSON []byte) string {
	h := sha256.Sum256(modelJSON)
	return "m-" + hex.EncodeToString(h[:16])
}
