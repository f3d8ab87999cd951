package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"sync"

	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/fanout"
	"hido/internal/obs"
	"hido/internal/server"
	"hido/internal/stream"
)

// CoordinatorConfig tunes a select node's fan-out.
type CoordinatorConfig struct {
	// Peers are the storage node base URLs. Their order is load-bearing:
	// it defines the global row order (shard 0's rows come first), the
	// chunk assignment for scatter-gather scoring, and the deterministic
	// merge order — every select node configured with the same peer list
	// gives byte-identical answers.
	Peers []string
	// Quorum is the minimum number of shards that must answer a top-n
	// fan-out; with at least Quorum but not all shards answering, the
	// response is served with partial=true. Default 1. Fit and cover
	// always require every shard — a distributed fit is exact or it
	// fails.
	Quorum int
	// Client tunes per-peer timeouts, retries and backoff.
	Client ClientConfig
	// Logger receives structured fan-out logs; nil discards.
	Logger *slog.Logger
	// Metrics, when set, receives the hidod_cluster_* series.
	Metrics *Metrics
}

// shard is one connected storage node's identity within the cluster.
type shard struct {
	peer   string
	n      int
	offset int // position of the shard's row 0 in the global order
	fp     string
}

// Coordinator is the select node's brain: it fans score, top-n and
// count requests out to the storage peers and merges the partial
// answers deterministically. It implements server.BatchScorer and
// server.TopNer, so a stock internal/server fronts it unchanged — the
// public API stays byte-identical to a single-node hidod.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *Client
	logger *slog.Logger
	m      *Metrics

	mu     sync.Mutex
	shards []shard // nil until the first successful connect
	totalN int
	names  []string
	wires  map[string]wireEntry
	cuts   cutsEntry // the last fit's global cuts
}

// cutsEntry holds global cuts with the key they were placed under:
// the resolution and the shard fingerprints in peer order.
type cutsEntry struct {
	key  string
	cuts [][]float64
}

// wireEntry is a model marshalled for shard replication, cached per
// registry name and invalidated when the monitor pointer changes (a
// hot swap installs a new monitor).
type wireEntry struct {
	mon *stream.Monitor
	fp  string
	js  []byte
}

// NewCoordinator builds a coordinator over a fixed peer list.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: a coordinator needs at least one storage peer")
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = 1
	}
	if cfg.Quorum < 1 || cfg.Quorum > len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: quorum %d outside [1,%d]", cfg.Quorum, len(cfg.Peers))
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	ccfg := cfg.Client
	ccfg.Logger = cfg.Logger
	ccfg.Metrics = cfg.Metrics
	if cfg.Metrics != nil {
		cfg.Metrics.Peers.Set(float64(len(cfg.Peers)))
	}
	return &Coordinator{
		cfg:    cfg,
		client: NewClient(ccfg),
		logger: cfg.Logger,
		m:      cfg.Metrics,
		wires:  map[string]wireEntry{},
	}, nil
}

// Peers returns the configured peer list (shared; do not mutate).
func (co *Coordinator) Peers() []string { return co.cfg.Peers }

// Drain blocks until in-flight storage RPCs complete or ctx expires —
// the select half of graceful shutdown, called after the public HTTP
// listener has drained.
func (co *Coordinator) Drain(ctx context.Context) error { return co.client.Drain(ctx) }

// eachPeer runs f concurrently for every peer, one worker each, and
// returns the per-peer errors (nil entries for successes).
func (co *Coordinator) eachPeer(f func(i int, peer string) error) []error {
	peers := co.cfg.Peers
	errs := make([]error, len(peers))
	fanout.For(len(peers), len(peers), func(i int) { errs[i] = f(i, peers[i]) })
	return errs
}

// Connect fans an info RPC out to every peer, validates that the
// shards agree on dimensionality and attribute names, and fixes the
// global row order (prefix sums of shard sizes in peer order). All
// peers must answer — a cluster whose membership is unknown cannot
// place offsets. Idempotent; later calls return the cached topology.
func (co *Coordinator) Connect(ctx context.Context) error {
	co.mu.Lock()
	if co.shards != nil {
		co.mu.Unlock()
		return nil
	}
	co.mu.Unlock()

	infos := make([]infoResp, len(co.cfg.Peers))
	namesByPeer := make([][]string, len(co.cfg.Peers))
	errs := co.eachPeer(func(i int, peer string) error {
		payload, err := co.client.Call(ctx, peer, "info", emptyFrame(msgInfoReq), msgInfoResp)
		if err != nil {
			return err
		}
		if err := infos[i].decode(payload); err != nil {
			return err
		}
		namesByPeer[i] = infos[i].Names
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: connect to %s: %w", co.cfg.Peers[i], err)
		}
	}
	names := infos[0].Names
	for i := 1; i < len(infos); i++ {
		if len(infos[i].Names) != len(names) {
			return fmt.Errorf("cluster: shard %s has %d dims, shard %s has %d",
				co.cfg.Peers[i], len(infos[i].Names), co.cfg.Peers[0], len(names))
		}
		for j := range names {
			if infos[i].Names[j] != names[j] {
				return fmt.Errorf("cluster: shard %s attribute %d is %q, shard %s has %q",
					co.cfg.Peers[i], j, infos[i].Names[j], co.cfg.Peers[0], names[j])
			}
		}
	}
	shards := make([]shard, len(infos))
	total := 0
	for i, info := range infos {
		shards[i] = shard{peer: co.cfg.Peers[i], n: info.N, offset: total, fp: info.Fingerprint}
		total += info.N
	}
	co.mu.Lock()
	co.shards = shards
	co.totalN = total
	co.names = names
	co.mu.Unlock()
	co.logger.Info("cluster connected", "peers", len(shards), "rows", total, "dims", len(names))
	return nil
}

// forget drops the cached topology so the next use reconnects — called
// when a shard's data fingerprint no longer matches what Connect saw.
func (co *Coordinator) forget() {
	co.mu.Lock()
	co.shards = nil
	co.mu.Unlock()
}

// topology returns the connected shard list (connecting on first use).
func (co *Coordinator) topology(ctx context.Context) ([]shard, int, []string, error) {
	if err := co.Connect(ctx); err != nil {
		return nil, 0, nil, err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.shards, co.totalN, co.names, nil
}

// Info describes the connected cluster for introspection
// (GET /api/v1/cluster/info on the select node).
type Info struct {
	Peers  []PeerInfo `json:"peers"`
	Rows   int        `json:"rows"`
	Dims   int        `json:"dims"`
	Quorum int        `json:"quorum"`
}

// PeerInfo is one storage node's slice of the global row order.
type PeerInfo struct {
	URL         string `json:"url"`
	Rows        int    `json:"rows"`
	Offset      int    `json:"offset"`
	Fingerprint string `json:"fingerprint"`
}

// Info connects (if needed) and reports the cluster topology.
func (co *Coordinator) Info(ctx context.Context) (Info, error) {
	shards, total, names, err := co.topology(ctx)
	if err != nil {
		return Info{}, err
	}
	out := Info{Rows: total, Dims: len(names), Quorum: co.cfg.Quorum}
	for _, sh := range shards {
		out.Peers = append(out.Peers, PeerInfo{URL: sh.peer, Rows: sh.n, Offset: sh.offset, Fingerprint: sh.fp})
	}
	return out, nil
}

// wireModel marshals (and caches) a monitor for shard replication.
func (co *Coordinator) wireModel(name string, mon *stream.Monitor) (wireEntry, error) {
	co.mu.Lock()
	if e, ok := co.wires[name]; ok && e.mon == mon {
		co.mu.Unlock()
		return e, nil
	}
	co.mu.Unlock()
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		return wireEntry{}, err
	}
	e := wireEntry{mon: mon, fp: ModelFingerprint(buf.Bytes()), js: buf.Bytes()}
	co.mu.Lock()
	co.wires[name] = e
	co.mu.Unlock()
	return e, nil
}

// callWithModel issues an RPC that names a model fingerprint,
// answering a shard's 412 model-miss with a push and one retry —
// model replication is lazy, so a freshly restarted shard heals on
// first use.
func (co *Coordinator) callWithModel(ctx context.Context, peer, rpc string, frame []byte, want msgType, wm wireEntry) ([]byte, error) {
	payload, err := co.client.Call(ctx, peer, rpc, frame, want)
	if err == nil || !IsModelMiss(err) {
		return payload, err
	}
	co.logger.Info("replicating model to shard", "peer", peer, "fingerprint", wm.fp)
	push := modelPush{FP: wm.fp, JSON: wm.js}
	if _, perr := co.client.Call(ctx, peer, "model", push.encode(), msgModelAck); perr != nil {
		return nil, fmt.Errorf("cluster: pushing model to %s: %w", peer, perr)
	}
	return co.client.Call(ctx, peer, rpc, frame, want)
}

// chunkBounds splits n rows into len(peers) contiguous chunks in
// fixed peer order (earlier chunks absorb the remainder), so the same
// batch always lands on the same peers.
func chunkBounds(n, parts int) [][2]int {
	out := make([][2]int, parts)
	lo := 0
	for p := 0; p < parts; p++ {
		size := n / parts
		if p < n%parts {
			size++
		}
		out[p] = [2]int{lo, lo + size}
		lo += size
	}
	return out
}

// ScoreBatch is the scatter-gather implementation of
// server.BatchScorer: the batch splits into contiguous per-peer
// chunks, each shard scores its chunk against the replicated model,
// and the alerts reassemble in row order. A failed chunk fails over
// to local scoring on the select node's own model copy — scoring
// degrades in latency, never in completeness or content, so the
// /api/v1/score response stays byte-identical to a single-node hidod
// even with shards down.
func (co *Coordinator) ScoreBatch(ctx context.Context, model string, mon *stream.Monitor, ds *dataset.Dataset, workers int) ([]stream.Alert, error) {
	n := ds.N()
	out := make([]stream.Alert, n)
	wm, err := co.wireModel(model, mon)
	if err != nil {
		return nil, err
	}
	bounds := chunkBounds(n, len(co.cfg.Peers))
	errs := co.eachPeer(func(p int, peer string) error {
		lo, hi := bounds[p][0], bounds[p][1]
		if lo >= hi {
			return nil
		}
		if err := co.scoreChunkInto(ctx, peer, wm, ds, lo, hi, workers, out); err != nil {
			co.logger.Warn("score chunk failing over to local scoring",
				"peer", peer, "rows", hi-lo, "error", err)
			if co.m != nil {
				co.m.Fallback.Inc()
			}
			// The failover is its own span, so a trace of a degraded
			// request shows both the failed RPC attempts and the local
			// re-scoring that replaced them.
			sp := obs.SpanFrom(ctx).Child("failover:score")
			sp.SetAttr("peer", peer)
			sp.SetAttrInt("rows", int64(hi-lo))
			ferr := scoreLocalInto(ctx, mon, ds, lo, hi, out)
			sp.End()
			return ferr
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// chunkScratch pools the row-flattening buffer scoreChunkInto builds
// each request frame from, so steady scatter-gather traffic reuses one
// buffer per concurrent chunk instead of allocating per request.
var chunkScratch = sync.Pool{New: func() any { return new([]float64) }}

// scoreChunkInto ships rows [lo,hi) to one peer and decodes its alerts
// straight into out[lo:hi].
func (co *Coordinator) scoreChunkInto(ctx context.Context, peer string, wm wireEntry, ds *dataset.Dataset, lo, hi, workers int, out []stream.Alert) error {
	d := ds.D()
	vp := chunkScratch.Get().(*[]float64)
	vals := (*vp)[:0]
	for i := lo; i < hi; i++ {
		vals = append(vals, ds.RowView(i)...)
	}
	req := scoreReq{ModelFP: wm.fp, N: hi - lo, D: d, Workers: workers, Values: vals}
	frame := req.encode()
	// The frame owns its own bytes; the scratch can go back before the
	// network round-trip.
	*vp = vals
	chunkScratch.Put(vp)
	payload, err := co.callWithModel(ctx, peer, "score", frame, msgScoreResp, wm)
	if err != nil {
		return err
	}
	var resp scoreResp
	if err := resp.decode(payload); err != nil {
		return err
	}
	if len(resp.Alerts) != hi-lo {
		return fmt.Errorf("cluster: peer %s scored %d of %d rows", peer, len(resp.Alerts), hi-lo)
	}
	for i, a := range resp.Alerts {
		out[lo+i] = stream.Alert{Score: a.Score, Matches: a.Matches}
	}
	return nil
}

// scoreLocalInto scores rows [lo,hi) on the local model copy — the
// failover path. Alert content is identical to what the shard would
// have returned: scoring is a pure function of (model, record). One
// scorer serves the whole range, so the per-record scratch is
// allocated once.
func scoreLocalInto(ctx context.Context, mon *stream.Monitor, ds *dataset.Dataset, lo, hi int, out []stream.Alert) error {
	sc := mon.NewScorer()
	for i := lo; i < hi; i++ {
		if (i-lo)%256 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		out[i] = sc.Score(ds.RowView(i))
	}
	return nil
}

// TopN implements server.TopNer: every shard ranks its own rows
// against the replicated model and returns its local top n; the
// merged answer re-sorts the union under the same (score, global
// index) comparator, so it equals the single-node ranking over the
// concatenated data. With at least Quorum but not all shards
// answering, the response is marked partial instead of failing — the
// ISSUE's degraded mode for reference-set exploration.
func (co *Coordinator) TopN(ctx context.Context, model string, mon *stream.Monitor, n int) (server.TopNResult, error) {
	shards, _, _, err := co.topology(ctx)
	if err != nil {
		return server.TopNResult{}, err
	}
	wm, err := co.wireModel(model, mon)
	if err != nil {
		return server.TopNResult{}, err
	}
	req := topNReq{ModelFP: wm.fp, N: n}
	frame := req.encode()
	resps := make([]topNResp, len(shards))
	errs := co.eachPeer(func(i int, peer string) error {
		payload, err := co.callWithModel(ctx, peer, "topn", frame, msgTopNResp, wm)
		if err != nil {
			return err
		}
		return resps[i].decode(payload)
	})
	answered := 0
	rows := 0
	var entries []server.TopNEntry
	for i, err := range errs {
		if err != nil {
			co.logger.Warn("shard missing from top-n merge", "peer", shards[i].peer, "error", err)
			continue
		}
		answered++
		rows += resps[i].Rows
		for _, it := range resps[i].Items {
			it.Index += shards[i].offset
			entries = append(entries, it)
		}
	}
	if answered < co.cfg.Quorum {
		return server.TopNResult{}, fmt.Errorf(
			"cluster: only %d of %d shards answered (quorum %d)",
			answered, len(shards), co.cfg.Quorum)
	}
	server.SortTopN(entries)
	if n < len(entries) {
		entries = entries[:n]
	}
	partial := answered < len(shards)
	if partial && co.m != nil {
		co.m.Partials.Inc()
	}
	return server.TopNResult{Rows: rows, Partial: partial, Results: entries}, nil
}

// FetchTrace implements server.TraceFetcher: it fans the trace RPC
// out to every storage peer and concatenates whatever spans their
// rings still hold. Per-peer failures are tolerated — a dead shard or
// a pre-tracing binary (whose strict decoder 400s the unknown message
// type) contributes nothing, and the select node still serves the
// spans it has. The error reports the first per-peer failure for the
// caller's log; spans and error can both be non-nil.
func (co *Coordinator) FetchTrace(ctx context.Context, traceID string) ([]obs.SpanData, error) {
	req := traceReq{TraceID: traceID}
	frame := req.encode()
	perPeer := make([][]obs.SpanData, len(co.cfg.Peers))
	errs := co.eachPeer(func(i int, peer string) error {
		payload, err := co.client.Call(ctx, peer, "trace", frame, msgTraceResp)
		if err != nil {
			return err
		}
		var resp traceResp
		if err := resp.decode(payload); err != nil {
			return err
		}
		perPeer[i] = resp.Spans
		return nil
	})
	var out []obs.SpanData
	var firstErr error
	for i, err := range errs {
		if err != nil {
			co.logger.Debug("trace fetch skipped peer", "peer", co.cfg.Peers[i],
				"trace", traceID, "error", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("peer %s: %w", co.cfg.Peers[i], err)
			}
			continue
		}
		out = append(out, perPeer[i]...)
	}
	return out, firstErr
}

// FitOptions are the single-node fit's options: the distributed fit
// runs the same fit body (stream.NewMonitorOver), so only the counting
// moves.
type FitOptions = stream.Options

// Fit mines a model over the union of the shards without ever
// assembling their data on one node for the search: global equi-depth
// cuts are placed exactly (a transient row gather — quantiles need a
// global view — skipped when the last fit's cuts still apply), each
// shard builds its bitmap index under those cuts, and stream's fit
// body runs on the select node against a Source whose every cube count
// is the sum of per-shard counts. Because the fit is a pure function
// of those counts, the model is bit-identical to a single-node fit on
// the concatenated data; the JSON it returns is the monitor's own Save.
// A Source is a core.BatchSource, and the restarts advance in
// lockstep: each crossover round and each evaluation of every restart
// shares one count RPC per shard, so a fit's round trips follow its
// longest restart rather than their sum, and its RPCs are a pure
// function of the seed.
//
// Fit requires every shard: a missing shard makes the counts wrong,
// not just incomplete, so the fit fails instead of degrading. Options
// that stream.Options.Validate rejects fail before any RPC.
func (co *Coordinator) Fit(ctx context.Context, opt FitOptions) (*stream.Monitor, []byte, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	shards, totalN, names, err := co.topology(ctx)
	if err != nil {
		return nil, nil, err
	}
	if totalN == 0 {
		return nil, nil, fmt.Errorf("cluster: shards hold no rows")
	}
	cuts, err := co.globalCuts(ctx, opt.Phi, shards, names)
	if err != nil {
		return nil, nil, err
	}
	gid := gridID(opt.Phi, cuts, shards)
	if err := co.pushGrid(ctx, gid, opt.Phi, cuts, shards); err != nil {
		return nil, nil, err
	}

	src := co.newSource(ctx, gid, totalN, len(names), opt.Phi)
	mon, err := stream.NewMonitorOver(src, cuts, names, opt)
	if serr := src.Err(); serr != nil {
		return nil, nil, fmt.Errorf("cluster: distributed count failed: %w", serr)
	}
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		return nil, nil, err
	}
	hits, misses, size := src.Stats()
	co.logger.Info("cluster fit done", "rows", totalN, "k", mon.K(),
		"projections", len(mon.Projections()),
		"count_cache_hits", hits, "count_cache_misses", misses, "distinct_cubes", size)
	return mon, buf.Bytes(), nil
}

// globalCuts returns the exact global equi-depth cuts at phi.
// Equi-depth boundaries are order statistics of the full column, which
// no per-shard summary reproduces exactly, so the rows are gathered
// once, discretized, and discarded. The cuts of the last gather are
// kept under phi and the shard fingerprints and reused while both
// match. A shard whose data changed since connect still carries its
// old fingerprint here, but the grid push names that fingerprint and
// the shard rejects it, so stale cuts never reach a search.
func (co *Coordinator) globalCuts(ctx context.Context, phi int, shards []shard, names []string) ([][]float64, error) {
	key := fmt.Sprint(phi)
	for _, sh := range shards {
		key += "," + sh.fp
	}
	co.mu.Lock()
	last := co.cuts
	co.mu.Unlock()
	if last.key == key {
		return last.cuts, nil
	}
	concat, err := co.gatherRows(ctx, shards, names)
	if err != nil {
		return nil, err
	}
	cuts := discretize.Fit(concat, phi, discretize.EquiDepth).AllCuts()
	co.mu.Lock()
	co.cuts = cutsEntry{key: key, cuts: cuts}
	co.mu.Unlock()
	return cuts, nil
}

// gatherRows pulls every shard's rows and concatenates them in peer
// order — the transient global view the cut placement needs.
func (co *Coordinator) gatherRows(ctx context.Context, shards []shard, names []string) (*dataset.Dataset, error) {
	resps := make([]rowsResp, len(shards))
	errs := co.eachPeer(func(i int, peer string) error {
		payload, err := co.client.Call(ctx, peer, "rows", emptyFrame(msgRowsReq), msgRowsResp)
		if err != nil {
			return err
		}
		if err := resps[i].decode(payload); err != nil {
			return err
		}
		if resps[i].N != shards[i].n || resps[i].D != len(names) {
			co.forget()
			return fmt.Errorf("cluster: shard %s now holds %dx%d, connected as %dx%d — reconnect",
				peer, resps[i].N, resps[i].D, shards[i].n, len(names))
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: gathering rows from %s: %w", shards[i].peer, err)
		}
	}
	ds := dataset.New(append([]string(nil), names...), 0)
	d := len(names)
	for i := range resps {
		for r := 0; r < resps[i].N; r++ {
			ds.AppendRow(resps[i].Values[r*d:(r+1)*d], "")
		}
	}
	return ds, nil
}

// gridID names a pushed discretization by everything that defines it:
// resolution, exact cut bits, and the shard set it was placed over.
func gridID(phi int, cuts [][]float64, shards []shard) string {
	var e enc
	e.u32(uint32(phi))
	for _, c := range cuts {
		for _, v := range c {
			e.f64(v)
		}
	}
	for _, sh := range shards {
		e.str(sh.fp)
	}
	return "g-" + ModelFingerprint(e.b)[2:]
}

// pushGrid installs the global cuts on every shard. All must ack.
func (co *Coordinator) pushGrid(ctx context.Context, gid string, phi int, cuts [][]float64, shards []shard) error {
	errs := co.eachPeer(func(i int, peer string) error {
		req := gridReq{GridID: gid, DataFP: shards[i].fp, Phi: phi, Cuts: cuts}
		_, err := co.client.Call(ctx, peer, "grid", req.encode(), msgGridAck)
		return err
	})
	for i, err := range errs {
		if err != nil {
			if IsGridMiss(err) {
				co.forget() // the shard's data changed under us
			}
			return fmt.Errorf("cluster: pushing grid to %s: %w", shards[i].peer, err)
		}
	}
	co.logger.Info("grid pushed", "grid", gid, "phi", phi, "peers", len(shards))
	return nil
}
