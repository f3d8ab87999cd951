package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"hido/internal/cluster"
	"hido/internal/dataset"
	"hido/internal/metrics"
	"hido/internal/stream"
)

// The cluster-fit workload: Segmentation-profile rows split
// contiguously over three storage shards, fitted through a coordinator
// in the same process, one caller, cycling through clusterSeeds search
// seeds.
const (
	clusterProfile = "Segmentation"
	clusterPhi     = 6
	clusterShards  = 3
	clusterSeeds   = 8
)

// clusterSetup is a running three-shard cluster over one data set.
type clusterSetup struct {
	full    *dataset.Dataset
	shards  []*httpServer
	meters  []*rpcMeter // set in traced runs
	co      *cluster.Coordinator
	reg     *metrics.Registry
	logs    *lockedBuffer
	seeds   []uint64
	tracing atomic.Int64 // the traced fit's root span ID; 0 when untraced
}

// lockedBuffer is a bytes.Buffer safe for concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// take returns the contents and empties the buffer.
func (b *lockedBuffer) take() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]byte(nil), b.buf.Bytes()...)
	b.buf.Reset()
	return out
}

func setupCluster(seed uint64, t *tracer) (*clusterSetup, error) {
	full, err := profileData(clusterProfile, seed)
	if err != nil {
		return nil, err
	}
	cs := &clusterSetup{full: full, reg: metrics.NewRegistry(), logs: &lockedBuffer{},
		seeds: seedList(seed, 0xc1, clusterSeeds)}
	var peers []string
	n := full.N()
	for i := 0; i < clusterShards; i++ {
		rows := make([]int, 0, n/clusterShards+1)
		for j := i * n / clusterShards; j < (i+1)*n/clusterShards; j++ {
			rows = append(rows, j)
		}
		h := cluster.NewStorage(full.SelectRows(rows), nil).Handler()
		if t != nil {
			m := &rpcMeter{next: h, t: t, root: &cs.tracing, calls: map[string]int{}}
			cs.meters = append(cs.meters, m)
			h = m
		}
		hs, err := serve(h)
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.shards = append(cs.shards, hs)
		peers = append(peers, hs.url)
	}
	cs.co, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
		Peers:   peers,
		Logger:  slog.New(slog.NewJSONHandler(cs.logs, nil)),
		Metrics: cluster.NewMetrics(cs.reg),
	})
	if err != nil {
		cs.close()
		return nil, err
	}
	// A one-restart fit connects the shards and builds their indexes.
	if _, _, err := cs.co.Fit(context.Background(), cluster.FitOptions{Phi: clusterPhi, Seed: ^cs.seeds[0], Restarts: 1}); err != nil {
		cs.close()
		return nil, fmt.Errorf("warm-up cluster fit: %w", err)
	}
	cs.logs.take()
	return cs, nil
}

func (cs *clusterSetup) close() {
	if cs.co != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := cs.co.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: draining coordinator: %v\n", err)
		}
	}
	for _, s := range cs.shards {
		if err := s.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing storage shard: %v\n", err)
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// fits runs cluster fits back to back for d, spanned when t is set,
// and returns each fit's wall time in ms, the model bytes by seed, and
// the elapsed time.
func (cs *clusterSetup) fits(r *run, d time.Duration, t *tracer) ([]float64, map[uint64][]byte, time.Duration) {
	var times []float64
	models := map[uint64][]byte{}
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := cs.seeds[i%len(cs.seeds)]
		var root *openSpan
		if t != nil {
			root = t.begin(0, "cluster.Coordinator.Fit", "cluster")
			cs.tracing.Store(int64(root.id()))
		}
		t0 := time.Now()
		_, js, err := cs.co.Fit(context.Background(), cluster.FitOptions{Phi: clusterPhi, Seed: seed})
		dt := time.Since(t0)
		if root != nil {
			cs.tracing.Store(0)
			root.end()
		}
		r.attempted++
		if err != nil {
			r.fail("cluster fit seed %d: %v", seed, err)
			continue
		}
		times = append(times, dt.Seconds()*1000)
		if prev, ok := models[seed]; ok && !bytes.Equal(prev, js) {
			r.fail("cluster fit seed %d: model bytes changed between repetitions", seed)
		}
		models[seed] = js
	}
	return times, models, time.Since(start)
}

// checkModels compares each cluster model with a single-node fit of
// the concatenated rows under the same seed.
func (cs *clusterSetup) checkModels(r *run, models map[uint64][]byte) {
	for seed, js := range models {
		r.attempted++
		mon, err := stream.NewMonitor(cs.full, stream.Options{Phi: clusterPhi, Seed: seed})
		if err != nil {
			r.fail("single-node fit seed %d: %v", seed, err)
			continue
		}
		var want bytes.Buffer
		if err := mon.Save(&want); err != nil {
			r.fail("single-node fit seed %d: %v", seed, err)
			continue
		}
		if !bytes.Equal(js, want.Bytes()) {
			r.fail("cluster fit seed %d: model differs from the single-node fit", seed)
		}
	}
}

func runClusterFit(o options, r *run) error {
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	cs, setups, err := setUp(func() (*clusterSetup, error) { return setupCluster(o.seed, t) },
		(*clusterSetup).close)
	if err != nil {
		return err
	}
	defer cs.close()
	d := o.duration()
	if !o.trace {
		times, models, elapsed := cs.fits(r, d, nil)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		cs.checkModels(r, models)
		r.say("%s", describe("fit_p50_ms", "ms", times, 0.9))
		recordEndToEnd(r, setups, rss, median(times), float64(len(times))/elapsed.Seconds())
		return nil
	}

	plain, models, _ := cs.fits(r, d/2, nil)
	cs.checkModels(r, models)
	before, err := rpcSeconds(cs.reg)
	if err != nil {
		return err
	}
	cs.logs.take()
	traced, models, _ := cs.fits(r, d/2, t)
	cs.checkModels(r, models)
	after, err := rpcSeconds(cs.reg)
	if err != nil {
		return err
	}
	hits, lookups, err := memoStats(cs.logs.take())
	if err != nil {
		return err
	}
	recordOverhead(r, "cluster fit_p50_ms", plain, traced)
	fits := float64(len(traced))
	calls := map[string]int{}
	var rpcBytes int64
	for _, m := range cs.meters {
		for k, v := range m.calls {
			calls[k] += v
		}
		rpcBytes += m.bytes
	}
	self, total := t.selfTimes("cluster.Coordinator.Fit")
	m := r.metrics
	m["cluster.count_rpcs_per_fit"] = float64(calls["count"]) / fits
	m["cluster.cover_rpcs_per_fit"] = float64(calls["cover"]) / fits
	m["cluster.rpc_bytes_per_fit"] = float64(rpcBytes) / fits
	m["cluster.storage_busy_share"] = ratio(float64(total-self["cluster"]), float64(total))
	m["cluster.rpc_mean_us"] = ratio(after.sum-before.sum, after.count-before.count) * 1e6
	m["cluster.memo_hit_ratio"] = ratio(hits, lookups)
	r.say("per traced cluster fit: %.0f count RPCs, %.0f cover RPCs, %.0f RPC bytes; storage busy %.3f of the fit; "+
		"client RPC mean %.1f us over %.0f RPCs; count memo hits %.0f of %.0f lookups",
		m["cluster.count_rpcs_per_fit"], m["cluster.cover_rpcs_per_fit"], m["cluster.rpc_bytes_per_fit"],
		m["cluster.storage_busy_share"], m["cluster.rpc_mean_us"], after.count-before.count, hits, lookups)
	reportSelf(r, t, "cluster.Coordinator.Fit")

	// The search each cluster fit ran, replayed single-node through the
	// traced pipeline, gives the fit-layer metrics.
	var fts []fitTrace
	for seed := range models {
		_, ft, err := tracedFit(newTracer(), cs.full, clusterPhi, seed)
		if err != nil {
			return err
		}
		fts = append(fts, ft)
	}
	recordFitLayers(r, fts)
	return writeTrace(r, o, t)
}

// histTotals is a histogram's summed observations and count.
type histTotals struct{ sum, count float64 }

// rpcSeconds reads the coordinator client's RPC latency totals.
func rpcSeconds(reg *metrics.Registry) (histTotals, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return histTotals{}, err
	}
	text := buf.String()
	sum, err := seriesSum(text, "hidod_cluster_rpc_seconds_sum{")
	if err != nil {
		return histTotals{}, err
	}
	count, err := seriesSum(text, "hidod_cluster_rpc_seconds_count{")
	return histTotals{sum: sum, count: count}, err
}

// memoStats sums the count-memo counters of the coordinator's "cluster
// fit done" log records.
func memoStats(logs []byte) (hits, lookups float64, err error) {
	sc := bufio.NewScanner(bytes.NewReader(logs))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec struct {
			Msg    string  `json:"msg"`
			Hits   float64 `json:"count_cache_hits"`
			Misses float64 `json:"count_cache_misses"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return 0, 0, fmt.Errorf("parsing coordinator log: %w", err)
		}
		if rec.Msg == "cluster fit done" {
			hits += rec.Hits
			lookups += rec.Hits + rec.Misses
		}
	}
	return hits, lookups, sc.Err()
}

// rpcMeter wraps a storage node's handler. While a traced fit runs it
// records each RPC as a span under the fit and counts RPCs by name and
// their request and response bytes.
type rpcMeter struct {
	next http.Handler
	t    *tracer
	root *atomic.Int64

	mu    sync.Mutex
	calls map[string]int
	bytes int64
}

func (m *rpcMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := int(m.root.Load())
	if parent == 0 {
		m.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := m.t.now()
	m.next.ServeHTTP(cw, r)
	end := m.t.now()
	name := path.Base(r.URL.Path)
	m.t.add(span{Parent: parent, Name: "storage." + name, Layer: "storage", Start: start, End: end})
	m.mu.Lock()
	m.calls[name]++
	m.bytes += r.ContentLength + cw.n
	m.mu.Unlock()
}

// countingWriter counts the response bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
