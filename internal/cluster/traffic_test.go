package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/core"
	"hido/internal/dataset"
	"hido/internal/obs"
	"hido/internal/stream"
)

// rpcMeter counts the RPCs a storage handler serves, and their request
// body bytes, by name.
type rpcMeter struct {
	next  http.Handler
	mu    sync.Mutex
	calls map[string]int
	sent  map[string]int
}

func (m *rpcMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	name := path.Base(r.URL.Path)
	m.mu.Lock()
	m.calls[name]++
	if m.sent == nil {
		m.sent = map[string]int{}
	}
	m.sent[name] += len(body)
	m.mu.Unlock()
	m.next.ServeHTTP(w, r)
}

// take returns the counts since the last take and resets them.
func (m *rpcMeter) take() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.calls
	m.calls = map[string]int{}
	return out
}

// takeSent returns the request bytes since the last takeSent and
// resets them.
func (m *rpcMeter) takeSent() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.sent
	m.sent = map[string]int{}
	return out
}

// swappable serves through whichever handler is installed, so a test
// can restart a storage node behind an unchanged URL.
type swappable struct{ h atomic.Pointer[http.Handler] }

func (s *swappable) set(h http.Handler)                               { s.h.Store(&h) }
func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*s.h.Load()).ServeHTTP(w, r) }

// startMeteredCluster boots one storage server per shard behind a
// meter and a swappable handler, and a coordinator over them.
func startMeteredCluster(t *testing.T, shards []*dataset.Dataset) (*Coordinator, []*rpcMeter, []*swappable) {
	t.Helper()
	var peers []string
	var meters []*rpcMeter
	var slots []*swappable
	for _, sh := range shards {
		m := &rpcMeter{next: NewStorage(sh, nil).Handler(), calls: map[string]int{}}
		sw := &swappable{}
		sw.set(m)
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		meters = append(meters, m)
		slots = append(slots, sw)
		peers = append(peers, srv.URL)
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Peers:  peers,
		Client: ClientConfig{Timeout: 10 * time.Second, Retries: -1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return co, meters, slots
}

// singleNodeModel fits the concatenated rows on one node.
func singleNodeModel(t *testing.T, full *dataset.Dataset, opt stream.Options) []byte {
	t.Helper()
	mon, err := stream.NewMonitor(full, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterFitTraffic pins the distributed fit's round trips per
// shard: one count RPC per crossover round plus one per evaluation
// batch, one cover RPC per restart and one for the filter pass, and no
// row gather once the cuts at that φ are known. A generation takes at
// most k+1 count RPCs, and the restarts advance in lockstep, sharing
// each round's and each evaluation's RPC, so a fit sends at most k+1
// per generation of its longest restart plus one for the initial
// populations — and so, too, at most the sum over the restarts of
// k+1 per generation plus one, the bound of restarts run one by one.
func TestClusterFitTraffic(t *testing.T) {
	full := testData(t, 600)
	const phi, seed, restarts = 4, 5, 3
	co, meters, _ := startMeteredCluster(t, splitAt(full, []int{200, 410}))

	var mu sync.Mutex
	gens := map[string]int{}
	observer := obs.Funcs{Done: func(e obs.SummaryEvent) {
		mu.Lock()
		defer mu.Unlock()
		if e.Algo == "evo" {
			gens[e.Run] = e.Generations
		}
	}}
	opt := FitOptions{Phi: phi, Seed: seed, Restarts: restarts, Observer: observer}
	_, js, err := co.Fit(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := singleNodeModel(t, full, stream.Options{Phi: phi, Seed: seed, Restarts: restarts}); !bytes.Equal(js, want) {
		t.Fatal("cluster fit differs from the single-node fit")
	}
	if len(gens) != restarts {
		t.Fatalf("observed %d restart summaries, want %d", len(gens), restarts)
	}
	k := core.Advise(full.N(), phi, -3).K
	bound, longest := 0, 0
	for _, g := range gens {
		bound += g*(k+1) + 1
		longest = max(longest, g)
	}
	lockstep := longest*(k+1) + 1
	for i, m := range meters {
		calls := m.take()
		if calls["cover"] != restarts+1 {
			t.Errorf("shard %d: %d cover RPCs, want %d", i, calls["cover"], restarts+1)
		}
		if calls["count"] == 0 || calls["count"] > bound {
			t.Errorf("shard %d: %d count RPCs, want 1..%d (k=%d, generations %v)", i, calls["count"], bound, k, gens)
		}
		if calls["count"] > lockstep {
			t.Errorf("shard %d: %d count RPCs, want at most %d for restarts in lockstep (k=%d, generations %v)",
				i, calls["count"], lockstep, k, gens)
		}
		if calls["rows"] != 1 {
			t.Errorf("shard %d: %d rows RPCs on the first fit, want 1", i, calls["rows"])
		}
	}

	// A second fit at the same φ reuses the cuts; the grid push still
	// runs.
	opt.Seed = seed + 1
	if _, _, err := co.Fit(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	for i, m := range meters {
		calls := m.take()
		if calls["rows"] != 0 {
			t.Errorf("shard %d: %d rows RPCs on a second fit at the same phi", i, calls["rows"])
		}
		if calls["grid"] != 1 {
			t.Errorf("shard %d: %d grid pushes on the second fit, want 1", i, calls["grid"])
		}
	}

	// A new φ needs new cuts.
	opt.Phi = phi + 1
	if _, _, err := co.Fit(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	for i, m := range meters {
		if calls := m.take(); calls["rows"] != 1 {
			t.Errorf("shard %d: %d rows RPCs at a new phi, want 1", i, calls["rows"])
		}
	}
}

// TestClusterFitShardRestartedWithNewRows restarts one shard over
// different rows between two fits. The fit right after the restart
// still holds the old topology and cuts: it must fail on the
// fingerprint conflict (or re-gather), never fit with stale cuts, and
// the fit after it must match a single-node fit on the new data.
func TestClusterFitShardRestartedWithNewRows(t *testing.T) {
	full := testData(t, 600)
	shards := splitAt(full, []int{200, 400})
	co, _, slots := startMeteredCluster(t, shards)
	opt := FitOptions{Phi: 4, Seed: 3}
	sopt := stream.Options{Phi: 4, Seed: 3}
	ctx := context.Background()
	_, js, err := co.Fit(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, singleNodeModel(t, full, sopt)) {
		t.Fatal("first fit differs from the single-node fit")
	}

	// Shard 1 comes back holding other rows: the last 150 of a
	// different draw.
	other := testData(t, 900)
	var rows []int
	for i := 750; i < 900; i++ {
		rows = append(rows, i)
	}
	shards[1] = other.SelectRows(rows)
	slots[1].set(NewStorage(shards[1], nil).Handler())
	newFull := dataset.New(full.Names, 0)
	for _, sh := range shards {
		for i := 0; i < sh.N(); i++ {
			newFull.AppendRow(sh.RowView(i), "")
		}
	}
	want := singleNodeModel(t, newFull, sopt)

	_, js, err = co.Fit(ctx, opt)
	switch {
	case err != nil:
		if !IsGridMiss(err) {
			t.Errorf("fit after the restart failed, but not on the fingerprint conflict: %v", err)
		}
	case !bytes.Equal(js, want):
		t.Fatal("fit after the restart used stale cuts")
	}
	_, js, err = co.Fit(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, want) {
		t.Fatal("fit on the new rows differs from the single-node fit")
	}
}
