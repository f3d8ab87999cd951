package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hido/internal/core"
	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/server"
	"hido/internal/stream"
	"hido/internal/synth"
)

// testData generates a reference window with planted structure so the
// fitted models are non-trivial.
func testData(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name: "ref", N: n, D: 6,
		Groups: []synth.Group{
			{Dims: []int{0, 1}, Noise: 0.03},
			{Dims: []int{2, 3}, Noise: 0.05},
		},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// splitAt carves ds into contiguous shards at the given boundaries.
// Concatenating the shards in order reproduces ds row for row — the
// cluster's global row order invariant.
func splitAt(ds *dataset.Dataset, bounds []int) []*dataset.Dataset {
	var shards []*dataset.Dataset
	lo := 0
	for _, hi := range append(bounds, ds.N()) {
		sh := dataset.New(ds.Names, hi-lo)
		for i := lo; i < hi; i++ {
			sh.AppendRow(ds.RowView(i), "")
		}
		shards = append(shards, sh)
		lo = hi
	}
	return shards
}

// randomSplit picks 0..3 random interior split points: a 1- to 4-way
// sharding of the rows.
func randomSplit(rng *rand.Rand, ds *dataset.Dataset) []*dataset.Dataset {
	parts := 1 + rng.Intn(4)
	cut := map[int]bool{}
	for len(cut) < parts-1 {
		cut[1+rng.Intn(ds.N()-1)] = true
	}
	var bounds []int
	for b := range cut {
		bounds = append(bounds, b)
	}
	for i := range bounds {
		for j := i + 1; j < len(bounds); j++ {
			if bounds[j] < bounds[i] {
				bounds[i], bounds[j] = bounds[j], bounds[i]
			}
		}
	}
	return splitAt(ds, bounds)
}

// startCluster boots one in-process storage server per shard and a
// coordinator over them. Retries are disabled so failure tests run at
// full speed; correctness must not depend on retry luck anyway.
func startCluster(t testing.TB, shards []*dataset.Dataset, quorum int) (*Coordinator, []*httptest.Server) {
	t.Helper()
	var peers []string
	var servers []*httptest.Server
	for _, sh := range shards {
		srv := httptest.NewServer(NewStorage(sh, nil).Handler())
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		peers = append(peers, srv.URL)
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Peers:  peers,
		Quorum: quorum,
		Client: ClientConfig{Timeout: 10 * time.Second, Retries: -1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return co, servers
}

// TestRemoteCountsBitIdentical is the count half of the merge
// property: over random 1..4-way row splits, every cube count summed
// across the shards equals the single-node bitmap index count.
func TestRemoteCountsBitIdentical(t *testing.T) {
	full := testData(t, 300)
	const phi = 4
	det := core.NewDetector(full, phi)
	cuts := det.Grid.AllCuts()
	rng := rand.New(rand.NewSource(42))

	for round := 0; round < 3; round++ {
		shards := randomSplit(rng, full)
		co, _ := startCluster(t, shards, 1)
		ctx := context.Background()
		sh, _, _, err := co.topology(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gid := gridID(phi, cuts, sh)
		if err := co.pushGrid(ctx, gid, phi, cuts, sh); err != nil {
			t.Fatal(err)
		}
		src := co.newSource(ctx, gid, full.N(), full.D(), phi)

		var cs []cube.Cube
		var keys []string
		cube.Enumerate(full.D(), 2, phi, func(c cube.Cube) bool {
			if rng.Intn(4) == 0 {
				cc := c.Clone()
				cs = append(cs, cc)
				keys = append(keys, cc.Key())
			}
			return len(cs) < 64
		})
		got := src.CountBatch(cs, keys, 0)
		if err := src.Err(); err != nil {
			t.Fatalf("split %d-way: %v", len(shards), err)
		}
		for i, c := range cs {
			if want := det.Index.Count(c); got[i] != want {
				t.Errorf("split %d-way: cube %v: remote sum %d, single-node %d",
					len(shards), c, got[i], want)
			}
			// The memoized single-cube path must agree with the batch path.
			if single := src.CountKey(c, keys[i]); single != got[i] {
				t.Errorf("cube %v: CountKey %d != CountBatch %d", c, single, got[i])
			}
			// Cover must be the ascending global index list.
			gotCover := src.Cover(c)
			wantCover := det.Index.Cover(c).Indices()
			if len(gotCover) != len(wantCover) {
				t.Fatalf("cube %v: cover size %d != %d", c, len(gotCover), len(wantCover))
			}
			for j := range gotCover {
				if gotCover[j] != wantCover[j] {
					t.Fatalf("cube %v: cover[%d] = %d, want %d", c, j, gotCover[j], wantCover[j])
				}
			}
			if i >= 7 {
				break // covers are O(n) per cube; a handful suffices
			}
		}
	}
}

// TestClusterFitBitIdentical is the tentpole acceptance property: a
// distributed fit over 1..4 shards produces byte-identical model JSON
// to a single-node fit on the concatenated data.
func TestClusterFitBitIdentical(t *testing.T) {
	full := testData(t, 240)
	opt := stream.Options{Phi: 4, Seed: 7}
	single, err := stream.NewMonitor(full, opt)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := single.Save(&want); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	for parts := 1; parts <= 4; parts++ {
		t.Run(fmt.Sprintf("%d-way", parts), func(t *testing.T) {
			var bounds []int
			cut := map[int]bool{}
			for len(cut) < parts-1 {
				cut[1+rng.Intn(full.N()-1)] = true
			}
			for b := range cut {
				bounds = append(bounds, b)
			}
			for i := range bounds {
				for j := i + 1; j < len(bounds); j++ {
					if bounds[j] < bounds[i] {
						bounds[i], bounds[j] = bounds[j], bounds[i]
					}
				}
			}
			co, _ := startCluster(t, splitAt(full, bounds), 1)
			mon, js, err := co.Fit(context.Background(), FitOptions{Phi: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, want.Bytes()) {
				t.Errorf("cluster fit differs from single-node fit:\ncluster: %s\nsingle:  %s",
					js, want.Bytes())
			}
			if mon.K() != single.K() || len(mon.Projections()) != len(single.Projections()) {
				t.Errorf("reloaded monitor differs: k=%d/%d projections=%d/%d",
					mon.K(), single.K(), len(mon.Projections()), len(single.Projections()))
			}
		})
	}
}

// installModel registers a fitted monitor under "default".
func installModel(t *testing.T, s *server.Server, mon *stream.Monitor) {
	t.Helper()
	if err := s.Registry().Set("default", server.Entry{
		Monitor: mon, FittedAt: time.Unix(1700000000, 0), Source: "test",
	}); err != nil {
		t.Fatal(err)
	}
}

// get returns status and body for a GET.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// post returns status and body for a POST.
func post(t *testing.T, url, ctype, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, ctype, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// scoreBody builds an NDJSON batch: some reference rows plus an
// outlying one.
func scoreBody(t *testing.T, ds *dataset.Dataset) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		row, err := json.Marshal(ds.RowView(i * 7))
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(row)
		sb.WriteByte('\n')
	}
	sb.WriteString("[0.01,0.99,0.01,0.99,0.5,0.5]\n")
	return sb.String()
}

// TestClusterAPIEndToEnd boots a 3-shard cluster behind a stock
// internal/server select node and byte-diffs the public API against a
// single-node server over the concatenated data: /api/v1/score,
// /api/v1/topn and /api/v1/models/{name} must be indistinguishable.
// Then it kills one storage node and requires: score still
// byte-identical (local failover), top-n well-formed with
// partial=true, and top-n under an all-shards quorum a clean 503.
func TestClusterAPIEndToEnd(t *testing.T) {
	full := testData(t, 240)
	mon, err := stream.NewMonitor(full, stream.Options{Phi: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// Single-node truth.
	sSingle := server.New(server.Config{TopNer: server.NewDatasetTopN(full, 0)})
	installModel(t, sSingle, mon)
	single := httptest.NewServer(sSingle.Handler())
	defer single.Close()

	// 3-shard cluster behind a select node.
	shards := splitAt(full, []int{70, 151})
	co, storageSrvs := startCluster(t, shards, 1)
	sSel := server.New(server.Config{})
	sSel.SetBatchScorer(co)
	sSel.SetTopNer(co)
	installModel(t, sSel, mon)
	sel := httptest.NewServer(sSel.Handler())
	defer sel.Close()

	// Strict quorum coordinator over the same shards, connected while
	// everything is still alive.
	var peers []string
	for _, srv := range storageSrvs {
		peers = append(peers, srv.URL)
	}
	coStrict, err := NewCoordinator(CoordinatorConfig{
		Peers: peers, Quorum: len(peers),
		Client: ClientConfig{Timeout: 10 * time.Second, Retries: -1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coStrict.TopN(context.Background(), "default", mon, 3); err != nil {
		t.Fatalf("strict-quorum top-n with all shards up: %v", err)
	}

	batch := scoreBody(t, full)
	for _, q := range []string{"?all=1&explain=1", "?all=0"} {
		wantCode, wantBody := post(t, single.URL+"/api/v1/score"+q, "application/x-ndjson", batch)
		gotCode, gotBody := post(t, sel.URL+"/api/v1/score"+q, "application/x-ndjson", batch)
		if wantCode != http.StatusOK || gotCode != wantCode || gotBody != wantBody {
			t.Errorf("score%s: cluster (%d) %q\nsingle (%d) %q", q, gotCode, gotBody, wantCode, wantBody)
		}
	}
	for _, q := range []string{"?n=7", "?n=500"} {
		wantCode, wantBody := get(t, single.URL+"/api/v1/topn"+q)
		gotCode, gotBody := get(t, sel.URL+"/api/v1/topn"+q)
		if wantCode != http.StatusOK || gotCode != wantCode || gotBody != wantBody {
			t.Errorf("topn%s: cluster (%d) %q\nsingle (%d) %q", q, gotCode, gotBody, wantCode, wantBody)
		}
	}
	{
		wantCode, wantBody := get(t, single.URL+"/api/v1/models/default")
		gotCode, gotBody := get(t, sel.URL+"/api/v1/models/default")
		if wantCode != http.StatusOK || gotCode != wantCode || gotBody != wantBody {
			t.Errorf("model download: cluster (%d) vs single (%d) differ", gotCode, wantCode)
		}
	}

	// Kill the middle storage node.
	storageSrvs[1].Close()

	// Scoring fails over to local chunks: bytes still identical.
	wantCode, wantBody := post(t, single.URL+"/api/v1/score?all=1", "application/x-ndjson", batch)
	gotCode, gotBody := post(t, sel.URL+"/api/v1/score?all=1", "application/x-ndjson", batch)
	if wantCode != http.StatusOK || gotCode != wantCode || gotBody != wantBody {
		t.Errorf("score after shard death: cluster (%d) %q\nsingle (%d) %q",
			gotCode, gotBody, wantCode, wantBody)
	}

	// Top-n degrades to a well-formed partial answer.
	gotCode, gotBody = get(t, sel.URL+"/api/v1/topn?n=5")
	if gotCode != http.StatusOK {
		t.Fatalf("partial topn: %d %s", gotCode, gotBody)
	}
	var partial struct {
		Partial bool `json:"partial"`
		Rows    int  `json:"rows"`
		Results []struct {
			Index int     `json:"index"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(gotBody), &partial); err != nil {
		t.Fatalf("partial topn not JSON: %v in %q", err, gotBody)
	}
	if !partial.Partial {
		t.Errorf("topn with a dead shard not marked partial: %q", gotBody)
	}
	if partial.Rows != full.N()-shards[1].N() {
		t.Errorf("partial rows = %d, want %d", partial.Rows, full.N()-shards[1].N())
	}
	if len(partial.Results) == 0 {
		t.Error("partial topn returned no results")
	}
	for _, r := range partial.Results {
		if r.Index >= 70 && r.Index < 151 {
			t.Errorf("partial topn contains index %d from the dead shard", r.Index)
		}
	}

	// Under an all-shards quorum the same failure is an error, which
	// the serving layer turns into a 503.
	if _, err := coStrict.TopN(context.Background(), "default", mon, 3); err == nil {
		t.Error("strict-quorum top-n succeeded with a dead shard")
	}

	// A distributed fit must refuse to run against a dead shard rather
	// than mine a wrong model.
	if _, _, err := co.Fit(context.Background(), FitOptions{Phi: 4, Seed: 7}); err == nil {
		t.Error("cluster fit succeeded with a dead shard")
	}

	// Drain with nothing in flight returns promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := co.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestStorageRejectsBadCuts pushes grids whose cuts a model file could
// not hold — descending, NaN, ±Inf — and expects each to answer 400
// and store nothing, where a descending push used to panic under the
// handler and a NaN or infinite one was built and counted over. A
// valid push and count on the same shard then succeed.
func TestStorageRejectsBadCuts(t *testing.T) {
	ds := testData(t, 60)
	st := NewStorage(ds, nil)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	client := NewClient(ClientConfig{Timeout: 5 * time.Second, Retries: -1})
	ctx := context.Background()

	good := discretize.Fit(ds, 4, discretize.EquiDepth).AllCuts()
	count := func(id string) error {
		req := countReq{GridID: id, D: ds.D(), Cubes: []cube.Cube{cube.New(ds.D()).With(0, 1)}}
		_, err := client.Call(ctx, srv.URL, "count", req.encode(), msgCountResp)
		return err
	}
	for name, bad := range map[string]float64{
		"descending": -1e300, "NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
	} {
		cuts := discretize.Fit(ds, 4, discretize.EquiDepth).AllCuts()
		cuts[2][1] = bad
		id := "g-bad-" + name
		req := gridReq{GridID: id, DataFP: st.Fingerprint(), Phi: 4, Cuts: cuts}
		_, err := client.Call(ctx, srv.URL, "grid", req.encode(), msgGridAck)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s cut: push answered %v, want 400", name, err)
		}
		if err := count(id); !IsGridMiss(err) {
			t.Errorf("%s cut: count on the rejected grid answered %v, want grid miss", name, err)
		}
	}

	req := gridReq{GridID: "g-good", DataFP: st.Fingerprint(), Phi: 4, Cuts: good}
	if _, err := client.Call(ctx, srv.URL, "grid", req.encode(), msgGridAck); err != nil {
		t.Fatalf("valid push: %v", err)
	}
	if err := count("g-good"); err != nil {
		t.Fatalf("count after a valid push: %v", err)
	}
}

// TestStorageRejectsMismatchedPushes exercises the shard-compat
// checks: wrong data fingerprint and wrong dimensionality are
// conflicts (409), an unknown model fingerprint is a precondition
// failure (412), and a tampered model push is rejected outright.
func TestStorageRejectsMismatchedPushes(t *testing.T) {
	ds := testData(t, 60)
	st := NewStorage(ds, nil)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	client := NewClient(ClientConfig{Timeout: 5 * time.Second, Retries: -1})
	ctx := context.Background()

	cuts := discretize.Fit(ds, 3, discretize.EquiDepth).AllCuts()
	req := gridReq{GridID: "g-x", DataFP: "d-bogus", Phi: 3, Cuts: cuts}
	_, err := client.Call(ctx, srv.URL, "grid", req.encode(), msgGridAck)
	if !IsGridMiss(err) {
		t.Errorf("bogus fingerprint: got %v, want grid-miss conflict", err)
	}

	count := countReq{GridID: "g-never-pushed", D: ds.D(),
		Cubes: []cube.Cube{cube.New(ds.D()).With(0, 1)}}
	_, err = client.Call(ctx, srv.URL, "count", count.encode(), msgCountResp)
	if !IsGridMiss(err) {
		t.Errorf("unknown grid: got %v, want grid-miss conflict", err)
	}

	top := topNReq{ModelFP: "m-unknown", N: 5}
	_, err = client.Call(ctx, srv.URL, "topn", top.encode(), msgTopNResp)
	if !IsModelMiss(err) {
		t.Errorf("unknown model: got %v, want model-miss", err)
	}

	push := modelPush{FP: "m-lying-fingerprint", JSON: []byte(`{"version":1}`)}
	_, err = client.Call(ctx, srv.URL, "model", push.encode(), msgModelAck)
	if err == nil {
		t.Error("model push with wrong fingerprint accepted")
	}
}
