package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"hido/internal/metrics"
	"hido/internal/obs"
)

// ClientConfig tunes the peer client. The zero value gets sane
// defaults.
type ClientConfig struct {
	// Timeout is the per-attempt deadline for one RPC. Default 5s.
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried (network
	// errors and 5xx only — a 4xx is the shard's answer, not noise).
	// Default 2; negative means no retries.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// attempt, capped at maxBackoffFactor× this value, with ±25% jitter
	// so peers that failed together do not retry together. Default 50ms.
	Backoff time.Duration
	// Logger receives per-failure structured logs; nil discards.
	Logger *slog.Logger
	// Metrics, when set, receives per-peer RPC counters/latency.
	Metrics *Metrics
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff == 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Metrics is the select-side cluster metrics bundle, registered on
// the serving registry so /metrics on the select node exposes the
// fan-out's health next to the request metrics.
type Metrics struct {
	RPCs     *metrics.Counter   // hidod_cluster_rpc_total{peer,rpc,outcome}
	Retries  *metrics.Counter   // hidod_cluster_rpc_retries_total{peer,rpc}
	Latency  *metrics.Histogram // hidod_cluster_rpc_seconds{peer,rpc}
	Partials *metrics.Counter   // hidod_cluster_partial_responses_total
	Fallback *metrics.Counter   // hidod_cluster_local_fallback_chunks_total
	Peers    *metrics.Gauge     // hidod_cluster_peers
}

// NewMetrics registers the cluster RPC series on a metrics registry.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		RPCs: reg.Counter("hidod_cluster_rpc_total",
			"Storage RPC attempts issued by the select node, by peer, rpc and outcome.",
			"peer", "rpc", "outcome"),
		Retries: reg.Counter("hidod_cluster_rpc_retries_total",
			"Storage RPC retries issued after failed attempts, by peer and rpc.",
			"peer", "rpc"),
		Latency: reg.Histogram("hidod_cluster_rpc_seconds",
			"Storage RPC latency in seconds (successful attempts), by peer and rpc.",
			nil, "peer", "rpc"),
		Partials: reg.Counter("hidod_cluster_partial_responses_total",
			"Fan-out responses served in degraded partial mode (a quorum, not all, of shards answered)."),
		Fallback: reg.Counter("hidod_cluster_local_fallback_chunks_total",
			"Score chunks scored locally on the select node after their storage peer failed."),
		Peers: reg.Gauge("hidod_cluster_peers",
			"Configured storage peers."),
	}
}

// StatusError is a non-200 RPC answer: the shard spoke, the request
// was the problem. It is never retried.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: peer answered %d: %s", e.Code, strings.TrimSpace(e.Msg))
}

// IsModelMiss reports whether an RPC failed because the shard lacks
// the model replica (HTTP 412) — the coordinator's cue to push the
// model and retry.
func IsModelMiss(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusPreconditionFailed
}

// IsGridMiss reports whether an RPC failed because the shard lacks
// the pushed grid (HTTP 409 on count/cover paths).
func IsGridMiss(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusConflict
}

// Trace context rides beside the hcp1 frame as two HTTP request
// headers, so a traced RPC sends the same frame bytes as an untraced
// one and a peer that does not trace ignores headers it does not
// know: old and new peers interoperate in both directions with no
// negotiation.
const (
	traceHeader  = "X-Trace-Id"
	parentHeader = "X-Parent-Span"
)

// Client issues framed RPCs to storage peers with per-peer attempt
// timeouts, bounded retries with exponential backoff, and in-flight
// tracking for graceful drain. When the calling context carries a
// span (obs.SpanFrom), every attempt gets a child span whose trace
// and span IDs travel in the trace headers.
type Client struct {
	cfg   ClientConfig
	httpc *http.Client
	wg    sync.WaitGroup

	// jitter yields a uniform value in [0,1) for retry-delay spreading;
	// swapped for a deterministic source in tests.
	jitter func() float64
}

// NewClient builds a peer client.
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, httpc: &http.Client{}, jitter: rand.Float64}
}

// maxBackoffFactor caps the exponential retry backoff at this multiple
// of the configured initial delay: a caller-raised Retries budget then
// degrades into steady polling instead of unbounded multi-second waits.
const maxBackoffFactor = 8

// retryDelay returns the sleep before retry n (1-based): exponential
// doubling from the configured base, capped at maxBackoffFactor× it,
// then spread by ±25% jitter so synchronized failures do not produce
// synchronized retry stampedes.
func (c *Client) retryDelay(n int) time.Duration {
	d := c.cfg.Backoff
	for i := 1; i < n && d < maxBackoffFactor*c.cfg.Backoff; i++ {
		d *= 2
	}
	if capped := maxBackoffFactor * c.cfg.Backoff; d > capped {
		d = capped
	}
	return time.Duration(float64(d) * (0.75 + 0.5*c.jitter()))
}

// Call posts one request frame to peer's rpc endpoint and returns the
// response frame payload after verifying its type. Transport errors
// and 5xx answers are retried with backoff up to the configured
// budget; 4xx answers return a *StatusError immediately.
func (c *Client) Call(ctx context.Context, peer, rpc string, reqFrame []byte, wantResp msgType) ([]byte, error) {
	c.wg.Add(1)
	defer c.wg.Done()

	// Each attempt — including every retry — gets its own child span of
	// whatever span the request context carries, so a retried RPC shows
	// up in the trace as distinct attempts with their own durations.
	// parent is nil when tracing is off; all span calls are then no-ops.
	parent := obs.SpanFrom(ctx)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if c.cfg.Metrics != nil {
				c.cfg.Metrics.Retries.Inc(peer, rpc)
			}
			select {
			case <-time.After(c.retryDelay(attempt)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		start := time.Now()
		sp := parent.Child("rpc:" + rpc)
		sp.SetAttr("peer", peer)
		sp.SetAttrInt("attempt", int64(attempt+1))
		payload, err := c.attempt(ctx, peer, rpc, reqFrame, wantResp, sp.Context())
		if err == nil {
			sp.End()
			if c.cfg.Metrics != nil {
				c.cfg.Metrics.RPCs.Inc(peer, rpc, "ok")
				c.cfg.Metrics.Latency.Observe(time.Since(start).Seconds(), peer, rpc)
			}
			return payload, nil
		}
		sp.SetAttr("error", err.Error())
		sp.End()
		lastErr = err
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.RPCs.Inc(peer, rpc, "error")
		}
		c.cfg.Logger.Warn("storage rpc failed", "peer", peer, "rpc", rpc,
			"attempt", attempt+1, "error", err)
		var se *StatusError
		if errors.As(err, &se) && se.Code < 500 {
			return nil, err // the shard's verdict, not transient noise
		}
		if ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cluster: %s %s failed after %d attempts: %w",
		peer, rpc, c.cfg.Retries+1, lastErr)
}

// attempt runs one RPC exchange under the per-attempt timeout:
// request frame out, response frame (or *StatusError) back. A traced
// call (non-empty sc) sets the trace headers.
func (c *Client) attempt(ctx context.Context, peer, rpc string, reqFrame []byte, wantResp msgType, sc obs.SpanContext) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		peer+"/rpc/v1/"+rpc, bytes.NewReader(reqFrame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if sc.TraceID != "" {
		req.Header.Set(traceHeader, sc.TraceID)
		req.Header.Set(parentHeader, sc.SpanID)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxFramePayload+64))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Msg: string(respBody)}
	}
	t, payload, err := decodeFrame(respBody)
	if err != nil {
		return nil, err
	}
	if t != wantResp {
		return nil, fmt.Errorf("cluster: peer %s answered type %d, want %d", peer, t, wantResp)
	}
	return payload, nil
}

// Drain blocks until every in-flight RPC has completed, or ctx
// expires. The select node calls it during graceful shutdown, after
// the HTTP listener has drained, so no fan-out is abandoned mid-merge.
func (c *Client) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { defer close(done); c.wg.Wait() }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
