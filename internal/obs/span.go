package obs

import (
	"context"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the distributed-tracing half of the observability
// layer: a span model on top of the request-ID plumbing. A request
// produces one trace — a tree of spans named by trace ID — whose root
// the serving middleware opens, whose children mark request phases
// (decode, score, encode) and per-peer cluster RPCs, and whose
// storage-side spans are continued on other nodes from the trace
// context carried in the RPC's HTTP headers.
//
// Two contracts mirror the Observer design:
//
//   - A nil *SpanRecorder (tracing disabled, the default) costs
//     nothing: every method is nil-safe, returns a nil *Span whose
//     methods are also nil-safe no-ops, and allocates nothing — the
//     serving hot path keeps its allocation budget with tracing
//     compiled in but disabled.
//   - Completed spans land in a fixed-size ring with pooled span
//     scratch, so steady traced traffic reuses the same memory: the
//     ring can drop history (oldest first), never grow without bound.

// SpanContext is the cross-process half of a span: the trace it
// belongs to and the span ID a remote continuation should use as its
// parent. It travels in HTTP headers.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// MaxIDLen bounds the trace and span IDs a recorder accepts from
// outside; real IDs are ~20 bytes. A longer inbound ID is not an
// error: the request is served and the trace is not recorded.
const MaxIDLen = 256

// SpanAttr is one key-value annotation on a span. Values are strings
// so the wire form and the JSON form stay trivial.
type SpanAttr struct {
	Key   string
	Value string
}

// SpanAttrs marshals as a flat JSON object, keeping debug-endpoint
// output jq-friendly ({"peer":"http://...","attempt":"2"}).
type SpanAttrs []SpanAttr

// MarshalJSON renders the attrs as one object in insertion order.
func (a SpanAttrs) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16*len(a)+2)
	b = append(b, '{')
	for i, kv := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, kv.Key)
		b = append(b, ':')
		b = strconv.AppendQuote(b, kv.Value)
	}
	return append(b, '}'), nil
}

// SpanData is one completed span: the storage, wire and JSON form.
type SpanData struct {
	TraceID  string    `json:"trace"`
	SpanID   string    `json:"span"`
	ParentID string    `json:"parent,omitempty"`
	Name     string    `json:"name"`
	Node     string    `json:"node,omitempty"`
	Start    time.Time `json:"start"`
	DurMS    float64   `json:"duration_ms"`
	Attrs    SpanAttrs `json:"attrs,omitempty"`
}

// Span is one in-flight operation. Create roots and continuations
// through a SpanRecorder, children through Child, and complete with
// End — an unended span never reaches the ring (roots do appear in
// the live view). All methods are safe on a nil receiver and safe for
// concurrent use.
type Span struct {
	rec  *SpanRecorder
	root bool

	mu    sync.Mutex
	data  SpanData
	phase string // most recent child name; the live view's "where is it now"
}

// SpanRecorderConfig tunes a recorder.
type SpanRecorderConfig struct {
	// Node labels every span this recorder produces (e.g. "select
	// :8080"), so a cross-node trace says which process ran what.
	Node string
	// Ring is how many completed spans are retained (default 4096).
	Ring int
	// Sample is the fraction of new traces recorded, in [0,1]
	// (default 1). Continuations are never re-sampled: the root's
	// decision rides the trace context, so a trace is whole or absent.
	Sample float64
}

// SpanRecorder records completed spans into a fixed ring and tracks
// live root spans. The zero value is not usable; nil means tracing
// disabled and is a valid, zero-cost receiver for every method.
type SpanRecorder struct {
	node   string
	sample float64
	ids    *IDSource

	pool sync.Pool // *Span

	mu    sync.Mutex
	ring  []SpanData // fixed capacity, len == cap once warmed
	next  int        // ring write cursor
	total uint64     // completed spans ever recorded

	liveMu sync.Mutex
	live   map[*Span]struct{}
}

// NewSpanRecorder builds a recorder.
func NewSpanRecorder(cfg SpanRecorderConfig) *SpanRecorder {
	if cfg.Ring <= 0 {
		cfg.Ring = 4096
	}
	if cfg.Sample <= 0 {
		cfg.Sample = 1
	}
	r := &SpanRecorder{
		node:   cfg.Node,
		sample: cfg.Sample,
		ids:    NewIDSource("s"),
		ring:   make([]SpanData, 0, cfg.Ring),
		live:   map[*Span]struct{}{},
	}
	r.pool.New = func() any { return new(Span) }
	return r
}

// Enabled reports whether spans are being recorded at all.
func (r *SpanRecorder) Enabled() bool { return r != nil }

// Node returns the recorder's node label ("" for nil).
func (r *SpanRecorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// sampled decides once per new trace.
func (r *SpanRecorder) sampled() bool {
	return r.sample >= 1 || rand.Float64() < r.sample
}

// start initializes a pooled span. The attrs backing survives pool
// round-trips, so steady traced traffic settles into ring-slot reuse.
func (r *SpanRecorder) start(name, traceID, parentID string, root bool) *Span {
	s := r.pool.Get().(*Span)
	s.rec = r
	s.root = root
	s.phase = ""
	s.data = SpanData{
		TraceID:  traceID,
		SpanID:   r.ids.Next(),
		ParentID: parentID,
		Name:     name,
		Node:     r.node,
		Start:    time.Now(),
		Attrs:    s.data.Attrs[:0],
	}
	if root {
		r.liveMu.Lock()
		r.live[s] = struct{}{}
		r.liveMu.Unlock()
	}
	return s
}

// StartRoot opens the root span of a new trace, subject to sampling.
// traceID is the caller's correlation ID (the request ID, or an
// inbound X-Trace-Id); it must be non-empty and at most MaxIDLen
// bytes. Returns nil — record nothing, cost nothing — when the
// recorder is nil, the ID is empty or too long, or the trace is
// sampled out.
func (r *SpanRecorder) StartRoot(name, traceID string) *Span {
	if r == nil || traceID == "" || len(traceID) > MaxIDLen || !r.sampled() {
		return nil
	}
	return r.start(name, traceID, "", true)
}

// Continue joins a trace started on another node: the incoming trace
// context names the trace and the remote parent span. Sampling was
// the root's call — an arriving context means the trace is recorded.
// The continuation counts as a live request on this node too. A
// context with no trace ID, or with an ID longer than MaxIDLen,
// records nothing.
func (r *SpanRecorder) Continue(name string, sc SpanContext) *Span {
	if r == nil || sc.TraceID == "" || len(sc.TraceID) > MaxIDLen || len(sc.SpanID) > MaxIDLen {
		return nil
	}
	return r.start(name, sc.TraceID, sc.SpanID, true)
}

// Child opens a sub-span of s and advances s's live phase to the
// child's name. Nil-safe: a nil parent yields a nil child.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.phase = name
	tid, sid := s.data.TraceID, s.data.SpanID
	s.mu.Unlock()
	return s.rec.start(name, tid, sid, false)
}

// Context returns the span's cross-process trace context (zero for
// nil): remote continuations parent onto this span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID}
}

// TraceID returns the span's trace ID ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data.TraceID
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, SpanAttr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value. Nil-safe.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, SpanAttr{Key: key, Value: strconv.FormatInt(value, 10)})
	s.mu.Unlock()
}

// SetPhase sets the live view's phase label directly (Child does it
// implicitly). Nil-safe.
func (s *Span) SetPhase(phase string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

// End completes the span: its data is copied into the recorder's
// ring (overwriting the oldest entry once full) and the span object
// returns to the pool. Nil-safe. A span must not be used after End.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	s.mu.Lock()
	s.data.DurMS = float64(time.Since(s.data.Start).Microseconds()) / 1000
	data := s.data
	root := s.root
	s.mu.Unlock()

	if root {
		r.liveMu.Lock()
		delete(r.live, s)
		r.liveMu.Unlock()
	}

	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, SpanData{})
	}
	slot := &r.ring[r.next]
	attrs := slot.Attrs[:0] // reuse the evicted slot's attr backing
	*slot = data
	slot.Attrs = append(attrs, data.Attrs...)
	r.next = (r.next + 1) % cap(r.ring)
	r.total++
	r.mu.Unlock()

	// data.Attrs stays with the span for reuse; the slot holds a copy.
	r.pool.Put(s)
}

// Trace returns the completed spans of one trace, oldest first.
// Returns nil for a nil recorder or an unknown (or evicted) trace.
func (r *SpanRecorder) Trace(traceID string) []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanData
	for i := range r.ring {
		if r.ring[i].TraceID == traceID {
			out = append(out, cloneSpan(r.ring[i]))
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out
}

// cloneSpan copies a ring slot so callers never alias the reused
// attr backing.
func cloneSpan(s SpanData) SpanData {
	s.Attrs = append(SpanAttrs(nil), s.Attrs...)
	return s
}

// TraceSummary is one row of the recent-traces listing.
type TraceSummary struct {
	TraceID string    `json:"trace"`
	Name    string    `json:"name"` // root span name when retained, else first seen
	Node    string    `json:"node"`
	Start   time.Time `json:"start"`
	DurMS   float64   `json:"duration_ms"`
	Spans   int       `json:"spans"`
}

// Recent lists the most recently completed traces, newest first, at
// most limit (default 20). A trace is summarized by its root span
// when the ring still holds it, by its earliest retained span
// otherwise.
func (r *SpanRecorder) Recent(limit int) []TraceSummary {
	if r == nil {
		return nil
	}
	if limit <= 0 {
		limit = 20
	}
	r.mu.Lock()
	byTrace := make(map[string]*TraceSummary)
	order := make([]string, 0, 16)
	// Walk the ring oldest → newest so later spans refresh recency.
	n := len(r.ring)
	for i := 0; i < n; i++ {
		sd := &r.ring[(r.next+i)%n]
		if sd.TraceID == "" {
			continue
		}
		ts, ok := byTrace[sd.TraceID]
		if !ok {
			ts = &TraceSummary{TraceID: sd.TraceID, Name: sd.Name, Node: sd.Node, Start: sd.Start, DurMS: sd.DurMS}
			byTrace[sd.TraceID] = ts
			order = append(order, sd.TraceID)
		}
		ts.Spans++
		if sd.ParentID == "" || sd.Start.Before(ts.Start) {
			ts.Name, ts.Node, ts.Start, ts.DurMS = sd.Name, sd.Node, sd.Start, sd.DurMS
		}
	}
	r.mu.Unlock()
	out := make([]TraceSummary, 0, len(order))
	for i := len(order) - 1; i >= 0 && len(out) < limit; i-- {
		out = append(out, *byTrace[order[i]])
	}
	return out
}

// LiveRequest is one in-flight root span: what the node is doing
// right now.
type LiveRequest struct {
	TraceID string    `json:"trace"`
	SpanID  string    `json:"span"`
	Name    string    `json:"name"`
	Node    string    `json:"node,omitempty"`
	Phase   string    `json:"phase,omitempty"`
	Start   time.Time `json:"start"`
	AgeMS   float64   `json:"age_ms"`
}

// Live snapshots the in-flight root spans, oldest first — the
// longest-running request leads, since it is the one an operator is
// hunting.
func (r *SpanRecorder) Live() []LiveRequest {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.liveMu.Lock()
	out := make([]LiveRequest, 0, len(r.live))
	for s := range r.live {
		s.mu.Lock()
		out = append(out, LiveRequest{
			TraceID: s.data.TraceID,
			SpanID:  s.data.SpanID,
			Name:    s.data.Name,
			Node:    s.data.Node,
			Phase:   s.phase,
			Start:   s.data.Start,
			AgeMS:   float64(now.Sub(s.data.Start).Microseconds()) / 1000,
		})
		s.mu.Unlock()
	}
	r.liveMu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out
}

// TotalSpans returns how many spans have completed into the ring
// (including since-evicted ones); 0 for nil.
func (r *SpanRecorder) TotalSpans() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// SpanNode is a span with its children — the tree form the debug
// endpoints serve.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree assembles spans (from any mix of nodes) into forest
// form: children sorted by start time under their parents, spans
// whose parent is missing (evicted, or still in flight) promoted to
// roots. The root of a healthy trace is the span with no parent ID.
func BuildSpanTree(spans []SpanData) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	for _, sd := range spans {
		nodes[sd.SpanID] = &SpanNode{SpanData: sd}
	}
	var roots []*SpanNode
	for _, sd := range spans {
		n := nodes[sd.SpanID]
		if p, ok := nodes[sd.ParentID]; ok && sd.ParentID != sd.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(n *SpanNode)
	sortKids = func(n *SpanNode) {
		sort.SliceStable(n.Children, func(a, b int) bool {
			return n.Children[a].Start.Before(n.Children[b].Start)
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	sort.SliceStable(roots, func(a, b int) bool { return roots[a].Start.Before(roots[b].Start) })
	for _, r := range roots {
		sortKids(r)
	}
	return roots
}

// spanKey carries the active span through a request context.
type spanKey struct{}

// ContextWithSpan attaches a span to the context; a nil span returns
// ctx unchanged so the disabled path allocates nothing.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's active span, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
