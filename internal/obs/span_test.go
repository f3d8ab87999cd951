package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeRecording(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Node: "select", Ring: 64})

	root := r.StartRoot("score", "trace-1")
	if root == nil {
		t.Fatal("StartRoot returned nil with sampling=1")
	}
	root.SetAttrInt("batch", 100)
	decode := root.Child("decode")
	decode.End()
	score := root.Child("score")
	rpc := score.Child("rpc:score")
	rpc.SetAttr("peer", "http://s1")
	rpc.End()
	score.End()
	root.End()

	spans := r.Trace("trace-1")
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for _, sd := range spans {
		if sd.TraceID != "trace-1" {
			t.Fatalf("span %q has trace %q", sd.Name, sd.TraceID)
		}
		if sd.Node != "select" {
			t.Fatalf("span %q has node %q", sd.Name, sd.Node)
		}
	}

	roots := BuildSpanTree(spans)
	if len(roots) != 1 || roots[0].Name != "score" {
		t.Fatalf("tree roots = %+v, want single root 'score'", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "decode" || kids[1].Name != "score" {
		t.Fatalf("root children = %+v, want [decode score]", kids)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "rpc:score" {
		t.Fatalf("score children = %+v, want [rpc:score]", kids[1].Children)
	}

	// Attrs marshal as a flat object.
	b, err := json.Marshal(kids[1].Children[0].Attrs)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"peer":"http://s1"}` {
		t.Fatalf("attrs JSON = %s", b)
	}
}

func TestSpanContinueJoinsTrace(t *testing.T) {
	sel := NewSpanRecorder(SpanRecorderConfig{Node: "select", Ring: 16})
	sto := NewSpanRecorder(SpanRecorderConfig{Node: "storage", Ring: 16})

	root := sel.StartRoot("score", "t1")
	rpc := root.Child("rpc:score")
	cont := sto.Continue("storage:score", rpc.Context())
	cont.End()
	rpc.End()
	root.End()

	all := append(sel.Trace("t1"), sto.Trace("t1")...)
	roots := BuildSpanTree(all)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1 (continuation should parent under the rpc span)", len(roots))
	}
	var rpcNode *SpanNode
	for _, c := range roots[0].Children {
		if c.Name == "rpc:score" {
			rpcNode = c
		}
	}
	if rpcNode == nil || len(rpcNode.Children) != 1 || rpcNode.Children[0].Node != "storage" {
		t.Fatalf("storage continuation not under rpc span: %+v", roots[0])
	}
}

// An inbound ID longer than MaxIDLen starts or continues no span; one
// at the bound does.
func TestSpanIDBound(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Node: "n", Ring: 16})
	ok, long := strings.Repeat("a", MaxIDLen), strings.Repeat("b", MaxIDLen+1)
	if s := r.StartRoot("root", long); s != nil {
		t.Error("StartRoot accepted a trace ID over MaxIDLen")
	}
	if s := r.Continue("cont", SpanContext{TraceID: long, SpanID: "s1"}); s != nil {
		t.Error("Continue accepted a trace ID over MaxIDLen")
	}
	if s := r.Continue("cont", SpanContext{TraceID: "t1", SpanID: long}); s != nil {
		t.Error("Continue accepted a parent span ID over MaxIDLen")
	}
	r.StartRoot("root", ok).End()
	r.Continue("cont", SpanContext{TraceID: ok, SpanID: ok}).End()
	if n := len(r.Trace(ok)); n != 2 {
		t.Errorf("IDs at MaxIDLen recorded %d spans, want 2", n)
	}
	if n := r.TotalSpans(); n != 2 {
		t.Errorf("recorded %d spans in all, want 2", n)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *SpanRecorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	s := r.StartRoot("x", "t")
	if s != nil {
		t.Fatal("nil recorder returned non-nil span")
	}
	// Every method must be a no-op on nil.
	s.SetAttr("k", "v")
	s.SetAttrInt("k", 1)
	s.SetPhase("p")
	c := s.Child("child")
	if c != nil {
		t.Fatal("nil span returned non-nil child")
	}
	if sc := s.Context(); sc != (SpanContext{}) {
		t.Fatalf("nil span context = %+v", sc)
	}
	if id := s.TraceID(); id != "" {
		t.Fatalf("nil span trace ID = %q", id)
	}
	s.End()
	if got := r.Trace("t"); got != nil {
		t.Fatalf("nil recorder Trace = %v", got)
	}
	if got := r.Recent(5); got != nil {
		t.Fatalf("nil recorder Recent = %v", got)
	}
	if got := r.Live(); got != nil {
		t.Fatalf("nil recorder Live = %v", got)
	}
	if got := r.TotalSpans(); got != 0 {
		t.Fatalf("nil recorder TotalSpans = %d", got)
	}
	if r.Continue("x", SpanContext{TraceID: "t"}) != nil {
		t.Fatal("nil recorder Continue returned span")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if ctx != context.Background() {
		t.Fatal("nil span changed the context")
	}
	if SpanFrom(ctx) != nil {
		t.Fatal("SpanFrom on bare context not nil")
	}
}

func TestSpanDisabledPathZeroAlloc(t *testing.T) {
	var r *SpanRecorder
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		s := r.StartRoot("score", "t")
		s.SetAttrInt("batch", 100)
		c := s.Child("decode")
		c.End()
		ctx2 := ContextWithSpan(ctx, s)
		_ = SpanFrom(ctx2)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f/op, want 0", allocs)
	}
}

func TestSpanSampling(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Ring: 16, Sample: 0.000001})
	sampledOut := 0
	for i := 0; i < 100; i++ {
		if r.StartRoot("x", "t") == nil {
			sampledOut++
		}
	}
	if sampledOut < 95 {
		t.Fatalf("sample=1e-6 recorded %d/100 roots", 100-sampledOut)
	}
	// Continuations ignore sampling: the root already decided.
	c := r.Continue("y", SpanContext{TraceID: "t2", SpanID: "s1"})
	if c == nil {
		t.Fatal("Continue was sampled out")
	}
	c.End()
	if got := r.Trace("t2"); len(got) != 1 || got[0].ParentID != "s1" {
		t.Fatalf("continuation spans = %+v", got)
	}
}

func TestSpanRingWrapAndRecent(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Ring: 8})
	for i := 0; i < 20; i++ {
		s := r.StartRoot("req", fmt.Sprintf("t%d", i))
		s.SetAttr("i", fmt.Sprint(i))
		s.End()
	}
	if got := r.TotalSpans(); got != 20 {
		t.Fatalf("TotalSpans = %d, want 20", got)
	}
	// Oldest traces were evicted.
	if got := r.Trace("t0"); got != nil {
		t.Fatalf("evicted trace still present: %+v", got)
	}
	last := r.Trace("t19")
	if len(last) != 1 || len(last[0].Attrs) != 1 || last[0].Attrs[0].Value != "19" {
		t.Fatalf("newest trace = %+v", last)
	}
	recent := r.Recent(3)
	if len(recent) != 3 || recent[0].TraceID != "t19" || recent[2].TraceID != "t17" {
		t.Fatalf("Recent(3) = %+v", recent)
	}
	all := r.Recent(100)
	if len(all) != 8 {
		t.Fatalf("Recent(100) returned %d traces, want ring size 8", len(all))
	}
}

func TestSpanLiveRequests(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Node: "n1", Ring: 8})
	a := r.StartRoot("score", "ta")
	time.Sleep(time.Millisecond)
	b := r.StartRoot("fit", "tb")
	b.SetPhase("gather")

	live := r.Live()
	if len(live) != 2 {
		t.Fatalf("Live = %d entries, want 2", len(live))
	}
	if live[0].TraceID != "ta" {
		t.Fatalf("oldest-first order violated: %+v", live)
	}
	if live[1].Phase != "gather" {
		t.Fatalf("phase not reported: %+v", live[1])
	}
	if live[0].AgeMS <= 0 {
		t.Fatalf("age not positive: %+v", live[0])
	}
	a.End()
	b.End()
	if got := r.Live(); len(got) != 0 {
		t.Fatalf("ended spans still live: %+v", got)
	}
}

// TestSpanRingConcurrent hammers one recorder from many goroutines —
// run under -race. Child spans, attrs, live snapshots and trace reads
// all interleave with ring wraps.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRecorder(SpanRecorderConfig{Node: "n", Ring: 32})
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				root := r.StartRoot("req", fmt.Sprintf("g%d-%d", g, i))
				root.SetAttrInt("iter", int64(i))
				c := root.Child("work")
				c.SetAttr("k", "v")
				c.End()
				root.End()
				if i%17 == 0 {
					_ = r.Recent(5)
					_ = r.Live()
					_ = r.Trace(fmt.Sprintf("g%d-%d", g, i))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.TotalSpans(); got != goroutines*iters*2 {
		t.Fatalf("TotalSpans = %d, want %d", got, goroutines*iters*2)
	}
	// Every retained slot must be internally consistent (attr copy not
	// shared with another slot).
	for _, ts := range r.Recent(32) {
		spans := r.Trace(ts.TraceID)
		for _, sd := range spans {
			if sd.TraceID != ts.TraceID {
				t.Fatalf("slot aliasing: span %+v under trace %s", sd, ts.TraceID)
			}
		}
	}
}

func TestBuildSpanTreeOrphans(t *testing.T) {
	// A span whose parent was evicted becomes a root rather than
	// disappearing.
	now := time.Now()
	spans := []SpanData{
		{TraceID: "t", SpanID: "b", ParentID: "missing", Name: "child", Start: now.Add(time.Millisecond)},
		{TraceID: "t", SpanID: "a", Name: "root", Start: now},
	}
	roots := BuildSpanTree(spans)
	if len(roots) != 2 || roots[0].Name != "root" || roots[1].Name != "child" {
		t.Fatalf("orphan handling wrong: %+v", roots)
	}
}

func TestTracerEmitAfterStickyError(t *testing.T) {
	fw := &failingWriter{failAfter: 1}
	tr := NewTracer(fw)
	tr.Emit("r", "a", map[string]any{"x": 1}) // succeeds
	tr.Emit("r", "b", map[string]any{"x": 2}) // write fails → sticky
	if tr.Err() == nil {
		t.Fatal("expected sticky error")
	}
	writes := fw.writes
	// Subsequent emits must be dropped before encoding: no more writes,
	// and (checked separately) no allocations.
	tr.Emit("r", "c", map[string]any{"x": 3})
	if fw.writes != writes {
		t.Fatal("emit after sticky error reached the writer")
	}
	allocs := testing.AllocsPerRun(50, func() {
		tr.Emit("r", "d", map[string]any{"x": 4})
	})
	if allocs != 0 {
		t.Fatalf("dead tracer Emit allocates %.1f/op, want 0", allocs)
	}
}

type failingWriter struct {
	writes    int
	failAfter int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, fmt.Errorf("boom")
	}
	return len(p), nil
}
