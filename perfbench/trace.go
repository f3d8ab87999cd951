package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer, in
// nanoseconds since the tracer's epoch. Parent 0 marks a root: one unit
// operation of the workload.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// aggregate stands in for many calls too short to span one by one, such
// as cube counts: their number and summed busy time under one parent.
type aggregate struct {
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Calls  int64  `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
}

// tracer keeps a run's spans in memory until the run ends. It is safe
// for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	spans []span
	aggs  []aggregate
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the current offset from the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openSpan is a span whose end has not been recorded yet.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(parent int, name, layer string) *openSpan {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Name: name, Layer: layer, Start: t.now()}}
}

// id is the span's identifier, for its children.
func (o *openSpan) id() int { return o.s.ID }

// end records the span and returns its duration.
func (o *openSpan) end() time.Duration {
	o.s.End = o.t.now()
	o.t.add(o.s)
	return time.Duration(o.s.End - o.s.Start)
}

// add records a finished span, assigning an ID when it has none.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// aggregate records calls too short to span individually.
func (t *tracer) aggregate(parent int, name, layer string, calls, busyNs int64) {
	if calls == 0 {
		return
	}
	t.mu.Lock()
	t.aggs = append(t.aggs, aggregate{Parent: parent, Name: name, Layer: layer, Calls: calls, BusyNs: busyNs})
	t.mu.Unlock()
}

// callStat accumulates an aggregated call kind.
type callStat struct{ calls, ns atomic.Int64 }

func (c *callStat) observe(start time.Time) {
	c.ns.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

// selfTimes attributes the time of every tree whose root is named root
// to layers: each span's self time is its duration minus the part its
// child spans cover and minus its aggregated calls' busy time; an
// aggregate's busy time belongs to its own layer. It returns nanoseconds
// per layer and the roots' summed duration.
func (t *tracer) selfTimes(root string) (map[string]int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int]span, len(t.spans))
	children := map[int][]interval{}
	for _, s := range t.spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	// rootOf follows parents up to the tree's root.
	rootOf := func(s span) span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	aggBusy := map[int]int64{}
	self := map[string]int64{}
	for _, a := range t.aggs {
		if p, ok := byID[a.Parent]; ok && rootOf(p).Name == root {
			aggBusy[a.Parent] += a.BusyNs
			self[a.Layer] += a.BusyNs
		}
	}
	var total int64
	for _, s := range t.spans {
		if rootOf(s).Name != root {
			continue
		}
		iv := interval{s.Start, s.End}
		own := iv.end - iv.start - covered(iv, children[s.ID]) - aggBusy[s.ID]
		if own < 0 {
			own = 0
		}
		self[s.Layer] += own
		if s.Parent == 0 {
			total += iv.end - iv.start
		}
	}
	return self, total
}

// reportSelf stores each layer's share of the root spans' time as
// self.<layer> and reports it.
func reportSelf(r *run, t *tracer, root string) {
	self, total := t.selfTimes(root)
	line := fmt.Sprintf("self time per layer under %q roots (%.1f ms total):", root, float64(total)/1e6)
	for _, l := range layers {
		share := ratio(float64(self[l]), float64(total))
		r.metrics["self."+l] = share
		if self[l] > 0 {
			line += fmt.Sprintf(" %s=%.3f", l, share)
		}
	}
	r.say("%s", line)
}

// write stores the spans and aggregates as JSON lines in dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return "", err
		}
	}
	for _, a := range t.aggs {
		if err := enc.Encode(a); err != nil {
			t.mu.Unlock()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// writeTrace writes the run's spans and reports where.
func writeTrace(r *run, o options, t *tracer) error {
	path, err := t.write(o.traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.say("spans written to %s", path)
	return nil
}
