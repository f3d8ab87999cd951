package stream

import (
	"context"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
)

// liveHeap collects twice, so pooled objects leave the victim caches,
// and returns the bytes the last cycle found live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestIngestRefitsHoldHeapLevel is the memory soak of a long-running
// ingesting model: fifty background window refits over a sliding
// window, each from fresh records, must leave the live heap where the
// first ten left it. A refit that kept anything per refit — its
// window, its detector, a memo entry — would grow the heap by that
// much fifty times over.
func TestIngestRefitsHoldHeapLevel(t *testing.T) {
	const window, every, refits = 400, 100, 50
	m, err := NewMonitor(reference(window, 1), Options{Phi: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: window, RefitEvery: every}); err != nil {
		t.Fatal(err)
	}
	arrivals := reference(every*refits, 3)
	var buf []Alert
	heap := make([]uint64, refits)
	for i := range heap {
		rows := make([]int, every)
		for r := range rows {
			rows[r] = i*every + r
		}
		// Crossing RefitEvery starts one background refit; WaitIngest
		// returns once it has swapped the model.
		buf, err = m.IngestBatch(context.Background(), arrivals.SelectRows(rows), 1, buf)
		if err != nil {
			t.Fatal(err)
		}
		m.WaitIngest()
		heap[i] = liveHeap()
	}
	if st := m.IngestStats(); st.Refits != refits || st.RefitErrs != 0 {
		t.Fatalf("after %d batches: %+v", refits, st)
	}
	// A window's values alone; a leak of one per refit would grow the
	// heap by thirty or more of them between the two spans.
	windowBytes := uint64(window * arrivals.D() * 8)
	early, late := slices.Max(heap[10:20]), slices.Max(heap[40:])
	if late > early+8*windowBytes {
		t.Errorf("live heap grew from %d to %d bytes across refits 10–%d (a window is %d bytes): %v",
			early, late, refits-1, windowBytes, heap)
	}
}
