package stream

import (
	"context"
	"testing"

	"hido/internal/dataset"
	"hido/internal/xrand"
)

// benchIngestMonitor fits a monitor on the shared correlated window
// and switches it into ingest mode with the given cadence.
func benchIngestMonitor(b *testing.B, window, refitEvery int) *Monitor {
	b.Helper()
	ds := reference(800, 40)
	m, err := NewMonitor(ds, Options{Phi: 5, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.EnableIngest(IngestOptions{Window: window, RefitEvery: refitEvery}); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkIngest measures the sustained per-record ingest cost:
// score-on-arrival plus the window append, which allocates nothing
// once the window is full. The norefit variant pins the steady-state
// hot path; the refit variant lets background refits fire every 2048
// records so their window copy (and nothing else — the fit itself runs
// concurrently) lands in the measured stream.
func BenchmarkIngest(b *testing.B) {
	rows := make([][]float64, 1024)
	r := xrand.New(7)
	for i := range rows {
		rows[i] = typical(r)
	}
	b.Run("record-norefit", func(b *testing.B) {
		m := benchIngestMonitor(b, 4096, 1<<30)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Ingest(rows[i%len(rows)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record-refit-2k", func(b *testing.B) {
		m := benchIngestMonitor(b, 4096, 2048)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Ingest(rows[i%len(rows)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		m.WaitIngest()
		st := m.IngestStats()
		b.ReportMetric(float64(st.Refits), "refits")
	})
	b.Run("batch-256", func(b *testing.B) {
		m := benchIngestMonitor(b, 4096, 1<<30)
		batch := dataset.New(dataset.GenericNames(8), 256)
		for i := 0; i < 256; i++ {
			batch.AppendRow(rows[i%len(rows)], "")
		}
		var buf []Alert
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			alerts, err := m.IngestBatch(context.Background(), batch, 0, buf)
			if err != nil {
				b.Fatal(err)
			}
			buf = alerts
		}
	})
}
