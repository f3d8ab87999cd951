package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"hido/internal/dataset"
	"hido/internal/stream"
)

// scoreArena is the request-scoped scratch behind POST /api/v1/score:
// every buffer the hot path needs — raw body, decoded dataset, alert
// and result slices, response encoding — lives here and is recycled
// through a sync.Pool, so a steady stream of score requests settles
// into zero allocations per request on the binary batch format.
//
// An arena is owned by exactly one request at a time; nothing in it
// may outlive the request that holds it (the fit path, whose dataset
// escapes into a background goroutine, decodes with a nil arena and
// gets fresh allocations).
type scoreArena struct {
	// body accumulates the raw request body for the binary batch
	// format.
	body bytes.Buffer
	// scan is the initial bufio.Scanner buffer for JSON-lines bodies.
	scan []byte
	// values is the per-line JSON record scratch; json.Unmarshal reuses
	// both the slice backing and the pointees across lines and requests.
	values []*float64
	// row is the per-record feature scratch shared by the decoders.
	row []float64
	// ds is the reused dataset every decode path fills.
	ds *dataset.Dataset
	// alerts and results recycle the scoring output, including each
	// alert's Matches backing array.
	alerts  []stream.Alert
	results []stream.RecordResult
	// out buffers the encoded response; enc is permanently bound to it.
	out bytes.Buffer
	enc *json.Encoder
}

func newScoreArena() *scoreArena {
	a := &scoreArena{}
	a.enc = json.NewEncoder(&a.out)
	return a
}

// arenaPool is shared across servers: arenas hold no per-server state.
var arenaPool = sync.Pool{New: func() any { return newScoreArena() }}

// dst returns the arena's reusable dataset (nil for a nil arena, which
// makes the decoders allocate fresh).
func (ar *scoreArena) dst() *dataset.Dataset {
	if ar == nil {
		return nil
	}
	return ar.ds
}

// keep records the dataset a decode produced so the next request on
// this arena reuses its storage.
func (ar *scoreArena) keep(ds *dataset.Dataset) *dataset.Dataset {
	if ar != nil {
		ar.ds = ds
	}
	return ds
}

// writeJSONArena is writeJSON encoding through the arena's reusable
// buffer; the bytes written are identical to writeJSON's.
func writeJSONArena(w http.ResponseWriter, ar *scoreArena, code int, v any) {
	ar.out.Reset()
	if err := ar.enc.Encode(v); err != nil {
		// scoreResponse cannot fail to marshal; fall back defensively.
		writeJSON(w, code, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(ar.out.Bytes())
}
