// Package cluster is hido's sharded serving and fitting subsystem: a
// set of storage nodes that each own a disjoint row shard, and a
// select node (the coordinator) that fans requests out to them and
// merges the partial answers deterministically.
//
// The design exploits the one property that makes the paper's method
// data-parallel for free: the sparsity coefficient (Equation 1) is a
// pure function of cube *counts*, and cube counts are additive across
// disjoint row shards. A coordinator that sums per-shard counts
// through the core.CountSource seam therefore reproduces a
// single-node search bit for bit on the concatenated data — no
// approximation, no re-tuning.
//
// Nodes speak a compact length-prefixed binary protocol carried as
// HTTP POST bodies under /rpc/v1/. Binary framing (rather than JSON)
// keeps float64 payloads exact — NaN encodes its IEEE bits, so
// missing attributes survive the wire — and makes hostile-input
// limits enforceable at the decoder: every length prefix is checked
// against the bytes actually present before anything is allocated.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hido/internal/cube"
	"hido/internal/discretize"
	"hido/internal/obs"
	"hido/internal/server"
)

// Frame layout: 4-byte magic, 1-byte message type, 4-byte big-endian
// payload length, payload. The magic rejects accidental cross-wiring
// (a JSON API client hitting an RPC path) before any parsing happens.
const frameMagic = "hcp1"

// Decode limits. Every limit is enforced before allocation, so a
// hostile frame can never make a node allocate more than its actual
// byte size.
const (
	maxFramePayload = 64 << 20 // one frame's payload
	maxWireString   = 1 << 20  // any single string field
	maxWireDims     = 4096     // dimensions per record/cube
)

type msgType uint8

const (
	msgInfoReq msgType = iota + 1
	msgInfoResp
	msgRowsReq
	msgRowsResp
	msgGridReq
	msgGridAck
	msgCountReq
	msgCountResp
	msgCoverReq
	msgCoverResp
	msgModelPush
	msgModelAck
	msgScoreReq
	msgScoreResp
	msgTopNReq
	msgTopNResp
	msgTraceReq
	msgTraceResp
	msgTypeEnd // sentinel: first invalid type
)

// encodeFrame wraps a payload in the wire framing.
func encodeFrame(t msgType, payload []byte) []byte {
	out := make([]byte, 0, len(frameMagic)+5+len(payload))
	out = append(out, frameMagic...)
	out = append(out, byte(t))
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// decodeFrame validates the framing and returns the message type and
// payload. The payload aliases b.
func decodeFrame(b []byte) (msgType, []byte, error) {
	if len(b) < len(frameMagic)+5 {
		return 0, nil, fmt.Errorf("cluster: frame truncated (%d bytes)", len(b))
	}
	if string(b[:len(frameMagic)]) != frameMagic {
		return 0, nil, fmt.Errorf("cluster: bad frame magic")
	}
	t := msgType(b[len(frameMagic)])
	if t == 0 || t >= msgTypeEnd {
		return 0, nil, fmt.Errorf("cluster: unknown message type %d", t)
	}
	n := binary.BigEndian.Uint32(b[len(frameMagic)+1:])
	payload := b[len(frameMagic)+5:]
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("cluster: declared payload %d exceeds limit %d", n, maxFramePayload)
	}
	if int(n) != len(payload) {
		return 0, nil, fmt.Errorf("cluster: declared payload %d bytes, frame carries %d", n, len(payload))
	}
	return t, payload, nil
}

// enc builds a payload with fixed-width big-endian primitives.
type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)  { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
}

// dec consumes a payload, recording the first violation instead of
// panicking: all getters return zero values after a failure, and the
// caller checks err() once at the end. Length prefixes are validated
// against the bytes that remain, never trusted for allocation sizes.
type dec struct {
	b    []byte
	off  int
	fail string
}

func (d *dec) bad(format string, args ...any) {
	if d.fail == "" {
		d.fail = fmt.Sprintf(format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.fail != "" {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.bad("payload truncated at offset %d (want %d more bytes)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str(max int) string {
	n := d.u32()
	if int64(n) > int64(max) {
		d.bad("string of %d bytes exceeds limit %d", n, max)
		return ""
	}
	return string(d.take(int(n)))
}

// count reads a u32 element count and validates it against the bytes
// remaining (elemSize is the minimum encoding of one element), so a
// huge declared count on a short payload fails before allocation.
func (d *dec) count(elemSize int, what string) int {
	n := d.u32()
	if d.fail != "" {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(d.remaining()) {
		d.bad("%s count %d exceeds payload (%d bytes left)", what, n, d.remaining())
		return 0
	}
	return int(n)
}

func (d *dec) err() error {
	if d.fail != "" {
		return fmt.Errorf("cluster: %s", d.fail)
	}
	if d.remaining() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after payload", d.remaining())
	}
	return nil
}

// dims reads a dimension count shared by several messages.
func (d *dec) dims() int {
	v := d.u32()
	if d.fail != "" {
		return 0
	}
	if v == 0 || v > maxWireDims {
		d.bad("dimension count %d outside [1,%d]", v, maxWireDims)
		return 0
	}
	return int(v)
}

// ---- info ----

// infoResp describes a storage node's shard: row count, attribute
// names, and the shard data fingerprint the coordinator uses as the
// compatibility check when pushing grids.
type infoResp struct {
	N           int
	Names       []string
	Fingerprint string
}

func (m *infoResp) encode() []byte {
	var e enc
	e.u32(uint32(m.N))
	e.u32(uint32(len(m.Names)))
	for _, s := range m.Names {
		e.str(s)
	}
	e.str(m.Fingerprint)
	return encodeFrame(msgInfoResp, e.b)
}

func (m *infoResp) decode(p []byte) error {
	d := dec{b: p}
	m.N = int(d.u32())
	nd := d.count(4, "name")
	if nd > maxWireDims {
		d.bad("name count %d exceeds %d dims", nd, maxWireDims)
	}
	if d.fail == "" {
		m.Names = make([]string, nd)
		for i := range m.Names {
			m.Names[i] = d.str(maxWireString)
		}
	}
	m.Fingerprint = d.str(maxWireString)
	return d.err()
}

// ---- rows ----

// rowsResp carries a shard's raw records row-major; the coordinator
// gathers them transiently to place exact global equi-depth cuts.
type rowsResp struct {
	N, D   int
	Values []float64 // len N*D, row-major; NaN = missing
}

func (m *rowsResp) encode() []byte {
	var e enc
	e.u32(uint32(m.N))
	e.u32(uint32(m.D))
	for _, v := range m.Values {
		e.f64(v)
	}
	return encodeFrame(msgRowsResp, e.b)
}

func (m *rowsResp) decode(p []byte) error {
	d := dec{b: p}
	m.N = int(d.u32())
	m.D = d.dims()
	if d.fail == "" {
		if need := int64(m.N) * int64(m.D) * 8; need != int64(d.remaining()) {
			d.bad("rows payload carries %d bytes for %dx%d values", d.remaining(), m.N, m.D)
		}
	}
	if d.fail == "" {
		m.Values = make([]float64, m.N*m.D)
		for i := range m.Values {
			m.Values[i] = d.f64()
		}
	}
	return d.err()
}

// ---- grid ----

// gridReq pushes a discretization onto a shard: the coordinator's
// globally fitted cut points plus the data fingerprint it believes the
// shard holds. The shard discretizes its rows under the cuts and
// builds its bitmap index, keyed by GridID.
type gridReq struct {
	GridID string
	DataFP string
	Phi    int
	Cuts   [][]float64 // D × (Phi-1) ascending boundaries
}

func (m *gridReq) encode() []byte {
	var e enc
	e.str(m.GridID)
	e.str(m.DataFP)
	e.u32(uint32(m.Phi))
	e.u32(uint32(len(m.Cuts)))
	for _, c := range m.Cuts {
		for _, v := range c {
			e.f64(v)
		}
	}
	return encodeFrame(msgGridReq, e.b)
}

func (m *gridReq) decode(p []byte) error {
	d := dec{b: p}
	m.GridID = d.str(maxWireString)
	m.DataFP = d.str(maxWireString)
	m.Phi = int(d.u32())
	if d.fail == "" {
		if err := discretize.CheckPhi(m.Phi); err != nil {
			d.bad("%v", err)
		}
	}
	nd := d.dims()
	if d.fail == "" {
		if need := int64(nd) * int64(m.Phi-1) * 8; need != int64(d.remaining()) {
			d.bad("grid payload carries %d bytes for %d dims of %d cuts", d.remaining(), nd, m.Phi-1)
		}
	}
	if d.fail == "" {
		m.Cuts = make([][]float64, nd)
		for j := range m.Cuts {
			c := make([]float64, m.Phi-1)
			for i := range c {
				c[i] = d.f64()
				// A model file's rule: every cut finite, the cuts
				// non-decreasing. discretize.FromCuts panics on the
				// rest.
				if math.IsNaN(c[i]) || math.IsInf(c[i], 0) {
					d.bad("dimension %d cut %d is %v", j, i, c[i])
				} else if i > 0 && c[i] < c[i-1] {
					d.bad("dimension %d cuts not non-decreasing at %d (%v < %v)", j, i, c[i], c[i-1])
				}
			}
			m.Cuts[j] = c
		}
	}
	return d.err()
}

// ---- count ----

// countReq asks a shard for the cardinality of each cube on one of
// its pushed grids — the scatter half of the distributed search; the
// coordinator sums the per-shard answers.
type countReq struct {
	GridID string
	D      int
	Cubes  []cube.Cube
}

func (m *countReq) encode() []byte { return m.encodeAs(msgCountReq) }

// encodeAs frames the cube list as message type t; count and cover
// requests share the layout.
func (m *countReq) encodeAs(t msgType) []byte {
	var e enc
	e.str(m.GridID)
	e.u32(uint32(m.D))
	e.u32(uint32(len(m.Cubes)))
	for _, c := range m.Cubes {
		for _, r := range c {
			e.u16(r)
		}
	}
	return encodeFrame(t, e.b)
}

func (m *countReq) decode(p []byte) error {
	d := dec{b: p}
	m.GridID = d.str(maxWireString)
	m.D = d.dims()
	if d.fail == "" {
		nc := d.count(2*m.D, "cube")
		if d.fail == "" {
			// One backing array for the whole list: a count round
			// carries thousands of cubes.
			flat := make([]uint16, nc*m.D)
			for i := range flat {
				flat[i] = d.u16()
			}
			m.Cubes = make([]cube.Cube, nc)
			for i := range m.Cubes {
				m.Cubes[i] = flat[i*m.D : (i+1)*m.D : (i+1)*m.D]
			}
		}
	}
	return d.err()
}

type countResp struct {
	Counts []int
}

func (m *countResp) encode() []byte {
	var e enc
	e.u32(uint32(len(m.Counts)))
	for _, n := range m.Counts {
		e.u64(uint64(n))
	}
	return encodeFrame(msgCountResp, e.b)
}

func (m *countResp) decode(p []byte) error {
	d := dec{b: p}
	n := d.count(8, "count")
	if d.fail == "" {
		m.Counts = make([]int, n)
		for i := range m.Counts {
			v := d.u64()
			if v > math.MaxInt32 {
				d.bad("count %d exceeds any plausible shard size", v)
				break
			}
			m.Counts[i] = int(v)
		}
	}
	return d.err()
}

// ---- cover ----

// coverReq asks for the local row indices inside each cube of a list —
// one §2.3 postprocessing pass in one request; the coordinator offsets
// them into the global row order. Its layout is countReq's, and the
// storage node decodes both as countReq.
type coverReq countReq

func (m *coverReq) encode() []byte        { return (*countReq)(m).encodeAs(msgCoverReq) }
func (m *coverReq) decode(p []byte) error { return (*countReq)(m).decode(p) }

// coverResp carries one increasing local index list per requested
// cube, in request order.
type coverResp struct {
	Covers [][]int
}

func (m *coverResp) encode() []byte {
	var e enc
	e.u32(uint32(len(m.Covers)))
	for _, idx := range m.Covers {
		e.u32(uint32(len(idx)))
		for _, i := range idx {
			e.u32(uint32(i))
		}
	}
	return encodeFrame(msgCoverResp, e.b)
}

func (m *coverResp) decode(p []byte) error {
	d := dec{b: p}
	n := d.count(4, "cover")
	if d.fail == "" {
		m.Covers = make([][]int, n)
		for c := range m.Covers {
			ni := d.count(4, "index")
			if d.fail != "" {
				break
			}
			if ni > 0 {
				m.Covers[c] = make([]int, ni)
				for i := range m.Covers[c] {
					m.Covers[c][i] = int(d.u32())
				}
			}
		}
	}
	return d.err()
}

// ---- model push ----

// modelPush replicates a fitted model (hidomon-format JSON) onto a
// shard, keyed by its fingerprint. Pushes are lazy: score/top-n RPCs
// name the fingerprint they expect, a shard answers 412 for an
// unknown one, and the coordinator pushes then retries.
type modelPush struct {
	FP   string
	JSON []byte
}

func (m *modelPush) encode() []byte {
	var e enc
	e.str(m.FP)
	e.bytes(m.JSON)
	return encodeFrame(msgModelPush, e.b)
}

func (m *modelPush) decode(p []byte) error {
	d := dec{b: p}
	m.FP = d.str(maxWireString)
	n := d.count(1, "model byte")
	if d.fail == "" {
		m.JSON = append([]byte(nil), d.take(n)...)
	}
	return d.err()
}

// ---- score ----

// scoreReq carries one contiguous chunk of a score batch: raw rows
// (labels stay on the coordinator) plus the model fingerprint to
// score them against.
type scoreReq struct {
	ModelFP string
	N, D    int
	Workers int
	Values  []float64 // N*D row-major
}

func (m *scoreReq) encode() []byte {
	var e enc
	e.str(m.ModelFP)
	e.u32(uint32(m.N))
	e.u32(uint32(m.D))
	e.u32(uint32(m.Workers))
	for _, v := range m.Values {
		e.f64(v)
	}
	return encodeFrame(msgScoreReq, e.b)
}

func (m *scoreReq) decode(p []byte) error {
	d := dec{b: p}
	m.ModelFP = d.str(maxWireString)
	m.N = int(d.u32())
	m.D = d.dims()
	m.Workers = int(d.u32())
	if d.fail == "" {
		if need := int64(m.N) * int64(m.D) * 8; need != int64(d.remaining()) {
			d.bad("score payload carries %d bytes for %dx%d values", d.remaining(), m.N, m.D)
		}
	}
	if d.fail == "" {
		m.Values = make([]float64, m.N*m.D)
		for i := range m.Values {
			m.Values[i] = d.f64()
		}
	}
	return d.err()
}

// wireAlert is one scored record on the wire: the alert score (exact
// float64 bits) and the matching projection indices.
type wireAlert struct {
	Score   float64
	Matches []int
}

type scoreResp struct {
	Alerts []wireAlert
}

func (m *scoreResp) encode() []byte {
	var e enc
	e.u32(uint32(len(m.Alerts)))
	for _, a := range m.Alerts {
		e.f64(a.Score)
		e.u32(uint32(len(a.Matches)))
		for _, mi := range a.Matches {
			e.u32(uint32(mi))
		}
	}
	return encodeFrame(msgScoreResp, e.b)
}

func (m *scoreResp) decode(p []byte) error {
	d := dec{b: p}
	n := d.count(12, "alert")
	if d.fail == "" {
		m.Alerts = make([]wireAlert, n)
		for i := range m.Alerts {
			m.Alerts[i].Score = d.f64()
			nm := d.count(4, "match")
			if d.fail != "" {
				break
			}
			if nm > 0 {
				m.Alerts[i].Matches = make([]int, nm)
				for j := range m.Alerts[i].Matches {
					m.Alerts[i].Matches[j] = int(d.u32())
				}
			}
		}
	}
	return d.err()
}

// ---- top-n ----

// topNReq asks a shard to score its own stored rows against a model
// and return its local top N (most outlying first).
type topNReq struct {
	ModelFP string
	N       int
}

func (m *topNReq) encode() []byte {
	var e enc
	e.str(m.ModelFP)
	e.u32(uint32(m.N))
	return encodeFrame(msgTopNReq, e.b)
}

func (m *topNReq) decode(p []byte) error {
	d := dec{b: p}
	m.ModelFP = d.str(maxWireString)
	m.N = int(d.u32())
	return d.err()
}

// topNItem is one candidate outlier as the single-node ranker gives
// it: the shard-local row index, its alert score, and whether any
// projection matched.
type topNItem = server.TopNEntry

type topNResp struct {
	Rows  int // shard's total row count (for the merged response)
	Items []topNItem
}

func (m *topNResp) encode() []byte {
	var e enc
	e.u32(uint32(m.Rows))
	e.u32(uint32(len(m.Items)))
	for _, it := range m.Items {
		e.u32(uint32(it.Index))
		e.f64(it.Score)
		if it.Flagged {
			e.u8(1)
		} else {
			e.u8(0)
		}
	}
	return encodeFrame(msgTopNResp, e.b)
}

func (m *topNResp) decode(p []byte) error {
	d := dec{b: p}
	m.Rows = int(d.u32())
	n := d.count(13, "top-n item")
	if d.fail == "" {
		m.Items = make([]topNItem, n)
		for i := range m.Items {
			m.Items[i].Index = int(d.u32())
			m.Items[i].Score = d.f64()
			m.Items[i].Flagged = d.u8() != 0
		}
	}
	return d.err()
}

// ---- trace ----

// traceReq asks a node for the completed spans it still holds for one
// trace — the cross-node assembly behind
// GET /api/v1/debug/traces/{id} on the select node.
type traceReq struct {
	TraceID string
}

func (m *traceReq) encode() []byte {
	var e enc
	e.str(m.TraceID)
	return encodeFrame(msgTraceReq, e.b)
}

func (m *traceReq) decode(p []byte) error {
	d := dec{b: p}
	m.TraceID = d.str(obs.MaxIDLen)
	return d.err()
}

// traceResp carries a node's retained spans for the requested trace.
// Span times travel as UTC unix nanoseconds; durations as exact
// float64 milliseconds.
type traceResp struct {
	Spans []obs.SpanData
}

func (m *traceResp) encode() []byte {
	var e enc
	e.u32(uint32(len(m.Spans)))
	for i := range m.Spans {
		s := &m.Spans[i]
		e.str(s.TraceID)
		e.str(s.SpanID)
		e.str(s.ParentID)
		e.str(s.Name)
		e.str(s.Node)
		e.u64(uint64(s.Start.UnixNano()))
		e.f64(s.DurMS)
		e.u32(uint32(len(s.Attrs)))
		for _, a := range s.Attrs {
			e.str(a.Key)
			e.str(a.Value)
		}
	}
	return encodeFrame(msgTraceResp, e.b)
}

func (m *traceResp) decode(p []byte) error {
	d := dec{b: p}
	// Minimum span encoding: five empty strings (5×4), start (8),
	// duration (8), attr count (4).
	n := d.count(40, "span")
	if d.fail == "" && n > 0 {
		m.Spans = make([]obs.SpanData, n)
		for i := range m.Spans {
			s := &m.Spans[i]
			s.TraceID = d.str(maxWireString)
			s.SpanID = d.str(maxWireString)
			s.ParentID = d.str(maxWireString)
			s.Name = d.str(maxWireString)
			s.Node = d.str(maxWireString)
			s.Start = time.Unix(0, int64(d.u64())).UTC()
			s.DurMS = d.f64()
			na := d.count(8, "attr")
			if d.fail != "" {
				break
			}
			if na > 0 {
				s.Attrs = make(obs.SpanAttrs, na)
				for j := range s.Attrs {
					s.Attrs[j].Key = d.str(maxWireString)
					s.Attrs[j].Value = d.str(maxWireString)
				}
			}
		}
	}
	return d.err()
}

// emptyFrame builds a payload-less frame (info/rows requests, acks).
func emptyFrame(t msgType) []byte { return encodeFrame(t, nil) }
