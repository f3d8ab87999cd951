package cluster

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"hido/internal/cube"
	"hido/internal/obs"
)

// TestProtoRoundTrip drives every message through encode → frame →
// decode and requires the struct back unchanged, including NaN
// payloads (their IEEE bits must survive — the reason the protocol is
// binary).
func TestProtoRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	c1 := cube.New(6).With(0, 3).With(4, 1)
	c2 := cube.New(6).With(2, 2)

	check := func(name string, in interface {
		encode() []byte
	}, out interface {
		decode([]byte) error
	}) {
		t.Helper()
		typ, payload, err := decodeFrame(in.encode())
		if err != nil {
			t.Fatalf("%s: decodeFrame: %v", name, err)
		}
		if typ < msgInfoReq || typ >= msgTypeEnd {
			t.Fatalf("%s: bad type %d", name, typ)
		}
		if err := out.decode(payload); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
	}

	info := &infoResp{N: 42, Names: []string{"a", "b", "c"}, Fingerprint: "d-cafe"}
	gotInfo := &infoResp{}
	check("info", info, gotInfo)
	if !reflect.DeepEqual(info, gotInfo) {
		t.Errorf("info: got %+v want %+v", gotInfo, info)
	}

	rows := &rowsResp{N: 2, D: 3, Values: []float64{1, nan, -3.5, 0, math.Inf(1), 6}}
	gotRows := &rowsResp{}
	check("rows", rows, gotRows)
	if gotRows.N != 2 || gotRows.D != 3 || len(gotRows.Values) != 6 {
		t.Fatalf("rows: got %+v", gotRows)
	}
	for i, v := range rows.Values {
		if math.Float64bits(gotRows.Values[i]) != math.Float64bits(v) {
			t.Errorf("rows value %d: bits differ (NaN must survive the wire)", i)
		}
	}

	negZero := math.Copysign(0, -1)
	grid := &gridReq{GridID: "g-1", DataFP: "d-2", Phi: 5,
		Cuts: [][]float64{{0.1, 0.2, 0.3, 0.4}, {-math.MaxFloat64, negZero, 3, math.MaxFloat64}}}
	gotGrid := &gridReq{}
	check("grid", grid, gotGrid)
	if gotGrid.GridID != "g-1" || gotGrid.DataFP != "d-2" || gotGrid.Phi != 5 ||
		len(gotGrid.Cuts) != 2 || math.Float64bits(gotGrid.Cuts[1][1]) != math.Float64bits(negZero) ||
		gotGrid.Cuts[1][3] != math.MaxFloat64 {
		t.Errorf("grid: got %+v", gotGrid)
	}
	// Cuts a model file could not hold do not survive the wire.
	grid.Cuts[1][3] = nan
	if _, payload, err := decodeFrame(grid.encode()); err != nil || gotGrid.decode(payload) == nil {
		t.Errorf("grid with a NaN cut decoded (frame error %v)", err)
	}

	cnt := &countReq{GridID: "g-1", D: 6, Cubes: []cube.Cube{c1, c2}}
	gotCnt := &countReq{}
	check("count", cnt, gotCnt)
	if !reflect.DeepEqual(cnt, gotCnt) {
		t.Errorf("count: got %+v want %+v", gotCnt, cnt)
	}

	cr := &countResp{Counts: []int{0, 7, 1 << 30}}
	gotCr := &countResp{}
	check("countResp", cr, gotCr)
	if !reflect.DeepEqual(cr, gotCr) {
		t.Errorf("countResp: got %+v want %+v", gotCr, cr)
	}

	cov := &coverReq{GridID: "g-1", D: 6, Cubes: []cube.Cube{c1, c2}}
	gotCov := &coverReq{}
	check("cover", cov, gotCov)
	if !reflect.DeepEqual(cov, gotCov) {
		t.Errorf("cover: got %+v want %+v", gotCov, cov)
	}
	if typ, _, _ := decodeFrame(cov.encode()); typ != msgCoverReq {
		t.Errorf("cover request framed as type %d", typ)
	}

	covR := &coverResp{Covers: [][]int{{1, 5, 9}, nil, {0}}}
	gotCovR := &coverResp{}
	check("coverResp", covR, gotCovR)
	if !reflect.DeepEqual(covR, gotCovR) {
		t.Errorf("coverResp: got %+v want %+v", gotCovR, covR)
	}

	mp := &modelPush{FP: "m-abc", JSON: []byte(`{"version":1}`)}
	gotMp := &modelPush{}
	check("model", mp, gotMp)
	if gotMp.FP != mp.FP || !bytes.Equal(gotMp.JSON, mp.JSON) {
		t.Errorf("model: got %+v", gotMp)
	}

	sc := &scoreReq{ModelFP: "m-abc", N: 2, D: 2, Workers: 4,
		Values: []float64{nan, 1, 2, 3}}
	gotSc := &scoreReq{}
	check("score", sc, gotSc)
	if gotSc.ModelFP != sc.ModelFP || gotSc.N != 2 || gotSc.D != 2 || gotSc.Workers != 4 ||
		math.Float64bits(gotSc.Values[0]) != math.Float64bits(nan) {
		t.Errorf("score: got %+v", gotSc)
	}

	sr := &scoreResp{Alerts: []wireAlert{{Score: -2.5, Matches: []int{0, 3}}, {Score: 0}}}
	gotSr := &scoreResp{}
	check("scoreResp", sr, gotSr)
	if !reflect.DeepEqual(sr, gotSr) {
		t.Errorf("scoreResp: got %+v want %+v", gotSr, sr)
	}

	tn := &topNReq{ModelFP: "m-abc", N: 10}
	gotTn := &topNReq{}
	check("topn", tn, gotTn)
	if !reflect.DeepEqual(tn, gotTn) {
		t.Errorf("topn: got %+v want %+v", gotTn, tn)
	}

	tr := &topNResp{Rows: 500, Items: []topNItem{
		{Index: 3, Score: -4.2, Flagged: true}, {Index: 0, Score: 0.1}}}
	gotTr := &topNResp{}
	check("topnResp", tr, gotTr)
	if !reflect.DeepEqual(tr, gotTr) {
		t.Errorf("topnResp: got %+v want %+v", gotTr, tr)
	}
}

// TestDecodeRejectsHostileFrames spells out the attacks the decoders
// must survive: truncation everywhere, length prefixes bigger than
// the buffer, and oversized declared allocations.
func TestDecodeRejectsHostileFrames(t *testing.T) {
	valid := (&countReq{GridID: "g", D: 3, Cubes: []cube.Cube{cube.New(3).With(0, 1)}}).encode()

	// Every strict prefix of a valid frame must error, never panic.
	for i := 0; i < len(valid); i++ {
		typ, payload, err := decodeFrame(valid[:i])
		if err != nil {
			continue
		}
		var req countReq
		if err := req.decode(payload); err == nil {
			t.Errorf("truncated frame of %d/%d bytes decoded as type %d", i, len(valid), typ)
		}
	}

	// A declared element count far beyond the payload must be rejected
	// before any allocation happens.
	var e enc
	e.str("g")
	e.u32(3)
	e.u32(0xffffffff) // one billion cubes, four bytes of payload left
	e.u32(0)
	frame := encodeFrame(msgCountReq, e.b)
	_, payload, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var req countReq
	if err := req.decode(payload); err == nil {
		t.Error("billion-element count request decoded")
	}

	// Frame header lies about its length.
	long := append([]byte(nil), valid...)
	long[5] = 0xff // payload length high byte
	if _, _, err := decodeFrame(long); err == nil {
		t.Error("frame with inflated declared length accepted")
	}

	// Unknown message type.
	bad := append([]byte(nil), valid...)
	bad[4] = 0xee
	if _, _, err := decodeFrame(bad); err == nil {
		t.Error("unknown message type accepted")
	}

	// Trailing garbage after a complete message body.
	withJunk := encodeFrame(msgCountReq, append(valid[9:], 0xde, 0xad))
	_, payload, err = decodeFrame(withJunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.decode(payload); err == nil {
		t.Error("trailing garbage accepted")
	}

	// Multi-cube cover frames: every strict prefix of a request or a
	// response payload errors, and so does trailing junk.
	covValid := [][]byte{
		(&coverReq{GridID: "g", D: 3, Cubes: []cube.Cube{cube.New(3).With(0, 1), cube.New(3).With(2, 2)}}).encode(),
		(&coverResp{Covers: [][]int{{0, 4}, nil, {7}}}).encode(),
	}
	for _, frame := range covValid {
		typ, p, err := decodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(b []byte) error {
			if typ == msgCoverReq {
				var m coverReq
				return m.decode(b)
			}
			var m coverResp
			return m.decode(b)
		}
		for i := 0; i < len(p); i++ {
			if err := decode(p[:i]); err == nil {
				t.Errorf("truncated type-%d payload of %d/%d bytes decoded", typ, i, len(p))
			}
		}
		if err := decode(append(append([]byte(nil), p...), 0)); err == nil {
			t.Errorf("type-%d payload with a trailing byte decoded", typ)
		}
	}

	// A cube count beyond the cover request's payload, a cover count
	// beyond the response's, and an index-list count beyond what is
	// left must be rejected before allocation.
	var ce enc
	ce.str("g")
	ce.u32(3)
	ce.u32(0x7fffffff)
	ce.u16(1)
	var cq coverReq
	if err := cq.decode(ce.b); err == nil {
		t.Error("cover request with a billion cubes decoded")
	}
	var re enc
	re.u32(0x7fffffff)
	re.u32(0)
	var cr coverResp
	if err := cr.decode(re.b); err == nil {
		t.Error("cover response with a billion covers decoded")
	}
	var le enc
	le.u32(2)
	le.u32(1)
	le.u32(5)
	le.u32(0x7fffffff)
	le.u32(6)
	if err := cr.decode(le.b); err == nil {
		t.Error("cover response with an oversized index list decoded")
	}

	// Every strict prefix of a trace-response payload must error: span
	// and attr lists truncate at arbitrary byte positions.
	tvalid := (&traceResp{Spans: []obs.SpanData{{TraceID: "t-1", SpanID: "s-1",
		ParentID: "s-0", Name: "storage:score", Node: "storage :9001",
		Start: time.Unix(1700000000, 0).UTC(), DurMS: 1.25,
		Attrs: obs.SpanAttrs{{Key: "code", Value: "200"}}}}}).encode()
	_, tpayload, err := decodeFrame(tvalid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tpayload); i++ {
		var tr traceResp
		if err := tr.decode(tpayload[:i]); err == nil {
			t.Errorf("truncated traceResp payload of %d/%d bytes decoded", i, len(tpayload))
		}
	}

	// A declared span count far beyond the payload must be rejected
	// before any allocation.
	var te enc
	te.u32(0xffffffff)
	var tr traceResp
	if err := tr.decode(te.b); err == nil {
		t.Error("billion-span trace response decoded")
	}
}

// FuzzClusterDecode throws hostile bytes at the frame parser and
// every message decoder. The property is total: no panic, no runaway
// allocation, errors for everything malformed.
func FuzzClusterDecode(f *testing.F) {
	nan := math.Float64frombits(0x7ff8000000000001)
	c := cube.New(4).With(1, 2).With(3, 3)
	seeds := [][]byte{
		(&infoResp{N: 9, Names: []string{"x", "y"}, Fingerprint: "d-1"}).encode(),
		(&rowsResp{N: 1, D: 2, Values: []float64{nan, 0.5}}).encode(),
		(&gridReq{GridID: "g", DataFP: "d", Phi: 4, Cuts: [][]float64{{1, 2, 3}}}).encode(),
		(&gridReq{GridID: "g", DataFP: "d", Phi: 4, Cuts: [][]float64{{1, 3, 2}}}).encode(),
		(&gridReq{GridID: "g", DataFP: "d", Phi: 4, Cuts: [][]float64{{1, nan, 3}}}).encode(),
		(&gridReq{GridID: "g", DataFP: "d", Phi: 4, Cuts: [][]float64{{math.Inf(-1), 2, math.Inf(1)}}}).encode(),
		(&countReq{GridID: "g", D: 4, Cubes: []cube.Cube{c}}).encode(),
		(&countResp{Counts: []int{3}}).encode(),
		(&coverReq{GridID: "g", D: 4, Cubes: []cube.Cube{c}}).encode(),
		(&coverReq{GridID: "g", D: 4, Cubes: []cube.Cube{c, cube.New(4).With(0, 1)}}).encode(),
		(&coverResp{Covers: [][]int{{0, 2}}}).encode(),
		(&coverResp{Covers: [][]int{{0, 2}, nil, {5}}}).encode(),
		(&modelPush{FP: "m-1", JSON: []byte("{}")}).encode(),
		(&scoreReq{ModelFP: "m-1", N: 1, D: 2, Workers: 1, Values: []float64{nan, 1}}).encode(),
		(&scoreResp{Alerts: []wireAlert{{Score: nan, Matches: []int{1}}}}).encode(),
		(&topNReq{ModelFP: "m-1", N: 5}).encode(),
		(&topNResp{Rows: 7, Items: []topNItem{{Index: 1, Score: -1, Flagged: true}}}).encode(),
		(&traceReq{TraceID: "t-1"}).encode(),
		(&traceResp{Spans: []obs.SpanData{{TraceID: "t-1", SpanID: "s-1", Name: "storage:score",
			Start: time.Unix(1700000000, 0).UTC(), DurMS: 0.5,
			Attrs: obs.SpanAttrs{{Key: "code", Value: "200"}}}}}).encode(),
		emptyFrame(msgInfoReq),
		{},
		[]byte("hcp1"),
		[]byte{'h', 'c', 'p', '1', 1, 0xff, 0xff, 0xff, 0xff},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := decodeFrame(data)
		if err != nil {
			return
		}
		switch typ {
		case msgInfoResp:
			var m infoResp
			_ = m.decode(payload)
		case msgRowsResp:
			var m rowsResp
			_ = m.decode(payload)
		case msgGridReq:
			var m gridReq
			_ = m.decode(payload)
		case msgCountReq:
			var m countReq
			_ = m.decode(payload)
		case msgCountResp:
			var m countResp
			_ = m.decode(payload)
		case msgCoverReq:
			var m coverReq
			_ = m.decode(payload)
		case msgCoverResp:
			var m coverResp
			_ = m.decode(payload)
		case msgModelPush:
			var m modelPush
			_ = m.decode(payload)
		case msgScoreReq:
			var m scoreReq
			_ = m.decode(payload)
		case msgScoreResp:
			var m scoreResp
			_ = m.decode(payload)
		case msgTopNReq:
			var m topNReq
			_ = m.decode(payload)
		case msgTopNResp:
			var m topNResp
			_ = m.decode(payload)
		case msgTraceReq:
			var m traceReq
			_ = m.decode(payload)
		case msgTraceResp:
			var m traceResp
			_ = m.decode(payload)
		}
	})
}
