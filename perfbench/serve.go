package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"hido/internal/batchwire"
	"hido/internal/dataset"
	"hido/internal/server"
	"hido/internal/stream"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// The serving workloads fit a model on a Segmentation-profile reference
// window (d=19, phi=6) and serve it through server.New behind a
// loopback listener.
const (
	serveProfile = "Segmentation"
	servePhi     = 6
	// labelColumn is where CSV bodies carry the record label: after the
	// profile's 19 attributes.
	labelColumn = 19
)

// The score workload's closed-loop share of the run and its fixed
// open-loop rate: about a seventh of the 2900 requests/s the seed
// commit's closed loop reaches on the 2-core reference machine. At half
// that capacity the batch-1024 CSV requests keep both connections busy
// most of the time and the median request waits in the queue; at a
// quarter, a spell of CPU steal from other guests on the host still
// tripled the median. At a seventh the median is a batch-1 request's
// own round trip.
const (
	scoreRate        = 400.0 // requests/s
	scoreClosedShare = 0.5
	// tracedRateDiv lowers the open-loop rate of the traced run, whose
	// replays roughly triple the CPU each request costs.
	tracedRateDiv = 8
)

// The ingest workload: hib1 batches of ingestBatch records at
// ingestRate, beside batch-1 score requests at ingestScoreRate. A refit
// starts every ingestRefitEvery records, about every 2.5 s.
const (
	ingestRate       = 100.0 // requests/s
	ingestBatch      = 256
	ingestScoreRate  = 400.0 // requests/s
	ingestWindow     = 8192
	ingestRefitEvery = 65536
)

// Indexes into requestClasses.
const (
	classJSONL1 = iota
	classHib64
	classCSV1024
	classIngest256
)

// scoreMix is the score workload's request mix: each class's batch
// size, distinct bodies, and percentage of requests.
var scoreMix = []struct {
	class, batch, bodies, percent int
}{
	{classJSONL1, 1, 64, 70},
	{classHib64, 64, 32, 20},
	{classCSV1024, 1024, 16, 10},
}

// request is one distinct request body with its decoded records.
type request struct {
	class       int
	path, ctype string
	body        []byte
	ds          *dataset.Dataset
	// want holds the offline alerts for the records; nil when the
	// response is not checked against them.
	want []stream.Alert
}

// newRequest encodes ds as a request of the given class to endpoint.
func newRequest(class int, endpoint string, ds *dataset.Dataset) (request, error) {
	rq := request{class: class, path: endpoint, ds: ds}
	switch class {
	case classJSONL1:
		rq.ctype = "application/x-ndjson"
		var b []byte
		for i := 0; i < ds.N(); i++ {
			b = append(b, '[')
			for j, v := range ds.RowView(i) {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
			b = append(b, "]\n"...)
		}
		rq.body = b
	case classHib64, classIngest256:
		rq.ctype = batchwire.ContentType
		rq.body = batchwire.Encode(ds)
	case classCSV1024:
		rq.ctype = "text/csv"
		rq.path += "?label=" + strconv.Itoa(labelColumn)
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			return rq, err
		}
		rq.body = buf.Bytes()
	}
	return rq, nil
}

// pickRows draws n records from pool, a tenth of them from its planted
// outliers, so that some records flag.
func pickRows(rng *xrand.RNG, pool *dataset.Dataset, outliers []int, n int) *dataset.Dataset {
	sub := dataset.New(pool.Names, n)
	for i := 0; i < n; i++ {
		row := rng.Intn(pool.N())
		if len(outliers) > 0 && rng.Bernoulli(0.1) {
			row = outliers[rng.Intn(len(outliers))]
		}
		sub.AppendRow(pool.RowView(row), pool.Label(row))
	}
	return sub
}

// scoreReply is the part of a score or ingest response that is checked.
type scoreReply struct {
	Records int `json:"records"`
	Flagged int `json:"flagged"`
	Results []struct {
		Record  int   `json:"record"`
		Flagged bool  `json:"flagged"`
		Matches []int `json:"matches"`
	} `json:"results"`
}

// check compares a response body with the request's records: the
// record count always, and with want set, which records flagged and the
// projections each matched.
func (rq *request) check(body []byte) error {
	var rep scoreReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if rep.Records != rq.ds.N() {
		return fmt.Errorf("response scored %d records, sent %d", rep.Records, rq.ds.N())
	}
	if rq.want == nil {
		return nil
	}
	next := 0
	for i, a := range rq.want {
		if !a.Flagged() {
			continue
		}
		if next >= len(rep.Results) {
			return fmt.Errorf("record %d flagged offline, missing from the response", i)
		}
		got := rep.Results[next]
		next++
		if got.Record != i || !got.Flagged || !slices.Equal(got.Matches, a.Matches) {
			return fmt.Errorf("record %d: response record %d flagged=%v matches %v, offline matches %v",
				i, got.Record, got.Flagged, got.Matches, a.Matches)
		}
	}
	if next != len(rep.Results) || rep.Flagged != next {
		return fmt.Errorf("response flags %d records, offline %d", len(rep.Results), next)
	}
	return nil
}

// service is a fitted model served over loopback.
type service struct {
	srv    *server.Server
	http   *httpServer
	client *http.Client
	mon    *stream.Monitor
	model  []byte // the model JSON, for benchmark-owned copies
}

// startService fits the reference window's model and serves it.
func startService(seed uint64, cfg server.Config) (*service, error) {
	ref, err := profileData(serveProfile, seed)
	if err != nil {
		return nil, err
	}
	mon, err := stream.NewMonitor(ref, stream.Options{Phi: servePhi, Seed: seedList(seed, 0x5e7, 1)[0]})
	if err != nil {
		return nil, fmt.Errorf("fitting the served model: %w", err)
	}
	var model bytes.Buffer
	if err := mon.Save(&model); err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	if err := srv.Registry().Set("default", server.Entry{Monitor: mon, FittedAt: time.Now(), Source: "perfbench"}); err != nil {
		return nil, err
	}
	hs, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &service{srv: srv, http: hs, client: newClient(), mon: mon, model: model.Bytes()}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.mon.WaitIngest()
	if err := s.http.close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing server: %v\n", err)
	}
}

// copyModel loads a benchmark-owned copy of the served model.
func (s *service) copyModel() (*stream.Monitor, error) {
	return stream.Load(bytes.NewReader(s.model))
}

// send posts rq and checks the reply when check is set.
func (s *service) send(rq *request, buf *bytes.Buffer, check bool) error {
	code, err := post(s.client, s.http.url+rq.path, rq.ctype, rq.body, buf)
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("status %d: %.200s", code, buf.Bytes())
	}
	if check {
		return rq.check(buf.Bytes())
	}
	return nil
}

// scoreSetup is the score workload's served model, its distinct
// request bodies and the seeded request sequence.
type scoreSetup struct {
	*service
	reqs []request
	// seq names the request of each operation (cycled); sampled marks
	// the operations whose responses are checked.
	seq     []int
	sampled []bool
}

func setupScore(r *run, seed uint64) (*scoreSetup, error) {
	svc, err := startService(seed, server.Config{})
	if err != nil {
		return nil, err
	}
	s := &scoreSetup{service: svc}
	pool, err := profileData(serveProfile, seed+1)
	if err != nil {
		return nil, err
	}
	outliers := synth.OutlierIndices(pool)
	rng := xrand.New(seed ^ 0x5c0e)
	byClass := map[int][]int{}
	for _, m := range scoreMix {
		for i := 0; i < m.bodies; i++ {
			rq, err := newRequest(m.class, "/api/v1/score", pickRows(rng, pool, outliers, m.batch))
			if err != nil {
				return nil, err
			}
			rq.want = svc.mon.ScoreBatch(rq.ds)
			byClass[m.class] = append(byClass[m.class], len(s.reqs))
			s.reqs = append(s.reqs, rq)
		}
	}
	// The sequence holds each class in its exact share, shuffled, so
	// every seed offers the same mix.
	for _, m := range scoreMix {
		ids := byClass[m.class]
		for k := 0; k < 40*m.percent; k++ {
			s.seq = append(s.seq, ids[rng.Intn(len(ids))])
		}
	}
	rng.Shuffle(len(s.seq), func(i, j int) { s.seq[i], s.seq[j] = s.seq[j], s.seq[i] })
	for range s.seq {
		s.sampled = append(s.sampled, rng.Bernoulli(0.1))
	}
	// Every distinct body once through the server, checked: the output
	// check and the warm-up.
	var buf bytes.Buffer
	for i := range s.reqs {
		r.attempted++
		if err := s.send(&s.reqs[i], &buf, true); err != nil {
			r.fail("set-up %s request %d: %v", requestClasses[s.reqs[i].class], i, err)
		}
	}
	return s, nil
}

// op is one score request: operation k sends the sequence's k-th
// request, checks sampled replies, and, with rep set, replays it
// traced.
func (s *scoreSetup) op(r *run, rep *replayer) op {
	var bufs [clients]bytes.Buffer
	return func(w, k int) (int, int, bool) {
		rq := &s.reqs[s.seq[k%len(s.seq)]]
		check := s.sampled[k%len(s.sampled)]
		var err error
		if rep != nil {
			err = rep.roundTrip(w, rq, func() error { return s.send(rq, &bufs[w], check) })
		} else {
			err = s.send(rq, &bufs[w], check)
		}
		if err != nil {
			r.problem("%s request: %v", requestClasses[rq.class], err)
		}
		return rq.class, rq.ds.N(), err == nil
	}
}

// classLatencies reports each class's latency distribution.
func classLatencies(r *run, prefix string, ss []sample, classes ...int) {
	for _, c := range classes {
		c := c
		r.say("%s", describe(prefix+" "+requestClasses[c], "ms", latencies(ss, func(s sample) bool { return s.class == c }), 0.99))
	}
}

func runScore(o options, r *run) error {
	s, setups, err := setUp(func() (*scoreSetup, error) { return setupScore(r, o.seed) },
		func(s *scoreSetup) { s.close() })
	if err != nil {
		return err
	}
	defer s.close()
	d := o.duration()
	if !o.trace {
		dA := time.Duration(float64(d) * scoreClosedShare)
		cpu0 := cpuSeconds()
		a, elapsed := closedLoop(clients, dA, s.op(r, nil))
		cpu := cpuSeconds() - cpu0
		records := float64(tally(r, a))
		b := openLoop(clients, scoreRate, d-dA, s.op(r, nil))
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		tally(r, b)
		// Phase A saturates both cores, so its records per wall second
		// move with whatever else the machine runs; records per CPU-second
		// of the process, load generator included, do not count the time
		// the process was kept off the cores.
		perCPU := records / cpu
		r.say("phase A closed loop, %d clients: score_records_per_s=%.0f records/s (%d requests, %.0f requests/s); "+
			"score_records_per_cpu_s=%.0f (%.3f CPU-s)", clients, records/elapsed.Seconds(), len(a),
			float64(len(a))/elapsed.Seconds(), perCPU, cpu)
		all := latencies(b, nil)
		r.say("phase B open loop at %.0f requests/s: %s", scoreRate, describe("score_us", "ms", all, 0.99))
		classLatencies(r, "phase B", b, classJSONL1, classHib64, classCSV1024)
		checkSchedule(r, "phase B", b, d-dA)
		recordEndToEnd(r, setups, rss, median(all), perCPU)
		return nil
	}

	rate := scoreRate / tracedRateDiv
	plain := openLoop(clients, rate, d/2, s.op(r, nil))
	tally(r, plain)
	mon, err := s.copyModel()
	if err != nil {
		return err
	}
	rep := newReplayer(s.srv.Handler(), mon, nil)
	traced := openLoop(clients, rate, d/2, s.op(r, rep))
	tally(r, traced)
	checkSchedule(r, "traced", traced, d/2)
	recordOverhead(r, fmt.Sprintf("score latency at %.0f requests/s", rate), latencies(plain, nil), latencies(traced, nil))
	if err := rep.allocPass(s.reqs); err != nil {
		return err
	}
	rep.record(r)
	if err := traceServedFit(r, o.seed); err != nil {
		return err
	}
	return writeTrace(r, o, rep.t)
}

// traceServedFit replays the served model's fit traced, for the
// fit-layer metrics of the serving workloads.
func traceServedFit(r *run, seed uint64) error {
	ref, err := profileData(serveProfile, seed)
	if err != nil {
		return err
	}
	_, ft, err := tracedFit(newTracer(), ref, servePhi, seedList(seed, 0x5e7, 1)[0])
	if err != nil {
		return err
	}
	recordFitLayers(r, []fitTrace{ft})
	return nil
}

// ingestSetup is the ingest workload's served model and its request
// bodies: ingest batches before and after the drift, and batch-1 score
// requests.
type ingestSetup struct {
	*service
	pre, post, scores []request
}

func setupIngest(r *run, seed uint64) (*ingestSetup, error) {
	svc, err := startService(seed, server.Config{IngestWindow: ingestWindow, IngestRefitEvery: ingestRefitEvery})
	if err != nil {
		return nil, err
	}
	s := &ingestSetup{service: svc}
	pool, err := profileData(serveProfile, seed+1)
	if err != nil {
		return nil, err
	}
	outliers := synth.OutlierIndices(pool)
	rng := xrand.New(seed ^ 0x16e5)
	shift := columnStd(pool)
	for i := 0; i < 64; i++ {
		ds := pickRows(rng, pool, outliers, ingestBatch)
		pre, err := newRequest(classIngest256, "/api/v1/ingest", ds)
		if err != nil {
			return nil, err
		}
		post, err := newRequest(classIngest256, "/api/v1/ingest", drifted(ds, shift))
		if err != nil {
			return nil, err
		}
		s.pre, s.post = append(s.pre, pre), append(s.post, post)
	}
	var buf bytes.Buffer
	for i := 0; i < 64; i++ {
		rq, err := newRequest(classJSONL1, "/api/v1/score", pickRows(rng, pool, outliers, 1))
		if err != nil {
			return nil, err
		}
		rq.want = svc.mon.ScoreBatch(rq.ds)
		// The model is still the fitted one: check every score body.
		r.attempted++
		if err := s.send(&rq, &buf, true); err != nil {
			r.fail("set-up score request %d: %v", i, err)
		}
		rq.want = nil // refits change the model during the run
		s.scores = append(s.scores, rq)
	}
	return s, nil
}

// columnStd returns each column's standard deviation.
func columnStd(ds *dataset.Dataset) []float64 {
	out := make([]float64, ds.D())
	for j := range out {
		col := ds.Column(j)
		m := mean(col)
		ss := 0.0
		for _, v := range col {
			ss += (v - m) * (v - m)
		}
		out[j] = math.Sqrt(ss / float64(len(col)))
	}
	return out
}

// drifted copies ds with the first five attributes, one correlated
// group, shifted up by one standard deviation.
func drifted(ds *dataset.Dataset, std []float64) *dataset.Dataset {
	out := dataset.New(ds.Names, ds.N())
	row := make([]float64, ds.D())
	for i := 0; i < ds.N(); i++ {
		copy(row, ds.RowView(i))
		for j := 0; j < 5; j++ {
			row[j] += std[j]
		}
		out.AppendRow(row, ds.Label(i))
	}
	return out
}

// ingestRun is the outcome of one ingest phase.
type ingestRun struct {
	ingest, score []sample
}

// loops runs the ingest and score open loops side by side for d; the
// ingest stream drifts halfway through.
func (s *ingestSetup) loops(r *run, d time.Duration, rep *replayer) ingestRun {
	var out ingestRun
	var ingBuf, scoreBuf bytes.Buffer
	// The ingest loop replays as worker 0, the score loop as worker 1.
	send := func(worker int, rq *request, buf *bytes.Buffer, check bool) error {
		if rep == nil {
			return s.send(rq, buf, check)
		}
		return rep.roundTrip(worker, rq, func() error { return s.send(rq, buf, check) })
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		out.ingest = openLoop(1, ingestRate, d, func(_, k int) (int, int, bool) {
			set := s.pre
			if float64(k)/ingestRate >= d.Seconds()/2 {
				set = s.post
			}
			rq := &set[k%len(set)]
			if err := send(0, rq, &ingBuf, k%8 == 0); err != nil {
				r.problem("ingest request: %v", err)
				return rq.class, rq.ds.N(), false
			}
			return rq.class, rq.ds.N(), true
		})
	}()
	go func() {
		defer wg.Done()
		out.score = openLoop(1, ingestScoreRate, d, func(_, k int) (int, int, bool) {
			rq := &s.scores[k%len(s.scores)]
			if err := send(1, rq, &scoreBuf, k%8 == 0); err != nil {
				r.problem("score request: %v", err)
				return rq.class, rq.ds.N(), false
			}
			return rq.class, rq.ds.N(), true
		})
	}()
	wg.Wait()
	return out
}

// checkIngest compares the server's ingest counters with what was
// sent and returns the refit outcomes.
func (s *ingestSetup) checkIngest(r *run, sent int) (ok, failed float64, err error) {
	s.mon.WaitIngest()
	text, err := scrape(s.client, s.http.url+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	got, err := seriesSum(text, "hidod_ingest_records_total ")
	if err != nil {
		return 0, 0, err
	}
	ok, err = seriesSum(text, `hidod_ingest_refits_total{model="default",outcome="ok"} `)
	if err != nil {
		return 0, 0, err
	}
	failed, err = seriesSum(text, `hidod_ingest_refits_total{model="default",outcome="error"} `)
	if err != nil {
		return 0, 0, err
	}
	r.attempted++
	switch {
	case int(got) != sent:
		r.fail("hidod_ingest_records_total=%v, sent %d records", got, sent)
	case ok < 1 || failed != 0:
		r.fail("refits ok=%v error=%v, want at least one ok and no errors", ok, failed)
	}
	r.say("refits: %v ok, %v failed; %d records ingested", ok, failed, sent)
	return ok, failed, nil
}

func runIngest(o options, r *run) error {
	s, setups, err := setUp(func() (*ingestSetup, error) { return setupIngest(r, o.seed) },
		func(s *ingestSetup) { s.close() })
	if err != nil {
		return err
	}
	defer s.close()
	d := o.duration()
	if !o.trace {
		cpu0 := cpuSeconds()
		res := s.loops(r, d, nil)
		cpu := cpuSeconds() - cpu0
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		records := tally(r, res.ingest)
		tally(r, res.score)
		if _, _, err := s.checkIngest(r, records); err != nil {
			return err
		}
		ing := latencies(res.ingest, nil)
		r.say("%s", describe("ingest_us (hib1 256)", "ms", ing, 0.99))
		r.say("%s", describe("score_us (jsonl 1)", "ms", latencies(res.score, nil), 0.99))
		checkSchedule(r, "ingest", res.ingest, d)
		checkSchedule(r, "score", res.score, d)
		// Both loops run at fixed rates, so records per wall second would
		// be the offered rate; records per CPU-second is what the program
		// makes of them, background refits included.
		perCPU := float64(records) / cpu
		r.say("ingest_records_per_cpu_s=%.0f (%d records in %.3f CPU-s of the process)", perCPU, records, cpu)
		recordEndToEnd(r, setups, rss, median(ing), perCPU)
		return nil
	}

	stop := watchRefits(s.mon)
	plain := s.loops(r, d/2, nil)
	records := tally(r, plain.ingest)
	tally(r, plain.score)
	// Replays go to a shadow server and monitor, so the served window and
	// its counters see each batch once.
	shadowMon, err := s.copyModel()
	if err != nil {
		return err
	}
	shadow := server.New(server.Config{IngestWindow: ingestWindow, IngestRefitEvery: 1 << 40})
	if err := shadow.Registry().Set("default", server.Entry{Monitor: shadowMon, FittedAt: time.Now(), Source: "perfbench"}); err != nil {
		return err
	}
	own, err := s.copyModel()
	if err != nil {
		return err
	}
	if err := own.EnableIngest(stream.IngestOptions{Window: ingestWindow, RefitEvery: 1 << 40}); err != nil {
		return err
	}
	rep := newReplayer(shadow.Handler(), own, own)
	traced := s.loops(r, d/2, rep)
	records += tally(r, traced.ingest)
	tally(r, traced.score)
	growth := stop()
	ok, failed, err := s.checkIngest(r, records)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := s.mon.RefitFromWindow(); err != nil {
		r.fail("foreground refit: %v", err)
	}
	refit := time.Since(start)
	checkSchedule(r, "traced ingest", traced.ingest, d/2)
	recordOverhead(r, "ingest latency", latencies(plain.ingest, nil), latencies(traced.ingest, nil))
	if err := rep.allocPass(append(append([]request(nil), s.pre[:8]...), s.scores...)); err != nil {
		return err
	}
	rep.record(r)
	r.metrics["stream.refits"] = ok
	r.metrics["stream.refit_errors"] = failed
	r.metrics["stream.refit_ms"] = refit.Seconds() * 1000
	r.metrics["stream.heap_growth_mb"] = growth
	r.say("foreground refit of the final window: %.1f ms; live heap growth between the first and last refit: %.2f MB",
		refit.Seconds()*1000, growth)
	if err := traceServedFit(r, o.seed); err != nil {
		return err
	}
	return writeTrace(r, o, rep.t)
}

// watchRefits samples the live heap after each completed background
// refit of mon until the returned stop function is called, which
// returns the growth in MB between the first and the last refit.
func watchRefits(mon *stream.Monitor) func() float64 {
	done := make(chan struct{})
	result := make(chan float64, 1)
	go func() {
		var seen uint64
		var first, last uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- float64(int64(last)-int64(first)) / (1 << 20)
				return
			case <-tick.C:
				st := mon.IngestStats()
				if n := st.Refits + st.RefitErrs; n != seen && !st.Refitting {
					seen = n
					last = liveHeap()
					if first == 0 {
						first = last
					}
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// inProcessRequest builds the request serveInProcess hands a handler.
func inProcessRequest(rq *request) *http.Request {
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	req.Header.Set("Content-Type", rq.ctype)
	return req
}

// serveInProcess runs handler h on req without the network.
func serveInProcess(h http.Handler, req *http.Request) error {
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.code != 0 && w.code/100 != 2 {
		return fmt.Errorf("in-process %s: status %d", req.URL.Path, w.code)
	}
	return nil
}

// replayer re-runs each traced request inside the process: the
// handler on the same body, then the layers one by one on a
// benchmark-owned monitor, so the round trip can be split into
// transport, handler, decode, score and encode.
type replayer struct {
	t       *tracer
	h       http.Handler
	mon     *stream.Monitor
	ingest  *stream.Monitor // receives replayed ingest batches; nil for score
	scratch [clients]replayScratch

	mu sync.Mutex
	// Per class: handler and handler-self times (µs), allocations, and
	// summed layer nanoseconds with the records they covered.
	handler, self, allocs            [len(requestClasses)][]float64
	decodeNs, layerNs                [len(requestClasses)]int64
	records                          [len(requestClasses)]int64
	transport                        []float64
	scoreNs, scoreRecords, resultsNs int64
	// Summed self time by layer across requests, and the round trips.
	layerSelf map[string]int64
	rtNs      int64
}

func newReplayer(h http.Handler, mon, ingest *stream.Monitor) *replayer {
	return &replayer{t: newTracer(), h: h, mon: mon, ingest: ingest, layerSelf: map[string]int64{}}
}

// roundTrip times send as a traced request, then replays it with
// worker's scratch.
func (p *replayer) roundTrip(worker int, rq *request, send func() error) error {
	root := p.t.begin(0, "request", "bench")
	defer root.end()
	sp := p.t.begin(root.id(), "http.roundtrip "+requestClasses[rq.class], "net")
	err := send()
	rt := sp.end()
	if err != nil {
		return err
	}
	return p.replay(root.id(), &p.scratch[worker], rq, rt)
}

// replayScratch is one worker's reusable replay state, as the server's
// request arena is for a handler.
type replayScratch struct {
	ds      *dataset.Dataset
	alerts  []stream.Alert
	results []stream.RecordResult
	enc     bytes.Buffer
}

// replay runs rq in process and through each layer, recording spans
// under parent and the per-class timings.
func (p *replayer) replay(parent int, sc *replayScratch, rq *request, rt time.Duration) error {
	req := inProcessRequest(rq)
	sp := p.t.begin(parent, "server.Handler.ServeHTTP", "server")
	err := serveInProcess(p.h, req)
	h := sp.end()
	if err != nil {
		return err
	}

	// The server decodes JSON lines inside its handler with no public
	// decoder to replay, so for jsonl_1 the decode stays in the handler's
	// own time and the replay scores the request's records as generated.
	ds, dec := rq.ds, time.Duration(0)
	decodeLayer := map[int]string{classHib64: "batchwire", classCSV1024: "dataset", classIngest256: "batchwire"}[rq.class]
	if decodeLayer != "" {
		sp = p.t.begin(parent, "decode "+requestClasses[rq.class], decodeLayer)
		ds, err = decodeBody(rq, sc.ds)
		dec = sp.end()
		if err != nil {
			return err
		}
		sc.ds = ds
	}

	if rq.class == classIngest256 {
		sp = p.t.begin(parent, "stream.Monitor.IngestBatch", "stream")
		sc.alerts, err = p.ingest.IngestBatch(context.Background(), ds, 0, sc.alerts)
	} else {
		sp = p.t.begin(parent, "stream.Monitor.ScoreBatchBuf", "stream")
		sc.alerts, err = p.mon.ScoreBatchBuf(context.Background(), ds, 0, sc.alerts)
	}
	score := sp.end()
	if err != nil {
		return err
	}

	sp = p.t.begin(parent, "stream.Monitor.ResultsAppend+encode", "stream")
	sc.results = p.mon.ResultsAppend(sc.results, ds, sc.alerts, false, true)
	sc.enc.Reset()
	err = json.NewEncoder(&sc.enc).Encode(struct {
		Model   string                `json:"model"`
		Records int                   `json:"records"`
		Results []stream.RecordResult `json:"results"`
	}{"default", len(sc.alerts), sc.results})
	enc := sp.end()
	if err != nil {
		return err
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	c := rq.class
	n := int64(ds.N())
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handler[c] = append(p.handler[c], us(h))
	p.self[c] = append(p.self[c], us(h-dec-score-enc))
	p.transport = append(p.transport, us(rt-h))
	p.records[c] += n
	p.decodeNs[c] += int64(dec)
	p.layerNs[c] += int64(score)
	if c != classIngest256 {
		// IngestBatch scores too, but its time is the ingest layer's.
		p.scoreNs += int64(score)
		p.scoreRecords += n
	}
	p.resultsNs += int64(enc)
	// The in-process replay stands for the server side of the round
	// trip: transport is what the handler does not explain.
	p.rtNs += int64(rt)
	p.layerSelf["net"] += max(int64(rt-h), 0)
	p.layerSelf["server"] += max(int64(h-dec-score-enc), 0)
	if decodeLayer != "" {
		p.layerSelf[decodeLayer] += int64(dec)
	}
	p.layerSelf["stream"] += int64(score + enc)
	return nil
}

// decodeBody decodes a hib1 or CSV request body the way the server
// does for its content type, reusing dst (which may be nil).
func decodeBody(rq *request, dst *dataset.Dataset) (*dataset.Dataset, error) {
	if rq.class == classCSV1024 {
		return dataset.ReadCSVInto(dst, bytes.NewReader(rq.body), dataset.ReadCSVOptions{
			Header: true, LabelColumn: labelColumn, Strict: true})
	}
	return batchwire.Decode(dst, rq.body, rq.ds.D())
}

// allocPass counts the heap objects the handler allocates per request,
// running each distinct body of reqs in process, one at a time, with no
// other load.
func (p *replayer) allocPass(reqs []request) error {
	for i := range reqs {
		rq := &reqs[i]
		req := inProcessRequest(rq)
		a0 := heapAllocs()
		if err := serveInProcess(p.h, req); err != nil {
			return err
		}
		a1 := heapAllocs()
		p.allocs[rq.class] = append(p.allocs[rq.class], float64(a1-a0))
	}
	return nil
}

// record stores the replayed per-layer metrics.
func (p *replayer) record(r *run) {
	m := r.metrics
	m["server.transport_us"] = median(p.transport)
	r.say("%s", describe("server.transport_us", "us", p.transport, 0.99))
	for c, name := range requestClasses {
		if len(p.handler[c]) == 0 {
			continue
		}
		m["server.handler_us."+name] = median(p.handler[c])
		m["server.self_us."+name] = median(p.self[c])
		m["server.allocs_per_request."+name] = median(p.allocs[c])
		r.say("%s: %s; self_us p50=%.2f us; allocs/request p50=%.0f (n=%d)", name,
			describe("handler_us", "us", p.handler[c], 0.99), median(p.self[c]), median(p.allocs[c]), len(p.allocs[c]))
	}
	perRecord := func(ns, n int64) float64 { return ratio(float64(ns), float64(n)) }
	m["batchwire.decode_ns_per_record"] = perRecord(p.decodeNs[classHib64]+p.decodeNs[classIngest256],
		p.records[classHib64]+p.records[classIngest256])
	m["dataset.csv_decode_ns_per_record"] = perRecord(p.decodeNs[classCSV1024], p.records[classCSV1024])
	m["stream.score_ns_per_record"] = perRecord(p.scoreNs, p.scoreRecords)
	m["stream.results_ns_per_record"] = perRecord(p.resultsNs, p.scoreRecords+p.records[classIngest256])
	m["stream.ingest_ns_per_record"] = perRecord(p.layerNs[classIngest256], p.records[classIngest256])
	line := fmt.Sprintf("self time per layer under request round trips (%.1f ms total):", float64(p.rtNs)/1e6)
	for _, l := range layers {
		share := ratio(float64(p.layerSelf[l]), float64(p.rtNs))
		m["self."+l] = share
		if p.layerSelf[l] > 0 {
			line += fmt.Sprintf(" %s=%.3f", l, share)
		}
	}
	r.say("%s", line)
}
