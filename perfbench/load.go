package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is how many client goroutines, and HTTP connections, a
// workload's load uses: one per core of the 2-core reference machine.
const clients = 2

// newClient returns an HTTP client that opens at most clients
// connections.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// httpServer serves a handler on a loopback listener.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for Serve to return.
func (s *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// post sends body and reads the whole response into buf, returning the
// status code.
func post(c *http.Client, url, ctype string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// op performs operation k on behalf of a worker and reports its class,
// the units of work it completed, and whether it succeeded.
type op func(worker, k int) (class, units int, ok bool)

// closedLoop runs workers callers, each starting its next operation as
// soon as the previous one returns, until d has passed. It returns the
// samples and the elapsed time.
func closedLoop(workers int, d time.Duration, do op) ([]sample, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				k := int(next.Add(1)) - 1
				class, units, ok := do(w, k)
				per[w] = append(per[w], sample{due: sent, sent: sent, done: time.Since(start), class: class, units: units, ok: ok})
			}
		}(w)
	}
	wg.Wait()
	return merge(per), time.Since(start)
}

// openLoop schedules operation k at k/rate seconds after the start,
// whether or not earlier operations have finished, for d. Workers take
// the next due operation when they are free, so a slow reply delays the
// operations behind it and the delay is charged to them: every
// sample's latency runs from its due time.
func openLoop(workers int, rate float64, d time.Duration, do op) []sample {
	var next atomic.Int64
	start := time.Now()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				due := time.Duration(float64(k) / rate * float64(time.Second))
				if due >= d {
					return
				}
				sleepUntil(start.Add(due))
				sent := time.Since(start)
				class, units, ok := do(w, k)
				per[w] = append(per[w], sample{due: due, sent: sent, done: time.Since(start), class: class, units: units, ok: ok})
			}
		}(w)
	}
	wg.Wait()
	return merge(per)
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until
// t. The runtime's own timers wake an idle process up to a millisecond
// late, which an open loop would charge to every request as latency;
// the kernel timer keeps the generator within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func merge(per [][]sample) []sample {
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// tally adds a loop's samples to the run's operation counts and returns
// the units the successful ones completed.
func tally(r *run, ss []sample) int {
	units := 0
	for _, s := range ss {
		r.attempted++
		if s.ok {
			units += s.units
		} else {
			r.failed++
		}
	}
	return units
}

// checkSchedule reports an open loop's lateness and marks the run
// invalid when its backlog grew.
func checkSchedule(r *run, name string, ss []sample, d time.Duration) {
	r.say("%s", describe(name+" generator lateness", "ms", latenesses(ss), 0.99))
	if grew, late := backlogGrew(ss, d); grew {
		r.invalid = fmt.Sprintf("%s: generator %v behind schedule in the last quarter (backlog grew)", name, late)
	}
}

// scrape fetches a Prometheus text exposition.
func scrape(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// seriesSum sums every series of a metric name whose line starts with
// prefix: a name with an opening label brace, or one exact series (name
// plus label set) followed by a space. It is 0 when none is present.
func seriesSum(text, prefix string) (float64, error) {
	sum := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		sum += v
	}
	return sum, sc.Err()
}
