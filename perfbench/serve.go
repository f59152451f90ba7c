package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wrht/internal/exp"
)

const (
	// clients is the closed loop's client count: each waits for its
	// reply before sending the next request.
	clients = 2
	// setupStarts is how many times a run starts wrhtd to time set-up;
	// the last start serves the measured window.
	setupStarts = 11
	// batch is the serving workloads' unit of fixed work for wall_s:
	// this many consecutive completed requests.
	batch = 200
	// digestPrefix is how many leading requests of the default seed's
	// sequence the recorded response digest covers.
	digestPrefix = 200
)

// probe is the fixed request whose first successful answer ends a
// daemon's set-up time.
var probe = Request{Endpoint: "build", Class: "probe", Body: []byte(`{"kind":"wrht","n":64,"wavelengths":8}`)}

// serveDigests are, per serving workload, the digest of the expected
// responses to the first digestPrefix requests of seed 1, recorded at
// the commit that defined this benchmark.
var serveDigests = map[string]string{
	"serve-optical": "458c5a8c7589888ba60c4131ae3d017b5d41a59ce492620b3f5639a8d2d09094",
	"serve-fattree": "54a76935b85840ea546b72173f874cfb7915459fd80665df90eded3ad129d8a7",
}

// serve drives a wrhtd child with the workload's seeded request mix.
type serve struct {
	cfg config
	gen *Generator
	// reqs is the sequence drawn so far; the traced replay reuses it.
	mu   sync.Mutex
	reqs []Request
}

func newServe(cfg config) (*serve, error) {
	g, err := NewGenerator(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &serve{cfg: cfg, gen: g}, nil
}

// request returns the i-th request of the sequence, drawing as needed.
func (s *serve) request(i int) Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.gen.Next())
	}
	return s.reqs[i]
}

// reply is what one request got back.
type reply struct {
	idx    int
	lat    float64
	done   time.Time
	status int
	sum    [32]byte
	err    error
}

func (s *serve) measure(seconds float64) (*e2e, error) {
	u := &e2e{byEndpoint: map[string][]float64{}, mix: map[string]int{}}
	o := exp.Defaults()
	o.Workers = 1
	probeWant, err := expected(o, probe)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	var d *daemonProc
	for i := 0; i < setupStarts; i++ {
		if d, err = startDaemon(filepath.Join(s.cfg.out, "wrhtd"), probeWant); err != nil {
			return nil, err
		}
		u.setup = append(u.setup, d.setup)
		if i < setupStarts-1 {
			if _, _, err := d.stop(); err != nil {
				u.fail("%v", err)
			}
		}
	}
	replies, start := s.loop(d.url, seconds)
	hits, requests, scrapeErr := scrape(d.url)
	cpu, rss, stopErr := d.stop()
	if scrapeErr != nil {
		u.fail("%v", scrapeErr)
	}
	if stopErr != nil {
		u.fail("%v", stopErr)
	}
	u.coalesceHits, u.apiRequests = hits, requests

	sort.Slice(replies, func(a, b int) bool { return replies[a].done.Before(replies[b].done) })
	u.window = replies[len(replies)-1].done.Sub(start).Seconds()
	for k := batch; k <= len(replies); k += batch {
		from := start
		if k > batch {
			from = replies[k-batch-1].done
		}
		u.unit = append(u.unit, replies[k-1].done.Sub(from).Seconds())
	}
	if len(u.unit) == 0 {
		u.unit = append(u.unit, u.window)
	}
	// Each request and each daemon run (its exit status) is an operation.
	u.attempted += len(replies) + setupStarts
	s.verify(u, replies)
	u.cpu = []float64{cpu / float64(len(replies))}
	u.rss = []float64{rss}
	return u, nil
}

// loop runs the closed loop for the given seconds: each client sends
// the next request of the sequence once its previous reply is in.
func (s *serve) loop(url string, seconds float64) ([]reply, time.Time) {
	var mu sync.Mutex
	next := 0
	var replies []reply
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: time.Minute}
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				rq := s.request(i)
				t0 := time.Now()
				status, body, err := post(client, url+"/v1/"+rq.Endpoint, rq.Body)
				r := reply{idx: i, lat: since(t0), status: status, sum: sha256.Sum256(body), err: err}
				r.done = time.Now()
				mu.Lock()
				replies = append(replies, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies, start
}

// verify checks every reply against the in-process executor's encoded
// response for the same request, computed now, outside the measured
// window, and — for the default seed — the recorded response digest.
func (s *serve) verify(u *e2e, replies []reply) {
	want := make([][32]byte, len(s.reqs))
	errs := make([]error, len(s.reqs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := exp.Defaults()
			o.Workers = 1
			for i := range next {
				b, err := expected(o, s.reqs[i])
				want[i], errs[i] = sha256.Sum256(b), err
			}
		}()
	}
	for i := range s.reqs {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, r := range replies {
		rq := s.reqs[r.idx]
		u.mix[rq.Class]++
		switch {
		case r.err != nil:
			u.fail("request %d %s: %v", r.idx, rq.Body, r.err)
		case r.status != http.StatusOK:
			u.fail("request %d %s: status %d", r.idx, rq.Body, r.status)
		case errs[r.idx] != nil:
			u.fail("request %d: in-process executor: %v", r.idx, errs[r.idx])
		case r.sum != want[r.idx]:
			u.fail("request %d %s: response differs from the in-process executor's", r.idx, rq.Body)
		default:
			u.lat = append(u.lat, r.lat)
			u.byEndpoint[rq.Endpoint] = append(u.byEndpoint[rq.Endpoint], r.lat)
		}
	}
	if s.cfg.seed == 1 && len(want) >= digestPrefix {
		if got := digest(want[:digestPrefix]); got != serveDigests[s.cfg.workload] {
			u.fail("seed 1 response digest %s, want %s", got, serveDigests[s.cfg.workload])
		}
	}
}

// digest folds per-response SHA-256 sums, in sequence order, into one.
func digest(sums [][32]byte) string {
	h := sha256.New()
	for _, s := range sums {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// post sends one request and reads the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads wrhtd's coalescing hits and request count, summed over
// endpoints, from its Prometheus exposition.
func scrape(url string) (hits, requests float64, err error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return 0, 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(val, 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "api_coalesce_hits{"):
			hits += v
		case strings.HasPrefix(name, "api_requests{"):
			requests += v
		}
	}
	return hits, requests, sc.Err()
}

// daemonProc is one running wrhtd child.
type daemonProc struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	// setup is the time from exec to the probe's first good answer.
	setup float64
}

// startDaemon starts wrhtd on a free loopback port and waits until it
// answers the probe with the expected bytes.
func startDaemon(path string, probeWant []byte) (*daemonProc, error) {
	d := &daemonProc{cmd: exec.Command(path, "-addr", "127.0.0.1:0")}
	lw := &firstLine{ch: make(chan string, 1)}
	d.cmd.Stdout = lw
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wrhtd: %w", err)
	}
	fail := func(err error) (*daemonProc, error) {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(d.stderr.Bytes()))
	}
	var line string
	select {
	case line = <-lw.ch:
	case <-time.After(30 * time.Second):
		return fail(errors.New("wrhtd printed no listen address within 30s"))
	}
	// "wrhtd 127.0.0.1:PORT serving ..."
	f := strings.Fields(line)
	if len(f) < 2 {
		return fail(fmt.Errorf("unexpected wrhtd banner %q", line))
	}
	d.url = "http://" + f[1]
	client := &http.Client{Timeout: 30 * time.Second}
	status, body, err := post(client, d.url+"/v1/"+probe.Endpoint, probe.Body)
	d.setup = since(t0)
	client.CloseIdleConnections()
	if err != nil || status != http.StatusOK || !bytes.Equal(body, probeWant) {
		return fail(fmt.Errorf("wrhtd probe failed: status %d, err %v", status, err))
	}
	return d, nil
}

// stop drains wrhtd with SIGTERM, waits for it, and returns its CPU
// seconds and peak RSS (MB). A non-zero exit is an error; the process
// has ended either way.
func (d *daemonProc) stop() (cpu, rssMB float64, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, fmt.Errorf("stopping wrhtd: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return 0, 0, errors.New("wrhtd did not drain within 60s of SIGTERM")
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wrhtd exit: %v: %s", err, bytes.TrimSpace(d.stderr.Bytes()))
	}
	cpu, rssMB = usage(d.cmd)
	return cpu, rssMB, nil
}

// firstLine is a writer that hands the first complete line written to
// it to ch and discards everything after.
type firstLine struct {
	buf  []byte
	sent bool
	ch   chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.ch <- string(f.buf[:i])
			f.sent = true
		}
	}
	return len(p), nil
}
