package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"lpath"
	"lpath/internal/server"
)

// planCacheSize is lpathd's -plan-cache default; the benchmark serves the way
// the daemon does out of the box.
const planCacheSize = 128

// serveWorkload drives internal/server over loopback HTTP: serve_hot and
// serve_distinct differ only in their request sequence.
type serveWorkload struct {
	cfg         *config
	snapshot    string
	meta        *corpusMeta
	seq         *opSeq
	sampleEvery int // verify 1 in this many distinct texts against the oracle
	traceOps    int

	corpus *lpath.Corpus
	live   *liveServer

	clients []*client
	// Deltas over the timed phase, scraped from /metrics and PlanCacheStats.
	counters map[string]float64
}

func newServe(cfg *config, snapshot string, meta *corpusMeta, seq *opSeq, sampleEvery, traceOps int) *serveWorkload {
	if traceOps > len(seq.Ops) {
		traceOps = len(seq.Ops)
	}
	return &serveWorkload{cfg: cfg, snapshot: snapshot, meta: meta, seq: seq, sampleEvery: sampleEvery, traceOps: traceOps}
}

// setup is a restart of lpathd: map the snapshot, register the corpus,
// listen, and warm the caches with the workload's warm-up pass.
func (w *serveWorkload) setup() error {
	c, err := lpath.OpenStore(w.snapshot, lpath.WithPlanCache(planCacheSize))
	if err != nil {
		return err
	}
	w.corpus = c
	if w.live, err = startServer(c, server.Config{}); err != nil {
		return err
	}
	cl := newClient(w.live.url, w.seq)
	defer cl.close()
	for _, k := range w.seq.Warm {
		if _, err := cl.post(k); err != nil {
			return fmt.Errorf("warm-up %s %s: %w", w.seq.Reqs[k].path(), w.seq.Reqs[k].Text, err)
		}
	}
	return nil
}

// liveServer is internal/server listening on a loopback port.
type liveServer struct {
	srv    *server.Server
	http   *http.Server
	served chan struct{} // closed when http.Serve returns
	url    string
}

// startServer serves c with cfg on a fresh loopback port.
func startServer(c *lpath.Corpus, cfg server.Config) (*liveServer, error) {
	reg := server.NewRegistry()
	if _, err := reg.Set(corpusProfile, c); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{srv: server.New(reg, cfg), served: make(chan struct{}), url: "http://" + ln.Addr().String()}
	l.http = &http.Server{Handler: l.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(l.served)
		l.http.Serve(ln) // returns ErrServerClosed after stop
	}()
	return l, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (l *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.http.Shutdown(ctx); err != nil {
		l.http.Close()
	}
	<-l.served
}

func (w *serveWorkload) teardown() {
	for _, cl := range w.clients {
		cl.close() // the answers they kept stay, for verify
	}
	if w.live != nil {
		w.live.stop()
		w.live = nil
	}
	if w.corpus != nil {
		w.corpus.Close()
		w.corpus = nil
	}
	release()
}

// client is one closed-loop caller with one keep-alive connection. It keeps
// the answer part of the first response to every distinct request and
// compares each repeat against it byte for byte, so every answer is checked
// while the timed loop pays only a comparison; verify decodes the kept ones.
type client struct {
	url  string
	seq  *opSeq
	http *http.Client
	buf  bytes.Buffer

	lat    []time.Duration
	failed int
	canon  [][]byte // per request: the first answer seen
	hits   []int32  // per request: responses that agreed with canon
}

func newClient(url string, seq *opSeq) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	const ops = 1 << 16 // room for a few seconds of serve_hot before the first regrowth
	return &client{
		url: url, seq: seq, http: &http.Client{Transport: tr},
		lat:   make([]time.Duration, 0, ops),
		canon: make([][]byte, len(seq.Reqs)), hits: make([]int32, len(seq.Reqs)),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends request k and returns the body of a 200 response; the body is
// valid until the next post.
func (c *client) post(k int32) ([]byte, error) {
	r := &c.seq.Reqs[k]
	resp, err := c.http.Post(c.url+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// answerPart cuts the per-request fields (cached, elapsed_ms) off a response
// body; what is left must be the same every time the request is answered.
func answerPart(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"cached":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// op is one timed operation: bytes out, bytes in, then the answer compared.
func (c *client) op(k int32) {
	start := time.Now()
	body, err := c.post(k)
	c.lat = append(c.lat, time.Since(start))
	if err != nil {
		c.failed++
		return
	}
	c.check(k, body)
}

// check keeps the first answer to request k and fails an op whose answer
// differs from it.
func (c *client) check(k int32, body []byte) {
	ans := answerPart(body)
	switch {
	case c.canon[k] == nil:
		c.canon[k] = append([]byte(nil), ans...)
		c.hits[k]++
	case bytes.Equal(c.canon[k], ans):
		c.hits[k]++
	default:
		c.failed++
	}
}

func (w *serveWorkload) run(d time.Duration) (*samples, error) {
	w.clients = make([]*client, w.cfg.Clients)
	for i := range w.clients {
		w.clients[i] = newClient(w.live.url, w.seq)
	}
	before, err := w.scrape()
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				cl.op(w.seq.Ops[i%int64(len(w.seq.Ops))])
			}
		}()
	}
	wg.Wait()
	s := &samples{wall: time.Since(start)}
	after, err := w.scrape()
	if err != nil {
		return nil, err
	}
	w.counters = make(map[string]float64, len(after))
	for k, v := range after {
		w.counters[k] = v - before[k]
	}
	w.counters["lpathd_result_cache_bytes"] = after["lpathd_result_cache_bytes"] // a gauge
	for _, cl := range w.clients {
		s.lat = append(s.lat, cl.lat...)
		s.failed += cl.failed
	}
	return s, nil
}

// scrape reads the server's counters from outside: GET /metrics plus the
// corpus's plan-cache statistics.
func (w *serveWorkload) scrape() (map[string]float64, error) {
	resp, err := http.Get(w.live.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := parsePrometheus(string(text))
	pc := w.corpus.PlanCacheStats()
	m["plan_cache_hits"] = float64(pc.Hits)
	m["plan_cache_misses"] = float64(pc.Misses)
	m["plan_cache_evictions"] = float64(pc.Evictions)
	return m, nil
}

// wireMatch and wireAnswer are the parts of a response that are the answer.
type wireMatch struct {
	Tree int    `json:"tree"`
	Tag  string `json:"tag"`
	Text string `json:"text"`
}

type wireAnswer struct {
	Count     int         `json:"count"`
	Matches   []wireMatch `json:"matches"`
	Truncated bool        `json:"truncated"`
}

// verify merges the clients' kept answers and decodes each once. Every
// answer gets the structural checks; answers to sampled texts (all of
// serve_hot's, 1 in 128 of serve_distinct's) are compared with the oracle.
// A wrong kept answer fails every op that repeated it.
func (w *serveWorkload) verify(o *oracle) (int, error) {
	failed := 0
	oracled := make(map[string]*expected)
	for k := range w.seq.Reqs {
		var canon []byte
		hits := 0
		for _, cl := range w.clients {
			switch {
			case cl.canon[k] == nil:
			case canon == nil:
				canon, hits = cl.canon[k], int(cl.hits[k])
			case bytes.Equal(canon, cl.canon[k]):
				hits += int(cl.hits[k])
			default: // two clients were told different things
				failed += int(cl.hits[k])
			}
		}
		if canon == nil {
			continue
		}
		r := &w.seq.Reqs[k]
		var got wireAnswer
		if err := json.Unmarshal(append(append([]byte(nil), canon...), '}'), &got); err != nil {
			failed += hits
			continue
		}
		var want *expected
		if sampled(r.Text, w.cfg.Seed, w.sampleEvery) {
			if want = oracled[r.Text]; want == nil {
				n, first, err := o.answer(r.Text, queryLimit)
				if err != nil {
					return 0, fmt.Errorf("oracle on %s: %w", r.Text, err)
				}
				want = &expected{n, first}
				oracled[r.Text] = want
			}
		}
		if !answerOK(r, &got, want) {
			failed += hits
		}
	}
	return failed, nil
}

// expected is the oracle's answer to a query text: the total count and the
// first queryLimit matches.
type expected struct {
	count int
	first []wireMatch
}

// answerOK checks one decoded answer: always that it is consistent with
// itself and the request, and against want when the oracle was asked.
func answerOK(r *request, got *wireAnswer, want *expected) bool {
	if r.Count {
		return got.Count >= 0 && (want == nil || got.Count == want.count)
	}
	n := len(got.Matches)
	switch {
	case n > queryLimit:
		return false
	case got.Truncated && (n != queryLimit || got.Count != -1):
		// No request asks for the exact total, so a truncated answer
		// carries none.
		return false
	case !got.Truncated && got.Count != n:
		return false
	}
	if want == nil {
		return true
	}
	if got.Truncated != (want.count > queryLimit) || (!got.Truncated && got.Count != want.count) {
		return false
	}
	return n == len(want.first) && (n == 0 || reflect.DeepEqual(got.Matches, want.first))
}
