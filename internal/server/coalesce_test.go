package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCoalesceGroupsConcurrentRequests drives the full gather/flush protocol
// deterministically: a blocked solo evaluation forces three follow-on
// requests (two of them identical) to gather, and the flushed batch must
// answer each with exactly what a direct evaluation returns, with the
// batch-size and dedup counters reflecting the grouping.
func TestCoalesceGroupsConcurrentRequests(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 8, BatchWindow: 500 * time.Millisecond})
	h := s.Handler()

	soloStarted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	realOne := s.coal.one
	s.coal.one = func(ctx context.Context, entry *Entry, query string, limit int) (*queryResult, error) {
		once.Do(func() {
			close(soloStarted)
			<-release
		})
		return realOne(ctx, entry, query, limit)
	}

	// Request A takes the solo fast path and blocks inside evaluation.
	var aResp queryResponse
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := postJSON(t, h, "/v1/query", queryRequest{Query: `//S`, Limit: 5})
		aResp = decodeResponse(t, w)
	}()
	<-soloStarted

	// B, C, D arrive while A executes: they must gather into one group.
	type result struct {
		code int
		resp queryResponse
	}
	reqs := []queryRequest{
		{Query: `//NP`, Limit: 5},
		{Query: `//NP`, Limit: 3},
		{Query: `//VP`, Limit: 5},
	}
	results := make([]result, len(reqs))
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq queryRequest) {
			defer wg.Done()
			w := postJSON(t, h, "/v1/query", rq)
			results[i] = result{w.Code, decodeResponse(t, w)}
		}(i, rq)
	}
	// Wait until all three hold seats in the pending group, then unblock A.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.coal.mu.Lock()
		var seats int
		for _, g := range s.coal.pending {
			seats += len(g.calls)
		}
		s.coal.mu.Unlock()
		if seats == len(reqs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests joined the gather group", seats, len(reqs))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if aResp.Query != `//S` {
		t.Errorf("solo response: %+v", aResp)
	}
	for i, rq := range reqs {
		if results[i].code != http.StatusOK {
			t.Fatalf("request %d (%s): status %d", i, rq.Query, results[i].code)
		}
		direct, err := c.SelectLimitTextContext(context.Background(), rq.Query, rq.Limit)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i].resp.Matches
		if len(got) != len(direct) {
			t.Errorf("request %d (%s limit %d): %d matches, direct %d",
				i, rq.Query, rq.Limit, len(got), len(direct))
			continue
		}
		for j, m := range direct {
			want := matchJSON{Tree: m.TreeID, Tag: m.Node.Tag, Text: strings.Join(m.Node.Words(), " ")}
			if !reflect.DeepEqual(got[j], want) {
				t.Errorf("request %d match %d: got %+v, want %+v", i, j, got[j], want)
			}
		}
	}

	st := s.coal.Stats()
	if st.SizeTotal != 2 { // A's solo evaluation + one flushed batch
		t.Errorf("batches observed = %d, want 2", st.SizeTotal)
	}
	if st.SizeSum != 3 { // solo size 1 + batch of 2 unique texts
		t.Errorf("batch size sum = %d, want 3", st.SizeSum)
	}
	if st.Dedup != 1 { // the duplicate //NP collapsed into one slot
		t.Errorf("dedup = %d, want 1", st.Dedup)
	}
	if st.Coalesced != 3 {
		t.Errorf("coalesced requests = %d, want 3", st.Coalesced)
	}
}

// TestCoalesceSoloBypass pins the zero-latency contract at concurrency one:
// with an enormous gather window, an isolated request must still answer
// immediately because the idle coalescer bypasses the window entirely.
func TestCoalesceSoloBypass(t *testing.T) {
	s, _ := newTestServer(t, Config{BatchWindow: 30 * time.Second})
	h := s.Handler()
	start := time.Now()
	w := postJSON(t, h, "/v1/query", queryRequest{Query: `//NP`, Limit: 3})
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if elapsed >= 30*time.Second {
		t.Fatalf("solo request waited the gather window (%v)", elapsed)
	}
	// Generous bound: evaluation of //NP on the test corpus is microseconds;
	// anything near the window means the bypass is broken.
	if elapsed > 5*time.Second {
		t.Errorf("solo request took %v with a 30s window; bypass not effective", elapsed)
	}
	if resp := decodeResponse(t, w); len(resp.Matches) != 3 {
		t.Errorf("%d matches, want 3", len(resp.Matches))
	}
}

// TestCoalesceDisabled: a negative window turns the coalescer off entirely
// and /v1/query serves through the direct streaming path.
func TestCoalesceDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{BatchWindow: -1})
	if s.coal != nil {
		t.Fatal("negative BatchWindow left the coalescer enabled")
	}
	w := postJSON(t, s.Handler(), "/v1/query", queryRequest{Query: `//NP`, Limit: 2})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp := decodeResponse(t, w); len(resp.Matches) != 2 {
		t.Errorf("%d matches, want 2", len(resp.Matches))
	}
}

// TestMetricsExposeBatchAndCacheBytes: the /metrics exposition carries the
// batch-size histogram, the dedup counter and the result-cache byte gauges.
func TestMetricsExposeBatchAndCacheBytes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	postJSON(t, h, "/v1/query", queryRequest{Query: `//NP`, Limit: 2})

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{
		`lpathd_batch_size_bucket{le="1"} 1`,
		"lpathd_batch_size_sum 1",
		"lpathd_batch_size_count 1",
		"lpathd_batch_dedup_total 0",
		"lpathd_batch_coalesced_total 0",
		"lpathd_result_cache_bytes",
		`lpathd_result_cache{event="bytes_eviction"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}
