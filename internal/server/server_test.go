package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lpath"
)

// testCorpus builds a small deterministic corpus with a plan cache, the way
// lpathd registers them.
func testCorpus(t testing.TB) *lpath.Corpus {
	t.Helper()
	c, err := lpath.GenerateCorpus("wsj", 0.005, 11)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestServer(t testing.TB, cfg Config) (*Server, *lpath.Corpus) {
	t.Helper()
	c := testCorpus(t)
	reg := NewRegistry()
	if _, err := reg.Set("wsj", c); err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg), c
}

func postJSON(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeResponse(t testing.TB, w *httptest.ResponseRecorder) queryResponse {
	t.Helper()
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return resp
}

func TestQueryCountExplainEndpoints(t *testing.T) {
	s, c := newTestServer(t, Config{})
	h := s.Handler()

	for _, query := range []string{`//NP`, `//VP/VB-->NN`, `//S[//NP/ADJP]`} {
		want, err := c.CountText(query)
		if err != nil {
			t.Fatal(err)
		}

		// Without "count": true a truncated response does not learn the
		// total — the limited evaluation stops early and reports -1.
		w := postJSON(t, h, "/v1/query", queryRequest{Query: query, Limit: 1})
		if resp := decodeResponse(t, w); want > 1 && (resp.Count != -1 || !resp.Truncated) {
			t.Errorf("query %s limit=1: count=%d truncated=%v, want -1/true", query, resp.Count, resp.Truncated)
		}

		w = postJSON(t, h, "/v1/query", queryRequest{Query: query, Limit: 5, Count: true})
		if w.Code != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", query, w.Code, w.Body.String())
		}
		resp := decodeResponse(t, w)
		if resp.Count != want {
			t.Errorf("query %s: count %d, want %d", query, resp.Count, want)
		}
		if want > 5 && (!resp.Truncated || len(resp.Matches) != 5) {
			t.Errorf("query %s: %d matches truncated=%v, want 5 truncated", query, len(resp.Matches), resp.Truncated)
		}
		if resp.Corpus != "wsj" {
			t.Errorf("query %s: corpus %q", query, resp.Corpus)
		}

		w = postJSON(t, h, "/v1/count", queryRequest{Query: query})
		if w.Code != http.StatusOK {
			t.Fatalf("count %s: status %d: %s", query, w.Code, w.Body.String())
		}
		if resp := decodeResponse(t, w); resp.Count != want || resp.Matches != nil {
			t.Errorf("count %s: count=%d matches=%d, want count=%d matches=0", query, resp.Count, len(resp.Matches), want)
		}

		w = postJSON(t, h, "/v1/explain", queryRequest{Query: query})
		if w.Code != http.StatusOK {
			t.Fatalf("explain %s: status %d: %s", query, w.Code, w.Body.String())
		}
		if resp := decodeResponse(t, w); !strings.Contains(resp.Explain, "plan:") {
			t.Errorf("explain %s: report %q lacks a plan section", query, resp.Explain)
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"compile error", "/v1/query", queryRequest{Query: `//VP[`}, http.StatusBadRequest},
		{"missing query", "/v1/query", queryRequest{}, http.StatusBadRequest},
		{"unknown corpus", "/v1/count", queryRequest{Corpus: "nope", Query: `//NP`}, http.StatusNotFound},
		{"bad json", "/v1/query", "not json", http.StatusBadRequest},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			w := postJSON(t, h, tt.path, tt.body)
			if w.Code != tt.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tt.want, w.Body.String())
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error body %q not an error JSON", w.Body.String())
			}
		})
	}

	t.Run("GET rejected", func(t *testing.T) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/query", nil))
		if w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", w.Code)
		}
	})
}

// TestTooDeepQueryIs400: a query nested past the parser's bound is a bad
// request like any other malformed query, refused at once, and the server
// answers the next request as usual.
func TestTooDeepQueryIs400(t *testing.T) {
	s, c := newTestServer(t, Config{})
	h := s.Handler()
	deep := strings.Repeat(`//A[`, 10000) + `//B` + strings.Repeat(`]`, 10000)
	start := time.Now()
	w := postJSON(t, h, "/v1/count", queryRequest{Query: deep})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("deep query: status %d, want 400: %s", w.Code, w.Body.String())
	}
	// The body names the offset and quotes a window of the query, not all
	// 80 KB of it.
	if body := w.Body.String(); len(body) > 200 || !strings.Contains(body, "offset") {
		t.Errorf("deep query: %d-byte 400 body %q, want at most 200 naming the offset", len(body), body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deep query refused after %v", elapsed)
	}
	want, err := c.CountText(`//NP`)
	if err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, h, "/v1/count", queryRequest{Query: `//NP`})
	if resp := decodeResponse(t, w); w.Code != http.StatusOK || resp.Count != want {
		t.Errorf("next request: status %d count %d, want 200 and %d", w.Code, resp.Count, want)
	}
}

func TestDeadlineYields504(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based deadline test")
	}
	// Force the per-binding probe executor: its nested existential probes
	// make this query run far past the deadline, with a cancellation
	// checkpoint on every binding.
	c, err := lpath.GenerateCorpus("wsj", 0.02, 7, lpath.WithoutPlanner())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Set("big", c); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{CacheSize: -1})
	h := s.Handler()

	w := postJSON(t, h, "/v1/count", queryRequest{Query: `//_[//_[//_]]`, TimeoutMS: 1})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
}

func TestResultCacheHitAndInvalidation(t *testing.T) {
	s, c := newTestServer(t, Config{})
	h := s.Handler()
	const query = `//NP/ADJP`

	w := postJSON(t, h, "/v1/count", queryRequest{Query: query})
	if resp := decodeResponse(t, w); resp.Cached {
		t.Fatal("first request reported cached")
	}
	w = postJSON(t, h, "/v1/count", queryRequest{Query: query})
	if resp := decodeResponse(t, w); !resp.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if st := s.cache.Stats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v, want 1 hit", st)
	}

	// /v1/query entries are keyed per query, not per limit: one stored
	// prefix answers every limit it covers, so a smaller limit is a hit.
	w = postJSON(t, h, "/v1/query", queryRequest{Query: query, Limit: 2})
	if resp := decodeResponse(t, w); resp.Cached {
		t.Fatal("limit=2 select unexpectedly cached")
	}
	w = postJSON(t, h, "/v1/query", queryRequest{Query: query, Limit: 1})
	if resp := decodeResponse(t, w); !resp.Cached {
		t.Fatal("limit=1 select not served from the limit=2 entry")
	}

	// Swapping the corpus bumps the generation: the old entries must not
	// serve the new corpus.
	if _, err := s.registry.Set("wsj", c); err != nil {
		t.Fatal(err)
	}
	s.InvalidateCorpus("wsj")
	w = postJSON(t, h, "/v1/count", queryRequest{Query: query})
	if resp := decodeResponse(t, w); resp.Cached {
		t.Fatal("post-swap request served a stale generation")
	}
}

func TestHealthz(t *testing.T) {
	empty := New(NewRegistry(), Config{})
	w := httptest.NewRecorder()
	empty.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty registry: status %d, want 503", w.Code)
	}

	s, _ := newTestServer(t, Config{})
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("loaded registry: status %d", w.Code)
	}
	var body struct {
		Status  string `json:"status"`
		Corpora []struct {
			Name      string `json:"name"`
			Sentences int    `json:"sentences"`
		} `json:"corpora"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || len(body.Corpora) != 1 || body.Corpora[0].Name != "wsj" || body.Corpora[0].Sentences == 0 {
		t.Fatalf("healthz body %s", w.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	postJSON(t, h, "/v1/query", queryRequest{Query: `//NP`})
	postJSON(t, h, "/v1/query", queryRequest{Query: `//NP`}) // cache hit
	postJSON(t, h, "/v1/count", queryRequest{Query: `//VP[`})

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`lpathd_requests_total{endpoint="query",code="200"} 2`,
		`lpathd_requests_total{endpoint="count",code="400"} 1`,
		`lpathd_request_duration_seconds_count{endpoint="query"} 2`,
		`lpathd_result_cache{event="hit"} 1`,
		`lpathd_admission_total{outcome="admitted"}`,
		`lpathd_query_results_total{limit_hit=`,
		`lpathd_in_flight{endpoint="query"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
	for _, retired := range []string{"lpathd_batch", "lpathd_plan_cache"} {
		if strings.Contains(body, retired) {
			t.Errorf("metrics output still exports the retired %s series", retired)
		}
	}
}

// TestMetricsExposeCacheBytes: the /metrics exposition carries the
// result-cache byte gauge and the byte-bound eviction counter.
func TestMetricsExposeCacheBytes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	postJSON(t, h, "/v1/query", queryRequest{Query: `//NP`, Limit: 2})

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		"lpathd_result_cache_bytes",
		`lpathd_result_cache{event="bytes_eviction"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}

// TestConcurrentDistinctQueryMisses sends distinct limited /v1/query
// requests from more goroutines than there are evaluation slots, so they
// overlap in the engine and queue at admission. Every one is a cache miss
// and must answer exactly what its own limit+1 evaluation folds to: the
// first limit matches, truncated, total unknown.
func TestConcurrentDistinctQueryMisses(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 64, QueueWait: time.Minute})
	h := s.Handler()
	var reqs []queryRequest
	for _, tag := range []string{"NP", "VP", "S", "NN", "DT", "PP", "IN", "VB"} {
		for _, tmpl := range []string{`//%s`, `//S//%s`} {
			reqs = append(reqs, queryRequest{Query: fmt.Sprintf(tmpl, tag), Limit: 1 + len(reqs)%4})
		}
	}
	want := make([]*queryResponse, len(reqs))
	for i, rq := range reqs {
		res, err := c.Run(context.Background(), lpath.Request{Text: rq.Query, Limit: rq.Limit + 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) <= rq.Limit {
			t.Fatalf("%s has %d matches, not more than its limit %d", rq.Query, len(res.Matches), rq.Limit)
		}
		want[i] = foldResult(res, rq.Limit).render(rq.Limit)
	}

	got := make([]*httptest.ResponseRecorder, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		body, err := json.Marshal(rq)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		}()
	}
	wg.Wait()
	for i, rq := range reqs {
		if got[i].Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rq.Query, got[i].Code, got[i].Body.String())
		}
		resp := decodeResponse(t, got[i])
		if resp.Cached || !resp.Truncated || resp.Count != -1 || !reflect.DeepEqual(resp.Matches, want[i].Matches) {
			t.Errorf("%s limit %d: cached=%v truncated=%v count=%d matches %+v, want a truncated miss with count -1 and %+v",
				rq.Query, rq.Limit, resp.Cached, resp.Truncated, resp.Count, resp.Matches, want[i].Matches)
		}
	}
}

// TestQueryLimitPushdown pins the /v1/query early-termination contract on a
// corpus with a known match count: truncatedness comes from probing one match
// past the limit, the exact total appears only when requested (or free), and
// one cached prefix serves every limit it covers — growing as bigger limits
// re-evaluate, never duplicating per limit.
func TestQueryLimitPushdown(t *testing.T) {
	c := lpath.NewCorpus()
	for i := 0; i < 6; i++ {
		if err := c.AddSentence(`(S (NP (N a)) (VP (V b)))`); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	if _, err := reg.Set("tiny", c); err != nil {
		t.Fatal(err)
	}
	h := New(reg, Config{}).Handler()
	const query = `//NP` // exactly 6 matches, one per tree

	step := func(limit int, count bool) queryResponse {
		t.Helper()
		w := postJSON(t, h, "/v1/query", queryRequest{Query: query, Limit: limit, Count: count})
		if w.Code != http.StatusOK {
			t.Fatalf("limit=%d count=%v: status %d: %s", limit, count, w.Code, w.Body.String())
		}
		return decodeResponse(t, w)
	}
	check := func(got queryResponse, matches, total int, truncated, cached bool) {
		t.Helper()
		if len(got.Matches) != matches || got.Count != total || got.Truncated != truncated || got.Cached != cached {
			t.Fatalf("got %d matches count=%d truncated=%v cached=%v, want %d/%d/%v/%v",
				len(got.Matches), got.Count, got.Truncated, got.Cached, matches, total, truncated, cached)
		}
	}

	check(step(2, false), 2, -1, true, false)  // probes 3 of 6: truncated, total unknown
	check(step(1, false), 1, -1, true, true)   // prefix-served from the limit=2 entry
	check(step(3, false), 3, -1, true, false)  // entry holds only 3: must re-evaluate
	check(step(2, true), 2, 6, true, false)    // count requested: exact total computed
	check(step(1, true), 1, 6, true, true)     // count now cached alongside the prefix
	check(step(10, false), 6, 6, false, false) // past the end: complete, count free
	check(step(2, true), 2, 6, true, true)     // complete entry answers everything
}

// TestHTTPRoundTrip exercises the handler over a real listener, the way
// lpathd serves it.
func TestHTTPRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/count", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query":%q}`, `//NP`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
