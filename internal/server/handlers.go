package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"lpath"
)

// statusClientClosed is the conventional (nginx) code for "client closed
// request"; it never reaches the disconnected client but keeps the logs and
// status counters honest.
const statusClientClosed = 499

// queryRequest is the JSON body of the /v1/query, /v1/count and /v1/explain
// endpoints.
type queryRequest struct {
	// Corpus names the registered corpus; may be empty when exactly one
	// corpus is loaded.
	Corpus string `json:"corpus"`
	// Query is the LPath query text.
	Query string `json:"query"`
	// Limit caps the matches returned by /v1/query (0 = server default;
	// values above the server maximum are clamped). The limit is pushed into
	// the engine: evaluation stops once the prefix is known, it does not
	// compute the full result and discard the tail.
	Limit int `json:"limit"`
	// Count requests the exact total match count on /v1/query even when the
	// limit truncates the match list, at the cost of one count-only
	// evaluation on top of the limited one. Without it, a truncated response
	// reports count -1 (unknown). Ignored by /v1/count and /v1/explain.
	Count bool `json:"count"`
	// TimeoutMS overrides the server's default per-request deadline, in
	// milliseconds (0 = default; clamped to the server maximum).
	TimeoutMS int `json:"timeout_ms"`
}

// matchJSON is one rendered match.
type matchJSON struct {
	Tree int    `json:"tree"`
	Tag  string `json:"tag"`
	Text string `json:"text,omitempty"`
}

// queryResponse is the /v1/query response; /v1/count omits Matches and
// Truncated; /v1/explain carries Explain instead. On /v1/query, Count is the
// exact total when it is known — the result was not truncated, or the request
// asked for it with "count": true — and -1 when the limited evaluation
// stopped early without learning it.
type queryResponse struct {
	Corpus    string      `json:"corpus"`
	Query     string      `json:"query"`
	Count     int         `json:"count"`
	Matches   []matchJSON `json:"matches,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
	Explain   string      `json:"explain,omitempty"`
	Cached    bool        `json:"cached"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// queryResult is the cached outcome of one /v1/query evaluation: an ordered
// prefix of the result set plus what is known about the total. An incomplete
// entry holds one match more than the limit that produced it — that extra
// match is how truncatedness stays decidable for every limit the entry can
// answer. One entry per (corpus, gen, query) serves all such limits.
type queryResult struct {
	matches    []matchJSON
	complete   bool // matches is the entire result set
	count      int  // exact total; valid only when countKnown
	countKnown bool
}

// canServe reports whether the entry answers a request with the given limit
// (and, when wantCount, an exact total). A complete entry answers anything;
// an incomplete one must hold strictly more than limit matches, so both the
// prefix and whether the limit truncated it are known.
func (qr *queryResult) canServe(limit int, wantCount bool) bool {
	if wantCount && !qr.countKnown {
		return false
	}
	return qr.complete || len(qr.matches) > limit
}

// render builds the response view for one limit. Matches aliases the cached
// slice read-only (capacity-clipped so callers cannot append into it); Count
// is -1 when the total is unknown.
func (qr *queryResult) render(limit int) *queryResponse {
	n := len(qr.matches)
	if n > limit {
		n = limit
	}
	resp := &queryResponse{
		Count:     -1,
		Matches:   qr.matches[:n:n],
		Truncated: !qr.complete || n < len(qr.matches),
	}
	if qr.countKnown {
		resp.Count = qr.count
	}
	return resp
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeQueryRequest parses and bounds-checks the request body.
func (s *Server) decodeQueryRequest(w http.ResponseWriter, r *http.Request) (*queryRequest, *Entry, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return nil, nil, false
	}
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return nil, nil, false
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return nil, nil, false
	}
	entry, ok := s.registry.Get(req.Corpus)
	if !ok {
		if req.Corpus == "" {
			writeError(w, http.StatusBadRequest, "multiple corpora loaded; specify \"corpus\"")
		} else {
			writeError(w, http.StatusNotFound, "unknown corpus %q", req.Corpus)
		}
		return nil, nil, false
	}
	if req.Limit <= 0 {
		req.Limit = s.cfg.DefaultLimit
	}
	if req.Limit > s.cfg.MaxLimit {
		req.Limit = s.cfg.MaxLimit
	}
	return &req, entry, true
}

// requestContext derives the evaluation context: the client disconnect (via
// r.Context()) plus the effective deadline — the request override clamped to
// the server maximum, or the server default.
func (s *Server) requestContext(r *http.Request, req *queryRequest) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// evalStatus maps an evaluation (or admission) error to its HTTP status.
func evalStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// handleEval is the shared core of /v1/query, /v1/count and /v1/explain:
// decode, admit, consult the result cache, evaluate under the request
// deadline, cache, respond.
func (s *Server) handleEval(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, entry, ok := s.decodeQueryRequest(w, r)
		if !ok {
			return
		}
		start := time.Now()

		ctx, cancel := s.requestContext(r, req)
		defer cancel()

		release, err := s.admission.Acquire(ctx)
		if err != nil {
			code := evalStatus(err)
			if errors.Is(err, ErrOverloaded) {
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, code, "%v", err)
			s.logRequest(r, kind, req, code, false, time.Since(start), err)
			return
		}
		defer release()

		key := resultKey{Corpus: entry.Name, Gen: entry.Gen, Kind: kind, Query: req.Query}
		usable := func(v any) bool {
			if kind != "query" {
				return true // count and explain results answer any request
			}
			qr, ok := v.(*queryResult)
			return ok && qr.canServe(req.Limit, req.Count)
		}
		if v, ok := s.cache.GetServe(key, usable); ok {
			var out queryResponse
			if kind == "query" {
				out = *v.(*queryResult).render(req.Limit)
				out.Corpus, out.Query = entry.Name, req.Query
				s.metrics.AddQueryResult(out.Truncated)
			} else {
				out = *v.(*queryResponse) // shallow copy: per-request fields differ
			}
			out.Cached = true
			out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
			writeJSON(w, http.StatusOK, &out)
			s.logRequest(r, kind, req, http.StatusOK, true, time.Since(start), nil)
			return
		}

		resp, cacheable, err := s.evaluate(ctx, kind, entry, req)
		if err != nil {
			code := evalStatus(err)
			writeError(w, code, "%v", err)
			s.logRequest(r, kind, req, code, false, time.Since(start), err)
			return
		}
		s.cache.Put(key, cacheable)
		if kind == "query" {
			s.metrics.AddQueryResult(resp.Truncated)
		}

		out := *resp
		out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		writeJSON(w, http.StatusOK, &out)
		s.logRequest(r, kind, req, http.StatusOK, false, time.Since(start), nil)
	}
}

// evaluate runs one uncached evaluation and builds the response plus the
// immutable value to cache (Cached=false, ElapsedMS unset; the handler stamps
// both). For "query" the cacheable value is a *queryResult — a limit-agnostic
// prefix the cache serves to later requests — not the rendered response.
func (s *Server) evaluate(ctx context.Context, kind string, entry *Entry, req *queryRequest) (*queryResponse, any, error) {
	resp := &queryResponse{Corpus: entry.Name, Query: req.Query}
	run := lpath.Request{Text: req.Query}
	switch kind {
	case "query":
		qr, err := s.evaluateQuery(ctx, entry, req)
		if err != nil {
			return nil, nil, err
		}
		resp = qr.render(req.Limit)
		resp.Corpus, resp.Query = entry.Name, req.Query
		return resp, qr, nil
	case "count":
		run.Mode = lpath.ModeCount
	case "explain":
		run.Mode = lpath.ModeExplain
	default:
		return nil, nil, fmt.Errorf("unknown evaluation kind %q", kind)
	}
	res, err := entry.Corpus.Run(ctx, run)
	if err != nil {
		return nil, nil, err
	}
	resp.Count, resp.Explain = res.Count, res.Explain
	return resp, resp, nil
}

// evaluateQuery runs one uncached /v1/query evaluation with the limit pushed
// into the engine: the corpus streams matches in (tree, document) order and
// stops after limit+1 — the extra match is how the server learns whether the
// limit truncated the result without evaluating the rest of the corpus. The
// exact total costs a separate count-only evaluation and is computed only
// when the request asks for it (or comes free because the stream ran dry).
func (s *Server) evaluateQuery(ctx context.Context, entry *Entry, req *queryRequest) (*queryResult, error) {
	res, err := entry.Corpus.Run(ctx, lpath.Request{Text: req.Query, Limit: req.Limit + 1})
	if err != nil {
		return nil, err
	}
	qr := foldResult(res, req.Limit)
	if req.Count && !qr.countKnown {
		res, err := entry.Corpus.Run(ctx, lpath.Request{Text: req.Query, Mode: lpath.ModeCount})
		if err != nil {
			return nil, err
		}
		qr.count, qr.countKnown = res.Count, true
	}
	return qr, nil
}

// foldResult builds the cacheable queryResult from a limit+1 evaluation: a
// stream that ran dry within the limit is the complete result, total known.
func foldResult(res lpath.Result, limit int) *queryResult {
	ms := res.Matches
	qr := &queryResult{matches: make([]matchJSON, len(ms))}
	for i, m := range ms {
		qr.matches[i] = matchJSON{
			Tree: m.TreeID,
			Tag:  m.Node.Tag,
			Text: strings.Join(m.Node.Words(), " "),
		}
	}
	if len(ms) <= limit {
		qr.complete, qr.count, qr.countKnown = true, len(ms), true
	}
	return qr
}

// handleHealthz reports readiness: 200 with the corpus inventory once at
// least one corpus is registered, 503 before that.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type corpusJSON struct {
		Name      string `json:"name"`
		Gen       uint64 `json:"generation"`
		Sentences int    `json:"sentences"`
		Nodes     int    `json:"nodes"`
	}
	entries := s.registry.Entries()
	if len(entries) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "loading", "corpora": []corpusJSON{}})
		return
	}
	out := make([]corpusJSON, len(entries))
	for i, e := range entries {
		// Set built the store, so Counts only reads it and cannot fail.
		trees, nodes, _, _ := e.Corpus.Counts()
		out[i] = corpusJSON{Name: e.Name, Gen: e.Gen, Sentences: trees, Nodes: nodes}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "corpora": out})
}

// handleMetrics renders the Prometheus text exposition: request metrics plus
// admission and result-cache gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w,
		func(w io.Writer) {
			st := s.admission.Stats()
			fmt.Fprintf(w, "# HELP lpathd_admission_in_flight Queries currently evaluating.\n")
			fmt.Fprintf(w, "# TYPE lpathd_admission_in_flight gauge\n")
			fmt.Fprintf(w, "lpathd_admission_in_flight %d\n", st.InFlight)
			fmt.Fprintf(w, "# HELP lpathd_admission_queued Requests waiting for an evaluation slot.\n")
			fmt.Fprintf(w, "# TYPE lpathd_admission_queued gauge\n")
			fmt.Fprintf(w, "lpathd_admission_queued %d\n", st.Queued)
			fmt.Fprintf(w, "# HELP lpathd_admission_total Admission outcomes.\n")
			fmt.Fprintf(w, "# TYPE lpathd_admission_total counter\n")
			fmt.Fprintf(w, "lpathd_admission_total{outcome=\"admitted\"} %d\n", st.Admitted)
			fmt.Fprintf(w, "lpathd_admission_total{outcome=\"shed\"} %d\n", st.Shed)
			fmt.Fprintf(w, "lpathd_admission_total{outcome=\"queue_timeout\"} %d\n", st.Timeouts)
		},
		func(w io.Writer) {
			st := s.cache.Stats()
			fmt.Fprintf(w, "# HELP lpathd_result_cache Result cache counters.\n")
			fmt.Fprintf(w, "# TYPE lpathd_result_cache counter\n")
			fmt.Fprintf(w, "lpathd_result_cache{event=\"hit\"} %d\n", st.Hits)
			fmt.Fprintf(w, "lpathd_result_cache{event=\"miss\"} %d\n", st.Misses)
			fmt.Fprintf(w, "lpathd_result_cache{event=\"eviction\"} %d\n", st.Evictions)
			fmt.Fprintf(w, "lpathd_result_cache{event=\"bytes_eviction\"} %d\n", st.BytesEvictions)
			fmt.Fprintf(w, "# HELP lpathd_result_cache_entries Result cache occupancy.\n")
			fmt.Fprintf(w, "# TYPE lpathd_result_cache_entries gauge\n")
			fmt.Fprintf(w, "lpathd_result_cache_entries %d\n", st.Len)
			fmt.Fprintf(w, "# HELP lpathd_result_cache_bytes Estimated resident bytes of cached results.\n")
			fmt.Fprintf(w, "# TYPE lpathd_result_cache_bytes gauge\n")
			fmt.Fprintf(w, "lpathd_result_cache_bytes %d\n", st.Bytes)
		},
	)
}

// logRequest emits one structured log line per query request.
func (s *Server) logRequest(r *http.Request, kind string, req *queryRequest, code int, cached bool, elapsed time.Duration, err error) {
	if s.cfg.Logger == nil {
		return
	}
	attrs := []any{
		slog.String("endpoint", kind),
		slog.String("corpus", req.Corpus),
		slog.String("query", req.Query),
		slog.Int("status", code),
		slog.Bool("cached", cached),
		slog.Duration("elapsed", elapsed),
		slog.String("remote", r.RemoteAddr),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
		s.cfg.Logger.Warn("query", attrs...)
		return
	}
	s.cfg.Logger.Info("query", attrs...)
}
