package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the fixed histogram bucket upper bounds, in seconds.
// They span sub-millisecond cache hits through multi-second scans; the
// +Inf bucket is implicit.
var latencyBuckets = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram with atomic counters, cheap
// enough to sit on every request path.
type histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Uint64 // last = +Inf
	sum    atomic.Uint64                          // microseconds, to stay integral
	total  atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], s)
	h.counts[i].Add(1)
	h.sum.Add(uint64(d.Microseconds()))
	h.total.Add(1)
}

// endpointMetrics aggregates one endpoint's traffic: latency distribution,
// in-flight gauge and status-code counts.
type endpointMetrics struct {
	latency  histogram
	inFlight atomic.Int64
	status   sync.Map // int → *atomic.Uint64
}

func (e *endpointMetrics) observe(code int, d time.Duration) {
	e.latency.observe(d)
	v, ok := e.status.Load(code)
	if !ok {
		v, _ = e.status.LoadOrStore(code, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Add(1)
}

// Metrics is the server-wide metrics registry, rendered in Prometheus text
// exposition format by WritePrometheus. Everything is lock-free on the hot
// path (atomics and sync.Map); the render path takes snapshots.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics

	// /v1/query truncation outcomes: responses whose limit cut the match
	// list (limit_hit=true, the early-termination fast path) vs complete
	// result sets. Cached and uncached responses both count.
	QueryTruncated atomic.Uint64
	QueryComplete  atomic.Uint64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{endpoints: make(map[string]*endpointMetrics)}
}

// Endpoint returns (creating if needed) the named endpoint's collector.
func (m *Metrics) Endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.endpoints[name]
	if !ok {
		e = &endpointMetrics{}
		m.endpoints[name] = e
	}
	return e
}

// AddQueryResult records whether a served /v1/query response was truncated by
// its limit.
func (m *Metrics) AddQueryResult(limitHit bool) {
	if limitHit {
		m.QueryTruncated.Add(1)
	} else {
		m.QueryComplete.Add(1)
	}
}

// WritePrometheus renders every metric in Prometheus text format. The extra
// closures let the server contribute gauges owned elsewhere (admission,
// caches) without this package importing them circularly.
func (m *Metrics) WritePrometheus(w io.Writer, extra ...func(io.Writer)) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	eps := make([]*endpointMetrics, len(names))
	for i, name := range names {
		eps[i] = m.endpoints[name]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP lpathd_requests_total Requests served, by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE lpathd_requests_total counter\n")
	for i, name := range names {
		type sc struct {
			code int
			n    uint64
		}
		var codes []sc
		eps[i].status.Range(func(k, v any) bool {
			codes = append(codes, sc{k.(int), v.(*atomic.Uint64).Load()})
			return true
		})
		sort.Slice(codes, func(a, b int) bool { return codes[a].code < codes[b].code })
		for _, c := range codes {
			fmt.Fprintf(w, "lpathd_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, c.code, c.n)
		}
	}

	fmt.Fprintf(w, "# HELP lpathd_in_flight In-flight requests, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE lpathd_in_flight gauge\n")
	for i, name := range names {
		fmt.Fprintf(w, "lpathd_in_flight{endpoint=%q} %d\n", name, eps[i].inFlight.Load())
	}

	fmt.Fprintf(w, "# HELP lpathd_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE lpathd_request_duration_seconds histogram\n")
	for i, name := range names {
		h := &eps[i].latency
		var cum uint64
		for j, ub := range latencyBuckets {
			cum += h.counts[j].Load()
			fmt.Fprintf(w, "lpathd_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "lpathd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "lpathd_request_duration_seconds_sum{endpoint=%q} %g\n", name, float64(h.sum.Load())/1e6)
		fmt.Fprintf(w, "lpathd_request_duration_seconds_count{endpoint=%q} %d\n", name, h.total.Load())
	}

	fmt.Fprintf(w, "# HELP lpathd_query_results_total Served /v1/query responses, by whether the limit truncated the match list.\n")
	fmt.Fprintf(w, "# TYPE lpathd_query_results_total counter\n")
	fmt.Fprintf(w, "lpathd_query_results_total{limit_hit=\"true\"} %d\n", m.QueryTruncated.Load())
	fmt.Fprintf(w, "lpathd_query_results_total{limit_hit=\"false\"} %d\n", m.QueryComplete.Load())

	for _, fn := range extra {
		fn(w)
	}
}
