package server

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.observe(300 * time.Microsecond) // below the first bound
	h.observe(700 * time.Microsecond) // second bucket
	h.observe(20 * time.Second)       // +Inf
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("bucket[0] = %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Errorf("bucket[1] = %d, want 1", got)
	}
	if got := h.counts[len(latencyBuckets)].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	if got := h.total.Load(); got != 3 {
		t.Errorf("total = %d, want 3", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	m := NewMetrics()
	ep := m.Endpoint("query")
	ep.observe(200, 2*time.Millisecond)
	ep.observe(200, 2*time.Millisecond)
	ep.observe(429, 10*time.Microsecond)

	var b strings.Builder
	m.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		`lpathd_requests_total{endpoint="query",code="200"} 2`,
		`lpathd_requests_total{endpoint="query",code="429"} 1`,
		`lpathd_request_duration_seconds_count{endpoint="query"} 3`,
		`lpathd_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if strings.Contains(out, "strategy=") {
		t.Errorf("output still exports a retired per-strategy series")
	}
	if strings.Contains(out, "lpathd_batch") {
		t.Errorf("output still exports a retired request-batching series")
	}

	// Histogram buckets are cumulative: the 2ms observations land in the
	// le="0.0025" bucket and every later one.
	if !strings.Contains(out, `le="0.0025"} 3`) {
		t.Errorf("cumulative bucket rendering wrong:\n%s", out)
	}

	// Endpoint() must return the same collector for the same name.
	if m.Endpoint("query") != ep {
		t.Error("Endpoint not idempotent")
	}
}
