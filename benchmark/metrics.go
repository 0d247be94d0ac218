package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestDeclaredMetricsMatchBenchmarkJSON keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it worse; 0 for per-layer
	// metrics, which have none.
	Bound float64
}

// endToEnd are the metrics a user of lpathd or the lpath package sees. Every
// workload reports all of them. failed_share is not among them because it is
// 0 on a healthy run and a bound relative to 0 is meaningless: failures are
// counted in the result's attempted/failed fields (any failure makes the run
// incorrect) and failed_share is a per-layer metric.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.18},
	{"latency_p50_ms", "ms", "lower", 0.18},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.16},
}

// tailQuantile fixes, per workload, which percentile latency_tail_ms is: the
// highest of p75/p95/p99 that keeps at least ten samples beyond it at the
// op count a run of run_seconds completes on the calibration host.
var tailQuantile = map[string]float64{
	"serve_hot":      0.99,
	"serve_distinct": 0.99,
	"scan_full":      0.95,
	"ingest":         0.75,
}

// perLayer are the single-layer metrics a traced run prints, named
// <layer>.<metric> after the repository's modules. A workload that does not
// exercise a layer reports 0 for it (README.md lists which workload measures
// which metric).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "failed_share", Unit: "ratio", Better: "lower"},
		{Name: "net.self_us", Unit: "us", Better: "lower"},
		{Name: "server.hit_us", Unit: "us", Better: "lower"},
		{Name: "server.self_us", Unit: "us", Better: "lower"},
		{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "server.result_cache_evictions", Unit: "count", Better: "lower"},
		{Name: "server.result_cache_bytes", Unit: "bytes", Better: "lower"},
		{Name: "server.limit_hit_share", Unit: "ratio", Better: "lower"},
		{Name: "server.admission_shed", Unit: "count", Better: "lower"},
		{Name: "server.admission_queue_timeout", Unit: "count", Better: "lower"},
		{Name: "server.coalesced_share", Unit: "ratio", Better: "higher"},
		{Name: "server.batch_dedup_share", Unit: "ratio", Better: "higher"},
		{Name: "server.mean_batch_size", Unit: "count", Better: "higher"},
		{Name: "lpath.corpus_self_us", Unit: "us", Better: "lower"},
		{Name: "lpath.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "lpath.plan_cache_evictions", Unit: "count", Better: "lower"},
		{Name: "parser.parse_us", Unit: "us", Better: "lower"},
		{Name: "planner.plan_us", Unit: "us", Better: "lower"},
		{Name: "planner.steps_probe", Unit: "count", Better: "lower"},
		{Name: "planner.steps_merge", Unit: "count", Better: "lower"},
		{Name: "planner.steps_twig", Unit: "count", Better: "lower"},
		{Name: "planner.steps_bitmap", Unit: "count", Better: "lower"},
		{Name: "planner.est_error_log2_abs_mean", Unit: "log2", Better: "lower"},
		{Name: "engine.exec_limit_us", Unit: "us", Better: "lower"},
		{Name: "engine.exec_count_us", Unit: "us", Better: "lower"},
		{Name: "engine.exec_select_us", Unit: "us", Better: "lower"},
	}
	for i := 1; i <= 23; i++ {
		defs = append(defs, metricDef{Name: fmt.Sprintf("engine.count_ms.q%02d", i), Unit: "ms", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "engine.rows_per_match", Unit: "ratio", Better: "lower"},
		metricDef{Name: "engine.batch16_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "engine.batch_rows_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "engine.batch_frontier_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "engine.batch_sat_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "engine.parallel_count_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "relstore.build_trees_s", Unit: "s", Better: "lower"},
		metricDef{Name: "relstore.shard_build_s", Unit: "s", Better: "lower"},
		metricDef{Name: "relstore.first_query_penalty_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "relstore.build_s", Unit: "s", Better: "lower"},
		metricDef{Name: "tree.parse_trees_s", Unit: "s", Better: "lower"},
		metricDef{Name: "snapshot.encode_mb_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "snapshot.open_s", Unit: "s", Better: "lower"},
		metricDef{Name: "snapshot.mapped", Unit: "count", Better: "higher"},
		metricDef{Name: "snapshot.bytes_per_node", Unit: "bytes", Better: "lower"},
		metricDef{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
		metricDef{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "corpus.generate_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	)
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return quantile(s, 0.5)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method);
// the driver that accepts a benchmark measures spread the same way.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM): heap,
// stacks and the touched pages of the mmap'd snapshot.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// parsePrometheus reads the text exposition into a map keyed by the sample's
// full name, labels included, exactly as /metrics prints it.
func parsePrometheus(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
