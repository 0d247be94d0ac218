package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{"serve_hot", "serve_distinct", "scan_full", "ingest"}

// config is one run of one workload.
type config struct {
	Workload string
	Seed     int64   // drives the request sequence, nothing else
	Seconds  float64 // length of the timed phase
	Trace    bool    // report per-layer metrics and write the span file
	Smoke    bool    // scale 0.01 corpus and chunks; for the self-tests
	Clients  int     // closed-loop HTTP clients of the serve workloads
	OutDir   string  // everything the run writes stays under it

	// wrongCount overrides the oracle's count for a query text. The
	// self-test plants a wrong one to see the correctness gate fail a run.
	wrongCount map[string]int
}

func (c *config) scale() float64 {
	if c.Smoke {
		return smokeScale
	}
	return fullScale
}

// timedSetups is how often a timed run sets up; setup_s is the median. A
// traced or smoke run reports no setup_s worth comparing and sets up once.
const timedSetups = 3

// samples is what a timed phase measured.
type samples struct {
	lat    []time.Duration // one per attempted op, client side
	failed int             // errored, shed, timed out or answered inconsistently
	wall   time.Duration
	// roundRates is ops per second in each round of scan_full, whose rounds
	// all do the same work: throughput_ops_s is then their median, which a
	// garbage-collection cycle or a neighbour's burst in a few rounds does
	// not move. The other workloads' ops differ, and ops over wall time
	// averages that out better than a median over slices does.
	roundRates []float64
}

// workload is one of the four traffic mixes.
type workload interface {
	// setup does what a restart costs before the first timed op.
	setup() error
	// teardown releases what setup made, so that setup can run again.
	teardown()
	// run is the closed-loop timed phase.
	run(d time.Duration) (*samples, error)
	// verify checks the answers run kept against the oracle and returns how
	// many more ops failed.
	verify(o *oracle) (failed int, err error)
	// trace replays part of the workload level by level and measures the
	// layer metrics into m.
	trace(t *tracer, m map[string]float64) error
}

// outcome is a finished run: the contract's result line before encoding.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64 // every end-to-end or every per-layer metric
}

func runWorkload(cfg *config) (*outcome, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	w, o, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer o.close()

	setups := timedSetups
	if cfg.Trace || cfg.Smoke {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.teardown()

	var before, after runtime.MemStats
	runtime.GC() // every run starts its timed phase one full heap away from the next cycle
	runtime.ReadMemStats(&before)
	s, err := w.run(time.Duration(cfg.Seconds * float64(time.Second)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	runtime.ReadMemStats(&after)
	// Read now: the peak belongs to set-up and the timed phase alone.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// The traced replay needs what set-up made; verification does not, and
	// opens its reference store only after that has been released.
	layer := make(map[string]float64)
	if cfg.Trace {
		t := newTracer()
		if err := w.trace(t, layer); err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", cfg.Workload, err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: traced replay %.2f s\n", cfg.Workload, time.Since(t.t0).Seconds())
		if err := t.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
			return nil, err
		}
	}
	w.teardown()
	verifyStart := time.Now()
	wrong, err := w.verify(o)
	if err != nil {
		return nil, fmt.Errorf("%s: verifying answers: %w", cfg.Workload, err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: set-up %.2f s x%d, timed phase %.2f s, verification %.2f s\n",
		cfg.Workload, median(setupS), setups, s.wall.Seconds(), time.Since(verifyStart).Seconds())
	out := &outcome{Attempted: len(s.lat), Failed: s.failed + wrong}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed in %.3g s", cfg.Workload, cfg.Seconds)
	}

	if !cfg.Trace {
		rate := float64(out.Attempted) / s.wall.Seconds()
		if len(s.roundRates) > 0 {
			rate = median(s.roundRates)
		}
		sortDurations(s.lat)
		out.Metrics = map[string]float64{
			"throughput_ops_s": rate * float64(out.Attempted-out.Failed) / float64(out.Attempted),
			"latency_p50_ms":   ms(quantile(s.lat, 0.5)),
			"latency_tail_ms":  ms(quantile(s.lat, tailQuantile[cfg.Workload])),
			"setup_s":          median(setupS),
			"peak_rss_mb":      rss,
		}
		return out, nil
	}

	ops := float64(out.Attempted)
	layer["failed_share"] = float64(out.Failed) / ops
	layer["runtime.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops
	layer["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	out.Metrics = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out.Metrics[d.Name] = layer[d.Name] // 0 where this workload has no such layer
		delete(layer, d.Name)
	}
	for name := range layer {
		return nil, fmt.Errorf("%s: traced run measured %q, which perLayer does not declare", cfg.Workload, name)
	}
	return out, nil
}

func newWorkload(cfg *config) (workload, *oracle, error) {
	if cfg.Workload == "ingest" {
		return newIngest(cfg), &oracle{}, nil
	}
	snapshot, meta, err := ensureCorpus(cfg.OutDir, cfg.scale())
	if err != nil {
		return nil, nil, fmt.Errorf("building the corpus: %w", err)
	}
	o, err := newOracle(snapshot, cfg)
	if err != nil {
		return nil, nil, err
	}
	switch cfg.Workload {
	case "serve_hot":
		return newServe(cfg, snapshot, meta, serveHotOps(cfg.Seed, meta.TopTags, hotOps), 1, hotTraceOps), o, nil
	case "serve_distinct":
		seq := serveDistinctOps(cfg.Seed, meta.TopTags, distinctWarmOps, distinctOps)
		return newServe(cfg, snapshot, meta, seq, distinctSampleEvery, distinctTraceOps), o, nil
	case "scan_full":
		return newScan(cfg, snapshot, meta), o, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, workloadNames)
}

// release returns freed memory to the operating system, so that a repeated
// set-up does not stack its heap on the previous one's in peak_rss_mb.
func release() { debug.FreeOSMemory() }
