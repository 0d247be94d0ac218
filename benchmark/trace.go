package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"lpath"
	"lpath/internal/engine"
	ast "lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
	"lpath/internal/relstore/snapshot"
	"lpath/internal/server"
	"lpath/internal/tree"
)

// The traced run measures the layers from outside, by replaying the same
// requests once per level of the onion
//
//	client.rtt ⊃ server.handler ⊃ corpus.call ⊃ {parser.parse, planner.plan, engine.exec}
//
// and timing the call into each level's public function. A layer's self time
// is its span minus the span one level in, for the same request. Nothing in
// the program under test is instrumented; spans inside it are a later issue.

// span is one timed call. Spans of one replayed request share RequestID;
// Parent names the level that contains this one. Path tells the two replays
// of the outer levels apart: "hit" runs against the default server once it
// has answered the same requests (the replay fits its result cache),
// "miss" against a server without result cache over a corpus without plan
// cache, where every level down to the engine does its work on every request.
type span struct {
	RequestID int    `json:"request_id"`
	Name      string `json:"name"`
	Parent    string `json:"parent,omitempty"`
	Path      string `json:"path,omitempty"`
	StartNS   int64  `json:"start_ns"` // since the traced run began
	EndNS     int64  `json:"end_ns"`
}

type tracer struct {
	t0      time.Time
	spans   []span
	summary map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), summary: make(map[string]float64)} }

// time runs f as one span and returns its duration.
func (t *tracer) time(id int, name, parent, path string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.spans = append(t.spans, span{id, name, parent, path, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return end.Sub(start), err
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Summary map[string]float64 `json:"summary"`
		Spans   []span             `json:"spans"`
	}{t.summary, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// level is one replay's per-request durations, indexed like the ops.
type level []time.Duration

func (l level) sum() time.Duration {
	var s time.Duration
	for _, d := range l {
		s += d
	}
	return s
}

// minus is the per-request self time of l over the levels inside it.
func (l level) minus(inner ...level) level {
	out := make(level, len(l))
	for i := range l {
		out[i] = l[i]
		for _, in := range inner {
			out[i] -= in[i]
		}
	}
	return out
}

func (l level) medianUS() float64 {
	return float64(medianDuration(l)) / float64(time.Microsecond)
}

// only keeps the requests for which keep is true.
func (l level) only(keep func(i int) bool) level {
	var out level
	for i, d := range l {
		if keep(i) {
			out = append(out, d)
		}
	}
	return out
}

// replay runs f once per request, serially, each call one span.
func (t *tracer) replay(n int, name, parent, path string, f func(i int) error) (level, error) {
	out := make(level, n)
	for i := range out {
		var err error
		if out[i], err = t.time(i, name, parent, path, func() error { return f(i) }); err != nil {
			return nil, fmt.Errorf("%s request %d: %w", name, i, err)
		}
	}
	return out, nil
}

// replayUntraced is replay without the spans: the baseline that tracing
// overhead is measured against.
func replayUntraced(n int, f func(i int) error) (level, error) {
	out := make(level, n)
	for i := range out {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, fmt.Errorf("untraced request %d: %w", i, err)
		}
		out[i] = time.Since(start)
	}
	return out, nil
}

// rawStore maps the snapshot directly, below the lpath package, for the
// calls into parser, planner and engine. Opening it measures the snapshot
// layer, and counting the paper queries twice on the still untouched store
// measures what the lazily built columns cost the first caller.
type rawStore struct {
	file *snapshot.File
	eng  *engine.Engine
}

func openRaw(path string, m map[string]float64) (*rawStore, error) {
	start := time.Now()
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	m["snapshot.open_s"] = time.Since(start).Seconds()
	if f.Mapped() {
		m["snapshot.mapped"] = 1
	}
	m["snapshot.bytes_per_node"] = float64(f.Size()) / float64(f.Store().ElementCount())
	eng, err := engine.New(f.Store())
	if err != nil {
		f.Close()
		return nil, err
	}
	var first, warm time.Duration
	for pass, total := range []*time.Duration{&first, &warm} {
		for _, q := range ast.EvalQueries {
			p, err := ast.Parse(q.Text)
			if err != nil {
				f.Close()
				return nil, err
			}
			start := time.Now()
			if _, err := eng.Count(p); err != nil {
				f.Close()
				return nil, fmt.Errorf("pass %d, %s: %w", pass, q.Text, err)
			}
			*total += time.Since(start)
		}
	}
	m["relstore.first_query_penalty_ms"] = ms(first - warm)
	return &rawStore{f, eng}, nil
}

func (r *rawStore) close() { r.file.Close() }

// compiled is a query taken apart for the innermost level.
type compiled struct {
	path *ast.Path
	plan *planner.Plan
}

// counterMetrics turns the deltas scraped around the timed phase into the
// server and plan-cache ratios.
func (w *serveWorkload) counterMetrics(m map[string]float64) {
	c := w.counters
	m["server.result_cache_hit_ratio"] = ratio(c[`lpathd_result_cache{event="hit"}`], c[`lpathd_result_cache{event="miss"}`])
	m["server.result_cache_evictions"] = c[`lpathd_result_cache{event="eviction"}`]
	m["server.result_cache_bytes"] = c["lpathd_result_cache_bytes"]
	m["server.limit_hit_share"] = ratio(c[`lpathd_query_results_total{limit_hit="true"}`], c[`lpathd_query_results_total{limit_hit="false"}`])
	m["server.admission_shed"] = c[`lpathd_admission_total{outcome="shed"}`]
	m["server.admission_queue_timeout"] = c[`lpathd_admission_total{outcome="queue_timeout"}`]
	// Only /v1/query misses reach the coalescer; they are its denominator.
	evaluated := c["lpathd_batch_size_sum"] + c["lpathd_batch_dedup_total"]
	m["server.coalesced_share"] = div(c["lpathd_batch_coalesced_total"], evaluated)
	m["server.batch_dedup_share"] = div(c["lpathd_batch_dedup_total"], evaluated)
	m["server.mean_batch_size"] = div(c["lpathd_batch_size_sum"], c["lpathd_batch_size_count"])
	m["lpath.plan_cache_hit_ratio"] = ratio(c["plan_cache_hits"], c["plan_cache_misses"])
	m["lpath.plan_cache_evictions"] = c["plan_cache_evictions"]
}

func (w *serveWorkload) trace(t *tracer, m map[string]float64) error {
	w.counterMetrics(m)
	m["corpus.generate_s"], m["relstore.build_s"] = w.meta.GenerateS, w.meta.BuildS
	ops := w.seq.Ops[:w.traceOps]
	req := func(i int) *request { return &w.seq.Reqs[ops[i]] }
	n := len(ops)
	ctx := context.Background()

	// Outer levels, hit path: the server the timed phase just used.
	cl := newClient(w.live.url, w.seq)
	defer cl.close()
	post := func(c *client) func(int) error {
		return func(i int) error { _, err := c.post(ops[i]); return err }
	}
	serve := func(srv *server.Server) func(int) error {
		h := srv.Handler()
		return func(i int) error {
			r := req(i)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", r.path(), bytes.NewReader(r.body)))
			if rec.Code != 200 {
				return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			return nil
		}
	}
	// One untimed pass connects the client and leaves every replayed
	// request in the result cache, whatever the timed phase evicted.
	if _, err := replayUntraced(n, post(cl)); err != nil {
		return err
	}
	rttHit, err := t.replay(n, "client.rtt", "", "hit", post(cl))
	if err != nil {
		return err
	}
	untraced, err := replayUntraced(n, post(cl))
	if err != nil {
		return err
	}
	handlerHit, err := t.replay(n, "server.handler", "client.rtt", "hit", serve(w.live.srv))
	if err != nil {
		return err
	}
	m["net.self_us"] = rttHit.minus(handlerHit).medianUS()
	m["server.hit_us"] = handlerHit.medianUS()
	m["trace.overhead_share"] = div(float64(medianDuration(rttHit)), float64(medianDuration(untraced))) - 1

	rtt, handler, call, err := w.missPath(t, n, req, post, serve)
	if err != nil {
		return err
	}

	// Innermost levels, on the store itself.
	raw, err := openRaw(w.snapshot, m)
	if err != nil {
		return err
	}
	defer raw.close()
	cs := make([]compiled, n)
	parse, err := t.replay(n, "parser.parse", "corpus.call", "miss", func(i int) error {
		p, err := ast.Parse(req(i).Text)
		if err != nil {
			return err
		}
		cs[i].path = p
		return ast.Validate(p)
	})
	if err != nil {
		return err
	}
	plan, err := t.replay(n, "planner.plan", "corpus.call", "miss", func(i int) error {
		cs[i].plan = raw.eng.Plan(cs[i].path)
		return nil
	})
	if err != nil {
		return err
	}
	execute := func(i int) error {
		if req(i).Count {
			_, err := raw.eng.CountPlanContext(ctx, cs[i].path, cs[i].plan)
			return err
		}
		_, err := raw.eng.EvalPlanLimitContext(ctx, cs[i].path, cs[i].plan, queryLimit+1)
		return err
	}
	// The store is freshly mapped; the levels above ran warm. One untimed
	// pass faults in the pages these requests touch.
	if _, err := replayUntraced(n, execute); err != nil {
		return err
	}
	exec, err := t.replay(n, "engine.exec", "corpus.call", "miss", execute)
	if err != nil {
		return err
	}

	m["server.self_us"] = handler.minus(call).medianUS()
	m["lpath.corpus_self_us"] = call.minus(parse, plan, exec).medianUS()
	m["parser.parse_us"] = parse.medianUS()
	m["planner.plan_us"] = plan.medianUS()
	m["engine.exec_count_us"] = exec.only(func(i int) bool { return req(i).Count }).medianUS()
	m["engine.exec_limit_us"] = exec.only(func(i int) bool { return !req(i).Count }).medianUS()
	inner := parse.sum() + plan.sum() + exec.sum()
	m["trace.unattributed_share"] = math.Abs(float64(call.sum()-inner)) / float64(call.sum())
	t.summarize(rtt, handler, call, parse, plan, exec)

	seen := make(map[string]bool)
	for i := range cs {
		if !seen[req(i).Text] {
			seen[req(i).Text] = true
			addStrategies(m, cs[i].plan)
		}
	}
	return w.batchProbe(m)
}

// missPath replays the outer levels and corpus.call where nothing is cached:
// a server without result cache over a corpus without plan cache. It closes
// both before returning, so that at most two corpora are mapped at a time.
func (w *serveWorkload) missPath(t *tracer, n int, req func(int) *request,
	post func(*client) func(int) error, serve func(*server.Server) func(int) error) (rtt, handler, call level, err error) {
	bare, err := lpath.OpenStore(w.snapshot)
	if err != nil {
		return nil, nil, nil, err
	}
	defer bare.Close()
	live, err := startServer(bare, server.Config{CacheSize: -1})
	if err != nil {
		return nil, nil, nil, err
	}
	defer live.stop()
	cl := newClient(live.url, w.seq)
	defer cl.close()
	if rtt, err = t.replay(n, "client.rtt", "", "miss", post(cl)); err != nil {
		return nil, nil, nil, err
	}
	if handler, err = t.replay(n, "server.handler", "client.rtt", "miss", serve(live.srv)); err != nil {
		return nil, nil, nil, err
	}
	ctx := context.Background()
	call, err = t.replay(n, "corpus.call", "server.handler", "miss", func(i int) error {
		r := req(i)
		if r.Count {
			_, err := bare.CountTextContext(ctx, r.Text)
			return err
		}
		_, err := bare.SelectLimitTextContext(ctx, r.Text, queryLimit+1)
		return err
	})
	return rtt, handler, call, err
}

// summarize records, for the miss path, each level's total and the self
// times' sum over client.rtt, which telescopes to 1.
func (t *tracer) summarize(rtt, handler, call, parse, plan, exec level) {
	self := rtt.minus(handler).sum() + handler.minus(call).sum() + call.minus(parse, plan, exec).sum() +
		parse.sum() + plan.sum() + exec.sum()
	t.summary["miss.self_sum_over_client_rtt"] = float64(self) / float64(rtt.sum())
	for name, l := range map[string]level{
		"client.rtt": rtt, "server.handler": handler, "corpus.call": call,
		"parser.parse": parse, "planner.plan": plan, "engine.exec": exec,
	} {
		t.summary["miss.total_ms."+name] = ms(l.sum())
	}
}

func addStrategies(m map[string]float64, plan *planner.Plan) {
	if plan == nil {
		return
	}
	probe, merge, twig, bitmap := plan.StrategyCounts()
	m["planner.steps_probe"] += float64(probe)
	m["planner.steps_merge"] += float64(merge)
	m["planner.steps_twig"] += float64(twig)
	m["planner.steps_bitmap"] += float64(bitmap)
}

// batchProbe evaluates consecutive width-16 windows of the request texts
// once as SelectBatch and once query by query: the evidence for or against
// each layer of the batch memo on this mix.
func (w *serveWorkload) batchProbe(m map[string]float64) error {
	var stats engine.BatchStats
	var batched, serial time.Duration
	ctx := context.Background()
	for lo := 0; lo+batchWidth <= len(w.seq.Ops) && lo < batchWidth*batchWindows; lo += batchWidth {
		qs := make([]*lpath.Query, batchWidth)
		for j := range qs {
			q, err := lpath.Compile(w.seq.Reqs[w.seq.Ops[lo+j]].Text)
			if err != nil {
				return err
			}
			qs[j] = q
		}
		start := time.Now()
		_, errs, st := w.corpus.SelectBatchStats(ctx, qs)
		batched += time.Since(start)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		stats.Add(st)
		start = time.Now()
		for _, q := range qs {
			if _, err := w.corpus.Select(q); err != nil {
				return err
			}
		}
		serial += time.Since(start)
	}
	m["engine.batch16_speedup"] = div(float64(serial), float64(batched))
	m["engine.batch_rows_hit_ratio"] = ratio(float64(stats.RowsHits), float64(stats.RowsMisses))
	m["engine.batch_frontier_hit_ratio"] = ratio(float64(stats.FrontierHits), float64(stats.FrontierMisses))
	m["engine.batch_sat_hit_ratio"] = ratio(float64(stats.SatHits), float64(stats.SatMisses))
	return nil
}

// countReps is how often the scan trace repeats each paper query's count for
// engine.count_ms.qNN.
const countReps = 5

func (w *scanWorkload) trace(t *tracer, m map[string]float64) error {
	m["corpus.generate_s"], m["relstore.build_s"] = w.meta.GenerateS, w.meta.BuildS
	raw, err := openRaw(w.snapshot, m)
	if err != nil {
		return err
	}
	defer raw.close()
	ctx := context.Background()
	n := len(w.queries)
	cs := make([]compiled, n)
	for i, text := range w.texts {
		if cs[i].path, err = ast.Parse(text); err != nil {
			return err
		}
	}

	// One round, level by level. Request 2i counts query i, 2i+1 selects it.
	isCount := func(r int) bool { return r%2 == 0 }
	call, err := t.replay(2*n, "corpus.call", "", "", func(r int) error {
		if isCount(r) {
			_, err := w.corpus.Count(w.queries[r/2])
			return err
		}
		_, err := w.corpus.Select(w.queries[r/2])
		return err
	})
	if err != nil {
		return err
	}
	plan, err := t.replay(2*n, "planner.plan", "corpus.call", "", func(r int) error {
		cs[r/2].plan = raw.eng.Plan(cs[r/2].path)
		return nil
	})
	if err != nil {
		return err
	}
	exec, err := t.replay(2*n, "engine.exec", "corpus.call", "", func(r int) error {
		if isCount(r) {
			_, err := raw.eng.CountPlanContext(ctx, cs[r/2].path, cs[r/2].plan)
			return err
		}
		_, err := raw.eng.EvalPlanContext(ctx, cs[r/2].path, cs[r/2].plan)
		return err
	})
	if err != nil {
		return err
	}
	m["lpath.corpus_self_us"] = call.minus(plan, exec).medianUS()
	m["planner.plan_us"] = plan.medianUS()
	m["engine.exec_count_us"] = exec.only(isCount).medianUS()
	m["engine.exec_select_us"] = exec.only(func(r int) bool { return !isCount(r) }).medianUS()
	m["trace.unattributed_share"] = math.Abs(float64(call.sum()-plan.sum()-exec.sum())) / float64(call.sum())
	t.summary["engine.exec_over_corpus.call"] = float64(exec.sum()) / float64(call.sum())

	// Per query: median count time, strategies, estimate error, rows touched,
	// and what sharding buys.
	var estErr, estSteps, rows, matches, logSpeedup float64
	for i := range cs {
		addStrategies(m, cs[i].plan)
		reps := make([]time.Duration, countReps)
		for r := range reps {
			start := time.Now()
			if _, err := raw.eng.CountPlanContext(ctx, cs[i].path, cs[i].plan); err != nil {
				return err
			}
			reps[r] = time.Since(start)
		}
		serial := medianDuration(reps)
		m[fmt.Sprintf("engine.count_ms.q%02d", i+1)] = ms(serial)

		report, err := w.corpus.ExplainText(w.texts[i])
		if err != nil {
			return err
		}
		e := readExplain(report)
		estErr += e.absLog2Err
		estSteps += e.steps
		rows += e.rows
		matches += e.matches

		if _, err := w.corpus.CountParallel(w.queries[i]); err != nil { // builds the shards on first use
			return err
		}
		start := time.Now()
		if _, err := w.corpus.CountParallel(w.queries[i]); err != nil {
			return err
		}
		logSpeedup += math.Log(float64(serial) / float64(time.Since(start)))
	}
	m["planner.est_error_log2_abs_mean"] = div(estErr, estSteps)
	m["engine.rows_per_match"] = div(rows, matches)
	m["engine.parallel_count_speedup"] = math.Exp(logSpeedup / float64(n))
	return nil
}

var (
	explainStep  = regexp.MustCompile(`(?m)^\s*(s*|p)\d+\. .*est=(\S+) actual=(\d+)`)
	explainTotal = regexp.MustCompile(`estimated matches: (\S+)\s+actual: (\d+)`)
)

// explained is what one EXPLAIN report says about the planner's model and
// the engine's work.
type explained struct {
	absLog2Err float64 // Σ |log2((actual+1)/(est+1))| over main-path and scope steps and the total
	steps      float64 // how many terms absLog2Err has
	rows       float64 // Σ actual over every step, predicate steps included
	matches    float64
}

// readExplain parses est=/actual= out of an EXPLAIN report. Predicate steps
// (p1., p2.) estimate a selectivity, not rows, so they count towards rows
// touched but not towards the estimate error.
func readExplain(report string) explained {
	var e explained
	term := func(est string, actual float64) {
		if v, err := strconv.ParseFloat(est, 64); err == nil {
			e.absLog2Err += math.Abs(math.Log2((actual + 1) / (v + 1)))
			e.steps++
		}
	}
	for _, g := range explainStep.FindAllStringSubmatch(report, -1) {
		actual, _ := strconv.ParseFloat(g[3], 64)
		e.rows += actual
		if g[1] != "p" {
			term(g[2], actual)
		}
	}
	if g := explainTotal.FindStringSubmatch(report); g != nil {
		e.matches, _ = strconv.ParseFloat(g[2], 64)
		term(g[1], e.matches)
	}
	return e
}

// ingestTraceChunks is how many chunks the ingest trace takes apart.
const ingestTraceChunks = 8

// trace times one ingest op and then the same chunk stage by stage through
// the packages an op goes through.
func (w *ingestWorkload) trace(t *tracer, m map[string]float64) error {
	n := ingestTraceChunks
	chunk := func(i int) []byte { return w.chunks[w.order[i]] }
	op, err := t.replay(n, "ingest.op", "", "", func(i int) error {
		ok, err := w.op(int(w.order[i]))
		if err == nil && !ok {
			err = fmt.Errorf("built and reopened corpus disagree")
		}
		return err
	})
	if err != nil {
		return err
	}
	trees := make([]*tree.Corpus, n)
	parse, err := t.replay(n, "tree.parse", "ingest.op", "", func(i int) (err error) {
		trees[i], err = tree.ReadAll(bytes.NewReader(chunk(i)))
		return err
	})
	if err != nil {
		return err
	}
	stores := make([]*relstore.Store, n)
	build, err := t.replay(n, "relstore.build", "ingest.op", "", func(i int) error {
		stores[i] = relstore.Build(trees[i], relstore.SchemeInterval)
		return nil
	})
	if err != nil {
		return err
	}
	images := make([][]byte, n)
	encode, err := t.replay(n, "snapshot.encode", "ingest.op", "", func(i int) (err error) {
		images[i], err = snapshot.Encode(stores[i])
		return err
	})
	if err != nil {
		return err
	}
	path := func(i int) string { return filepath.Join(w.dir, fmt.Sprintf("trace-%d.lpx", i)) }
	for i, image := range images {
		if err := os.WriteFile(path(i), image, 0o644); err != nil {
			return err
		}
	}
	open, err := t.replay(n, "snapshot.open", "ingest.op", "", func(i int) error {
		f, err := snapshot.Open(path(i))
		if err != nil {
			return err
		}
		if f.Mapped() {
			m["snapshot.mapped"] = 1
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	shards, err := t.replay(n, "relstore.shard_build", "", "", func(i int) error {
		relstore.BuildShards(trees[i], relstore.SchemeInterval, runtime.NumCPU())
		return nil
	})
	if err != nil {
		return err
	}
	var bytesTotal, nodes float64
	for i := range images {
		bytesTotal += float64(len(images[i]))
		nodes += float64(stores[i].ElementCount())
	}
	m["tree.parse_trees_s"] = medianDuration(parse).Seconds()
	m["relstore.build_trees_s"] = medianDuration(build).Seconds()
	m["relstore.shard_build_s"] = medianDuration(shards).Seconds()
	m["snapshot.encode_mb_s"] = bytesTotal / 1e6 / encode.sum().Seconds()
	m["snapshot.open_s"] = medianDuration(open).Seconds()
	m["snapshot.bytes_per_node"] = bytesTotal / nodes
	inner := parse.sum() + build.sum() + encode.sum() + open.sum()
	m["trace.unattributed_share"] = math.Abs(float64(op.sum()-inner)) / float64(op.sum())
	return nil
}
