package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smoke runs one workload on the scale-0.01 corpus for a fraction of a
// second.
func smoke(t *testing.T, workload string, trace bool, mutate func(*config)) *result {
	t.Helper()
	cfg := &config{Workload: workload, Seed: 1, Seconds: 0.2, Trace: trace, Smoke: true, Clients: 2, OutDir: t.TempDir()}
	if mutate != nil {
		mutate(cfg)
	}
	out, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out.result(trace)
}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) *declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &d
}

// The file and the code declare the same workloads and metrics, with the
// same units, directions and bounds.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", d.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if _, ok := tailQuantile[w.Name]; !ok {
			t.Errorf("workload %s has no tail percentile", w.Name)
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, code runs %v", names, workloadNames)
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, code has %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, got, endToEnd[i])
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, code has %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, got, perLayer[i])
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload prints, timed, exactly the declared end-to-end metrics and,
// traced, exactly the declared per-layer metrics, each with its unit, as one
// valid JSON object, and no op fails.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w, trace, nil)
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&back); err != nil {
				t.Fatalf("%s trace=%v: result line does not parse back: %v", w, trace, err)
			}
			if back.Correct == nil || !*back.Correct || *back.Failed != 0 || *back.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%v failed=%v", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := make(map[string]string)
			if trace {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, v := range back.Metrics {
				switch unit, ok := want[name]; {
				case !ok:
					t.Errorf("%s trace=%v: prints undeclared metric %s", w, trace, name)
				case unit != v.Unit || v.Value == nil:
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", w, trace, name, v.Unit, unit)
				case !metricName.MatchString(name):
					t.Errorf("%s: bad metric name %q", w, name)
				case math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, name, *v.Value)
				case !trace && *v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, name, *v.Value)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%v: does not print declared metric %s", w, trace, name)
			}
			if trace && res.Metrics["failed_share"].Value != 0 {
				t.Errorf("%s: failed_share = %v", w, res.Metrics["failed_share"].Value)
			}
		}
	}
}

// A wrong expected count fails the ops that returned the right one, so the
// correctness gate is live on both kinds of workload.
func TestPlantedWrongCountFailsTheRun(t *testing.T) {
	for _, w := range []string{"serve_hot", "scan_full"} {
		res := smoke(t, w, true, func(c *config) { c.wrongCount = map[string]int{ingestProbe: 1} })
		if res.Correct || res.Failed == 0 || res.Metrics["failed_share"].Value <= 0 {
			t.Errorf("%s: planted a wrong count for %s, got correct=%v failed=%d failed_share=%v",
				w, ingestProbe, res.Correct, res.Failed, res.Metrics["failed_share"].Value)
		}
		if res.Failed >= res.Attempted {
			t.Errorf("%s: one wrong text failed all %d ops", w, res.Attempted)
		}
	}
}

// A response that changes between repeats of one request is a failed op.
func TestClientCountsChangedAnswerAsFailed(t *testing.T) {
	seq := &opSeq{Reqs: []request{newRequest("//NP", true)}}
	c := newClient("", seq)
	for i, body := range []string{
		`{"corpus":"wsj","query":"//NP","count":7,"cached":false,"elapsed_ms":1.5}`,
		`{"corpus":"wsj","query":"//NP","count":7,"cached":true,"elapsed_ms":0.01}`,
		`{"corpus":"wsj","query":"//NP","count":8,"cached":true,"elapsed_ms":0.01}`,
	} {
		c.check(0, []byte(body))
		if want := i / 2; c.failed != want {
			t.Errorf("after response %d: %d failed, want %d", i, c.failed, want)
		}
	}
	if c.hits[0] != 2 {
		t.Errorf("%d consistent answers, want 2", c.hits[0])
	}
}

func TestAnswerChecks(t *testing.T) {
	query, count := newRequest("//NP", false), newRequest("//NP", true)
	two := []wireMatch{{1, "NP", "a dog"}, {2, "NP", "it"}}
	full := make([]wireMatch, queryLimit)
	for _, tc := range []struct {
		name string
		req  *request
		got  wireAnswer
		want *expected
		ok   bool
	}{
		{"count matches oracle", &count, wireAnswer{Count: 7}, &expected{count: 7}, true},
		{"count differs from oracle", &count, wireAnswer{Count: 8}, &expected{count: 7}, false},
		{"complete list", &query, wireAnswer{Count: 2, Matches: two}, &expected{2, two}, true},
		{"complete list, no oracle", &query, wireAnswer{Count: 2, Matches: two}, nil, true},
		{"count disagrees with own list", &query, wireAnswer{Count: 3, Matches: two}, nil, false},
		{"list is not the oracle's prefix", &query, wireAnswer{Count: 2, Matches: two}, &expected{2, []wireMatch{two[1], two[0]}}, false},
		{"truncated at the limit", &query, wireAnswer{Count: -1, Matches: full, Truncated: true}, &expected{500, full}, true},
		{"truncated though the oracle has fewer", &query, wireAnswer{Count: -1, Matches: full, Truncated: true}, &expected{queryLimit, full}, false},
		{"truncated below the limit", &query, wireAnswer{Count: -1, Matches: two, Truncated: true}, nil, false},
	} {
		if got := answerOK(tc.req, &tc.got, tc.want); got != tc.ok {
			t.Errorf("%s: answerOK = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// The same seed gives the same bytes on the wire, another seed other bytes.
func TestRequestSequencesFollowTheSeed(t *testing.T) {
	tags := []string{"NP", "VP", "NN", "S", "PP", "DT", "IN", "JJ", "VB", "SBAR", "ADVP", "ADJP", "NNP"}
	gens := map[string]func(seed int64) []byte{
		"serve_hot":      func(seed int64) []byte { return serveHotOps(seed, tags, 2000).log() },
		"serve_distinct": func(seed int64) []byte { return serveDistinctOps(seed, tags, 50, 2000).log() },
		"scan_full":      func(seed int64) []byte { return []byte(fmt.Sprint(shuffledRounds(seed, 23, 4))) },
		"ingest":         func(seed int64) []byte { return []byte(fmt.Sprint(shuffledRounds(seed, ingestChunks, 2))) },
	}
	for name, gen := range gens {
		a, again, b := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
	// The seed moves the draws, not the working set.
	if a, b := serveHotOps(7, tags, 10), serveHotOps(8, tags, 10); len(a.Reqs) != 2*hotTexts || a.Reqs[5].Text != b.Reqs[5].Text {
		t.Errorf("serve_hot's working set depends on the seed")
	}
}

// The metrics that count rather than time repeat exactly.
func TestExactMetricsRepeat(t *testing.T) {
	exact := []string{
		"planner.steps_probe", "planner.steps_merge", "planner.steps_twig", "planner.steps_bitmap",
		"planner.est_error_log2_abs_mean", "engine.rows_per_match", "snapshot.bytes_per_node",
		"engine.batch_rows_hit_ratio", "engine.batch_frontier_hit_ratio", "engine.batch_sat_hit_ratio",
	}
	for _, w := range []string{"serve_distinct", "scan_full"} {
		a, b := smoke(t, w, true, nil), smoke(t, w, true, nil)
		for _, name := range exact {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s = %v, then %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.Metrics["planner.steps_probe"].Value+a.Metrics["planner.steps_twig"].Value == 0 {
			t.Errorf("%s: no plan steps counted", w)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
	if q1, q3 := quartiles([]float64{10, 12}); q1 != 9.5 || q3 != 12.5 {
		t.Errorf("quartiles of two = %v, %v; want 9.5, 12.5", q1, q3)
	}
}

func writeRecords(t *testing.T, name string, host stamp, byMetric map[string][]float64) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := 0; i < 5; i++ {
		r := record{stamp: host, Workload: "scan_full", Seconds: 15}
		r.Metrics = make(map[string]metricValue)
		for m, vs := range byMetric {
			r.Metrics[m] = metricValue{Value: vs[i]}
		}
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	host := stamp{Go: "go1.24.0", NProc: 2, GOMAXPROCS: 2, Clients: 2, Scale: 1, CorpusSeed: corpusSeed}
	steady := func(x float64) []float64 { return []float64{x, x * 1.001, x * 0.999, x * 1.002, x * 0.998} }
	base := writeRecords(t, "base.json", host, map[string][]float64{
		"throughput_ops_s": steady(100), "latency_p50_ms": steady(10), "latency_tail_ms": steady(50), "peak_rss_mb": steady(1000),
	})
	cur := writeRecords(t, "new.json", host, map[string][]float64{
		"throughput_ops_s": steady(50),                      // halved: worse
		"latency_p50_ms":   steady(5),                       // better: ok
		"latency_tail_ms":  {50, 80, 30, 95, 20},            // too scattered to say
		"peak_rss_mb":      steady(1000 * (1 + 0.5*0.0001)), // within the bound: ok
	})
	var out bytes.Buffer
	if err := compareFiles(&out, base, cur); err != nil {
		t.Fatal(err)
	}
	for metric, verdict := range map[string]string{
		"throughput_ops_s": "worse", "latency_p50_ms": "ok", "latency_tail_ms": "unresolved", "peak_rss_mb": "ok",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "scan_full" && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %s, want %s\n%s", metric, f[len(f)-1], verdict, out.String())
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", metric, out.String())
		}
	}

	other := host
	other.NProc = 8
	elsewhere := writeRecords(t, "elsewhere.json", other, map[string][]float64{"throughput_ops_s": steady(100)})
	if err := compareFiles(&out, base, elsewhere); err == nil {
		t.Error("compared records from hosts with 2 and 8 processors")
	}
}
