package bench

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"lpath/internal/corpus"
	"lpath/internal/engine"
	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// Reps is the measurement protocol of Section 5.1: every timing is repeated
// Reps times and the reported value is the mean after discarding the
// maximum and minimum.
const Reps = 7

// TimeIt measures f under the paper's protocol and returns the trimmed mean.
func TimeIt(f func()) time.Duration {
	times := make([]time.Duration, Reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var total time.Duration
	for _, d := range times[1 : len(times)-1] {
		total += d
	}
	return total / time.Duration(len(times)-2)
}

// DatasetStats is one row of Figure 6(a).
type DatasetStats struct {
	Name  string
	Stats corpus.Stats
}

// Fig6a measures dataset characteristics for both corpora.
func Fig6a(wsj, swb *tree.Corpus) []DatasetStats {
	return []DatasetStats{
		{"WSJ", corpus.Measure(wsj)},
		{"SWB", corpus.Measure(swb)},
	}
}

// Fig6b returns the top-k tag frequencies per corpus (Figure 6(b)).
func Fig6b(wsj, swb *tree.Corpus, k int) (wsjTags, swbTags []tree.TagFreq) {
	return wsj.TopTags(k), swb.TopTags(k)
}

// ResultSize is one row of Figure 6(c): the result size of a query on both
// datasets.
type ResultSize struct {
	ID       int
	Query    string
	WSJ, SWB int
}

// Fig6c evaluates every query on both corpora with the LPath engine.
func Fig6c(wsj, swb *Systems) ([]ResultSize, error) {
	var out []ResultSize
	for _, id := range wsj.QueryIDs() {
		w, err := wsj.RunLPath(id)
		if err != nil {
			return nil, fmt.Errorf("Q%d wsj: %w", id, err)
		}
		s, err := swb.RunLPath(id)
		if err != nil {
			return nil, fmt.Errorf("Q%d swb: %w", id, err)
		}
		out = append(out, ResultSize{ID: id, Query: wsj.QueryText(id), WSJ: w, SWB: s})
	}
	return out, nil
}

// SystemTiming is one query's timings across the three systems (Figures
// 7–8): LPath engine, TGrep2 and CorpusSearch.
type SystemTiming struct {
	ID    int
	Query string
	LPath time.Duration
	TGrep time.Duration
	CS    time.Duration
	// Result sizes, for sanity reporting.
	NLPath, NTGrep, NCS int
}

// Fig7or8 times every query on every system over one corpus (Figure 7 for
// WSJ, Figure 8 for SWB).
func Fig7or8(s *Systems) ([]SystemTiming, error) {
	var out []SystemTiming
	for _, id := range s.QueryIDs() {
		row := SystemTiming{ID: id, Query: s.QueryText(id)}
		var err error
		row.LPath = TimeIt(func() {
			var e error
			row.NLPath, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d lpath: %w", id, err)
		}
		row.TGrep = TimeIt(func() { row.NTGrep = s.RunTGrep(id) })
		row.CS = TimeIt(func() {
			var e error
			row.NCS, e = s.RunCS(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d corpussearch: %w", id, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// ScalePoint is one point of Figure 9: corpus size factor → per-system time
// for one query.
type ScalePoint struct {
	Factor float64
	Nodes  int
	LPath  time.Duration
	TGrep  time.Duration
	CS     time.Duration
}

// Fig9Queries are the representative queries of Figure 9.
var Fig9Queries = []int{3, 6, 11}

// Fig9 sweeps replication factors of the base corpus and times the three
// systems on the representative queries. The returned map is query id →
// curve.
func Fig9(base *tree.Corpus, factors []float64) (map[int][]ScalePoint, error) {
	out := map[int][]ScalePoint{}
	for _, f := range factors {
		rep := Replicate(base, f)
		sys, err := BuildSystems(rep)
		if err != nil {
			return nil, err
		}
		for _, id := range Fig9Queries {
			pt := ScalePoint{Factor: f, Nodes: rep.NodeCount()}
			pt.LPath = TimeIt(func() { _, _ = sys.RunLPath(id) })
			pt.TGrep = TimeIt(func() { _ = sys.RunTGrep(id) })
			pt.CS = TimeIt(func() { _, _ = sys.RunCS(id) })
			out[id] = append(out[id], pt)
		}
	}
	return out, nil
}

// LabelTiming is one row of Figure 10: the same query on the LPath
// (interval) and XPath (start/end) labeling schemes.
type LabelTiming struct {
	ID             int
	Query          string
	LPath, XPath   time.Duration
	NLPath, NXPath int
}

// Fig10 times the 11 XPath-expressible queries on both labeling schemes.
func Fig10(s *Systems) ([]LabelTiming, error) {
	var out []LabelTiming
	for _, id := range s.QueryIDs() {
		if !s.XPathExpressible(id) {
			continue
		}
		row := LabelTiming{ID: id, Query: s.QueryText(id)}
		var err error
		row.LPath = TimeIt(func() {
			var e error
			row.NLPath, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, err
		}
		row.XPath = TimeIt(func() {
			var e error
			row.NXPath, e = s.RunXPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, err
		}
		if row.NLPath != row.NXPath {
			return nil, fmt.Errorf("bench: Q%d result mismatch between labelings: %d vs %d",
				id, row.NLPath, row.NXPath)
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationRow is one design-choice measurement.
type AblationRow struct {
	Name     string
	Query    string
	Baseline time.Duration // with the design choice
	Ablated  time.Duration // without it
}

// Ablations measures the design decisions called out in DESIGN.md §5: the
// value-index access path, scoping as a primitive (scoped vs unscoped query
// pair), and join direction (selectivity-first vs reversed).
func Ablations(s *Systems) ([]AblationRow, error) {
	var out []AblationRow
	// 1. Value index on/off for the high-selectivity word queries.
	for _, id := range []int{1, 11, 12} {
		row := AblationRow{
			Name:  "value-index",
			Query: s.QueryText(id),
		}
		row.Baseline = TimeIt(func() { _, _ = s.RunLPath(id) })
		row.Ablated = TimeIt(func() { _, _ = s.RunLPathNoValueIndex(id) })
		out = append(out, row)
	}
	// 2. Scope as a primitive: Q4 = Q3 + scoping; the scoped form prunes.
	q3 := TimeIt(func() { _, _ = s.RunLPath(3) })
	q4 := TimeIt(func() { _, _ = s.RunLPath(4) })
	out = append(out, AblationRow{
		Name:     "scope-primitive",
		Query:    s.QueryText(4) + " vs " + s.QueryText(3),
		Baseline: q4,
		Ablated:  q3,
	})
	// 3. Join direction: start from the rare tag (RRC) vs the frequent one
	// (PP-TMP reversed via the parent axis).
	fwd, err := compileCount(s, `//RRC/PP-TMP`)
	if err != nil {
		return nil, err
	}
	rev, err := compileCount(s, `//PP-TMP[\RRC]`)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationRow{
		Name:     "join-direction",
		Query:    "//RRC/PP-TMP vs //PP-TMP[\\RRC]",
		Baseline: fwd,
		Ablated:  rev,
	})
	return out, nil
}

// PlannerRow is one query's before/after measurement of the cost-based
// planner: identical results, planned vs unplanned evaluation time.
type PlannerRow struct {
	ID        int
	Query     string
	Planned   time.Duration
	Unplanned time.Duration
	N         int // result size (identical by construction; verified)
}

// Speedup is the unplanned/planned time ratio (>1 = the planner helps).
func (r PlannerRow) Speedup() float64 {
	if r.Planned <= 0 {
		return 0
	}
	return float64(r.Unplanned) / float64(r.Planned)
}

// PlannerImpact measures every evaluation query with the cost-based planner
// on and off over the same store, verifying result identity as it goes —
// the optimizer's before/after benchmark.
func PlannerImpact(s *Systems) ([]PlannerRow, error) {
	var out []PlannerRow
	for _, id := range s.QueryIDs() {
		row := PlannerRow{ID: id, Query: s.QueryText(id)}
		var nPlanned, nUnplanned int
		var err error
		row.Planned = TimeIt(func() {
			var e error
			nPlanned, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d planned: %w", id, err)
		}
		row.Unplanned = TimeIt(func() {
			var e error
			nUnplanned, e = s.RunLPathNoPlanner(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d unplanned: %w", id, err)
		}
		if nPlanned != nUnplanned {
			return nil, fmt.Errorf("Q%d: planner changed the result: %d vs %d", id, nPlanned, nUnplanned)
		}
		row.N = nPlanned
		out = append(out, row)
	}
	return out, nil
}

// ExecRow is one query's measurement of the set-at-a-time merge executor:
// the full engine (the planner picks probe or merge per step) against the
// probe-only ablation, plus the steady-state heap allocations of one warm
// evaluation under each executor.
type ExecRow struct {
	ID          int
	Query       string
	Merge       time.Duration // full engine, merge executor available
	Probe       time.Duration // probe-only ablation
	AllocsMerge float64       // allocations per warm evaluation, full engine
	AllocsProbe float64       // allocations per warm evaluation, probe-only
	N           int           // result size (identical by construction; verified)
	Strategy    string        // per-step strategy counts from the plan
}

// Speedup is the probe/merge time ratio (>1 = the merge executor helps).
func (r ExecRow) Speedup() float64 {
	if r.Merge <= 0 {
		return 0
	}
	return float64(r.Probe) / float64(r.Merge)
}

// allocsPerRun reports the steady-state heap allocations of one call to f,
// averaged over several runs after a warm-up call (which populates the plan
// cache and grows the evaluator's scratch arenas to their working size).
func allocsPerRun(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up: compile, cache the plan, size the arenas
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// planStrategies summarizes the executor strategies the planner chose across
// every step of the plan, including scoped closures and nested predicate
// paths.
func planStrategies(pl *planner.Plan) string {
	if pl == nil || pl.Root == nil {
		return "probe:all"
	}
	var twig, merge, probe, bitmap int
	var walk func(pp *planner.PathPlan)
	walk = func(pp *planner.PathPlan) {
		if pp == nil {
			return
		}
		for _, sp := range pp.Steps {
			switch sp.Strategy {
			case planner.StrategyTwig:
				twig++
			case planner.StrategyMerge:
				merge++
			case planner.StrategyBitmap:
				bitmap++
			default:
				probe++
			}
			for _, pred := range sp.Preds {
				for _, sub := range pred.Paths {
					walk(sub)
				}
			}
		}
		walk(pp.Scoped)
	}
	walk(pl.Root)
	return fmt.Sprintf("twig:%d merge:%d probe:%d bitmap:%d", twig, merge, probe, bitmap)
}

// ExecutorImpact measures every evaluation query with the merge executor on
// and off over the same store, verifying result identity as it goes, and
// records steady-state allocations per evaluation under both executors —
// the set-at-a-time executor's before/after benchmark.
func ExecutorImpact(s *Systems) ([]ExecRow, error) {
	var out []ExecRow
	for _, id := range s.QueryIDs() {
		row := ExecRow{ID: id, Query: s.QueryText(id)}
		var nMerge, nProbe int
		var err error
		row.Merge = TimeIt(func() {
			var e error
			nMerge, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d merge: %w", id, err)
		}
		row.Probe = TimeIt(func() {
			var e error
			nProbe, e = s.RunLPathNoMerge(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d probe: %w", id, err)
		}
		if nMerge != nProbe {
			return nil, fmt.Errorf("Q%d: merge executor changed the result: %d vs %d", id, nMerge, nProbe)
		}
		row.N = nMerge
		row.AllocsMerge = allocsPerRun(func() { _, _ = s.RunLPath(id) })
		row.AllocsProbe = allocsPerRun(func() { _, _ = s.RunLPathNoMerge(id) })
		row.Strategy = planStrategies(s.LPath.Plan(s.lpathQ[id]))
		out = append(out, row)
	}
	return out, nil
}

// TwigRow is one query's measurement of the holistic twig executor: the
// full engine (the planner folds eligible runs into one synchronized
// multi-cursor sweep) against the twig-off ablation (the same planner
// restricted to per-step probe/merge execution), plus the steady-state heap
// allocations of one warm evaluation under each.
type TwigRow struct {
	ID           int
	Query        string
	Twig         time.Duration // full engine, twig executor available
	NoTwig       time.Duration // twig-off ablation (probe/merge per step)
	AllocsTwig   float64       // allocations per warm evaluation, full engine
	AllocsNoTwig float64       // allocations per warm evaluation, twig off
	N            int           // result size (identical by construction; verified)
	Strategy     string        // per-step strategy counts from the plan
}

// Speedup is the no-twig/twig time ratio (>1 = the twig executor helps).
func (r TwigRow) Speedup() float64 {
	if r.Twig <= 0 {
		return 0
	}
	return float64(r.NoTwig) / float64(r.Twig)
}

// TwigImpact measures every evaluation query with the holistic twig
// executor on and off over the same store. Result identity is checked four
// ways per query — planner-chosen, twig-off, probe-only, twig-forced and
// merge-forced all have to agree — before the timings are trusted.
func TwigImpact(s *Systems) ([]TwigRow, error) {
	var out []TwigRow
	for _, id := range s.QueryIDs() {
		row := TwigRow{ID: id, Query: s.QueryText(id)}
		var nTwig, nNoTwig int
		var err error
		row.Twig = TimeIt(func() {
			var e error
			nTwig, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d twig: %w", id, err)
		}
		row.NoTwig = TimeIt(func() {
			var e error
			nNoTwig, e = s.RunLPathNoTwig(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d no-twig: %w", id, err)
		}
		if nTwig != nNoTwig {
			return nil, fmt.Errorf("Q%d: twig executor changed the result: %d vs %d", id, nTwig, nNoTwig)
		}
		for name, run := range map[string]func(int) (int, error){
			"probe-only":   s.RunLPathNoMerge,
			"twig-forced":  s.RunLPathTwigForced,
			"merge-forced": s.RunLPathMergeForced,
		} {
			n, e := run(id)
			if e != nil {
				return nil, fmt.Errorf("Q%d %s: %w", id, name, e)
			}
			if n != nTwig {
				return nil, fmt.Errorf("Q%d: %s changed the result: %d vs %d", id, name, n, nTwig)
			}
		}
		row.N = nTwig
		row.AllocsTwig = allocsPerRun(func() { _, _ = s.RunLPath(id) })
		row.AllocsNoTwig = allocsPerRun(func() { _, _ = s.RunLPathNoTwig(id) })
		row.Strategy = planStrategies(s.LPath.Plan(s.lpathQ[id]))
		out = append(out, row)
	}
	return out, nil
}

// BitmapRow is one query's measurement of the dense-bitset kernels: the full
// engine (the planner marks winning scope entries StrategyBitmap and
// satisfier sets materialize as bitsets) against the bitmap-off ablation
// (the pre-bitmap engine), plus the steady-state heap allocations of one
// warm evaluation under each.
type BitmapRow struct {
	ID           int
	Query        string
	Bitmap       time.Duration // full engine, bitmap kernels available
	NoBitmap     time.Duration // bitmap-off ablation (pre-bitmap engine)
	AllocsBitmap float64       // allocations per warm evaluation, full engine
	AllocsNoBmp  float64       // allocations per warm evaluation, bitmap off
	N            int           // result size (identical by construction; verified)
	Strategy     string        // per-step strategy counts from the plan
}

// Speedup is the no-bitmap/bitmap time ratio (>1 = the bitmap kernels help).
func (r BitmapRow) Speedup() float64 {
	if r.Bitmap <= 0 {
		return 0
	}
	return float64(r.NoBitmap) / float64(r.Bitmap)
}

// BitmapImpact measures every evaluation query with the dense-bitset kernels
// on and off over the same store. Result identity is checked five ways per
// query — planner-chosen, bitmap-off, probe-only, bitmap-forced, twig-forced
// and merge-forced all have to agree — before the timings are trusted.
func BitmapImpact(s *Systems) ([]BitmapRow, error) {
	var out []BitmapRow
	for _, id := range s.QueryIDs() {
		row := BitmapRow{ID: id, Query: s.QueryText(id)}
		var nBmp, nNoBmp int
		var err error
		row.Bitmap = TimeIt(func() {
			var e error
			nBmp, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d bitmap: %w", id, err)
		}
		row.NoBitmap = TimeIt(func() {
			var e error
			nNoBmp, e = s.RunLPathNoBitmap(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d no-bitmap: %w", id, err)
		}
		if nBmp != nNoBmp {
			return nil, fmt.Errorf("Q%d: bitmap kernels changed the result: %d vs %d", id, nBmp, nNoBmp)
		}
		for name, run := range map[string]func(int) (int, error){
			"probe-only":    s.RunLPathNoMerge,
			"bitmap-forced": s.RunLPathBitmapForced,
			"twig-forced":   s.RunLPathTwigForced,
			"merge-forced":  s.RunLPathMergeForced,
		} {
			n, e := run(id)
			if e != nil {
				return nil, fmt.Errorf("Q%d %s: %w", id, name, e)
			}
			if n != nBmp {
				return nil, fmt.Errorf("Q%d: %s changed the result: %d vs %d", id, name, n, nBmp)
			}
		}
		row.N = nBmp
		row.AllocsBitmap = allocsPerRun(func() { _, _ = s.RunLPath(id) })
		row.AllocsNoBmp = allocsPerRun(func() { _, _ = s.RunLPathNoBitmap(id) })
		row.Strategy = planStrategies(s.LPath.Plan(s.lpathQ[id]))
		out = append(out, row)
	}
	return out, nil
}

// LimitPoints are the pushed-down limits the early-termination experiment
// measures against the full evaluation.
var LimitPoints = []int{1, 10, 100}

// LimitRow is one query's limit-pushdown measurement: the full evaluation
// against EvalPlanLimitContext at each of LimitPoints over the same store.
type LimitRow struct {
	ID      int
	Query   string
	Full    time.Duration
	Limited []time.Duration // aligned with LimitPoints
	N       int             // full result size
}

// Speedup is the full/limited time ratio at LimitPoints[i] (>1 = early
// termination helps).
func (r LimitRow) Speedup(i int) float64 {
	if r.Limited[i] <= 0 {
		return 0
	}
	return float64(r.Full) / float64(r.Limited[i])
}

// LimitImpact measures every evaluation query with the limit pushed into the
// engine at each of LimitPoints against the full evaluation — the streaming
// early-termination before/after benchmark. Every limited run is verified to
// equal the corresponding prefix of the full result before its timing is
// trusted.
func LimitImpact(s *Systems) ([]LimitRow, error) {
	ctx := context.Background()
	var out []LimitRow
	for _, id := range s.QueryIDs() {
		plan := s.lpathQ[id]
		full, err := s.LPath.Eval(plan)
		if err != nil {
			return nil, fmt.Errorf("Q%d full: %w", id, err)
		}
		row := LimitRow{ID: id, Query: s.QueryText(id), N: len(full)}
		row.Full = TimeIt(func() {
			if _, e := s.LPath.Eval(plan); e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d full: %w", id, err)
		}
		for _, k := range LimitPoints {
			got, e := s.LPath.EvalPlanLimitContext(ctx, plan, s.LPath.Plan(plan), k)
			if e != nil {
				return nil, fmt.Errorf("Q%d limit %d: %w", id, k, e)
			}
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				return nil, fmt.Errorf("bench: Q%d limit %d is not the prefix of the full result (%d vs %d matches)",
					id, k, len(got), len(want))
			}
			row.Limited = append(row.Limited, TimeIt(func() {
				if _, e := s.LPath.EvalPlanLimitContext(ctx, plan, s.LPath.Plan(plan), k); e != nil {
					err = e
				}
			}))
			if err != nil {
				return nil, fmt.Errorf("Q%d limit %d: %w", id, k, err)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// ParallelRow is one (query, workers) measurement of the parallel-scaling
// experiment: the serial engine time against the sharded EvalParallel time
// at a worker count, with the speedup factor.
type ParallelRow struct {
	ID       int
	Query    string
	Workers  int
	Serial   time.Duration
	Parallel time.Duration
	Matches  int
}

// Speedup is the serial/parallel time ratio.
func (r ParallelRow) Speedup() float64 {
	if r.Parallel <= 0 {
		return 0
	}
	return float64(r.Serial) / float64(r.Parallel)
}

// ParallelScaling measures the sharded parallel evaluator against the
// serial engine on the representative Figure 9 queries, sweeping the worker
// counts over a fixed shard layout (one shard per worker at the largest
// count, so only the pool size varies across rows). Speedups track the
// physical core count: on a single-core host every worker count measures
// scheduling overhead only.
func ParallelScaling(s *Systems, workerCounts []int) ([]ParallelRow, error) {
	maxWorkers := 1
	for _, w := range workerCounts {
		if w > maxWorkers {
			maxWorkers = w
		}
	}
	shards, err := engine.NewSharded(relstore.BuildShards(s.Trees, relstore.SchemeInterval, maxWorkers))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var out []ParallelRow
	for _, id := range Fig9Queries {
		plan := s.lpathQ[id]
		var serialN int
		serial := TimeIt(func() {
			ms, e := s.LPath.Eval(plan)
			if e != nil {
				err = e
			}
			serialN = len(ms)
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d serial: %w", id, err)
		}
		for _, w := range workerCounts {
			row := ParallelRow{ID: id, Query: s.QueryText(id), Workers: w, Serial: serial}
			row.Parallel = TimeIt(func() {
				ms, e := engine.EvalParallel(ctx, shards, plan, shards[0].Plan(plan), 0, w)
				if e != nil {
					err = e
				}
				row.Matches = len(ms)
			})
			if err != nil {
				return nil, fmt.Errorf("Q%d workers=%d: %w", id, w, err)
			}
			if row.Matches != serialN {
				return nil, fmt.Errorf("bench: Q%d parallel returned %d matches, serial %d",
					id, row.Matches, serialN)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func compileCount(s *Systems, text string) (time.Duration, error) {
	p, err := parseLPath(text)
	if err != nil {
		return 0, err
	}
	var evalErr error
	d := TimeIt(func() {
		if _, e := s.LPath.Count(p); e != nil {
			evalErr = e
		}
	})
	return d, evalErr
}

// BatchSizes are the batch widths measured by BatchImpact.
var BatchSizes = []int{1, 4, 16, 64}

// BatchWorkloadLen is the length of the serving mix BatchImpact evaluates.
const BatchWorkloadLen = 64

// BatchWorkload is the deterministic 64-query serving mix of the batched
// evaluation experiment: three of every four slots cycle the representative
// Figure 9 trio — the way production query traffic skews toward a few hot
// texts — and every fourth slot walks the full 23-query suite so the tail is
// represented. At batch width 16 a window holds the hot trio four times over
// plus four tail queries, so the cross-query rows memo collapses roughly
// sixteen evaluations into seven.
func (s *Systems) BatchWorkload() []int {
	ids := s.QueryIDs()
	out := make([]int, BatchWorkloadLen)
	for i := range out {
		if i%4 < 3 {
			out[i] = Fig9Queries[i%4]
		} else {
			out[i] = ids[(i/4)%len(ids)]
		}
	}
	return out
}

// BatchRow is one batch-width measurement: the whole workload evaluated
// query-by-query (Serial) against the same workload evaluated in batches of
// Size (Batched), with the memo sharing the batched pass achieved.
type BatchRow struct {
	Size    int
	Serial  time.Duration // workload total, one Eval per query
	Batched time.Duration // workload total, EvalBatch in chunks of Size
	Stats   engine.BatchStats
	Matches int // total matches across the workload
}

// Speedup is the serial/batched aggregate throughput ratio.
func (r BatchRow) Speedup() float64 {
	if r.Batched <= 0 {
		return 0
	}
	return float64(r.Serial) / float64(r.Batched)
}

// RowsHitRate is the fraction of per-plan row scans answered by the batch
// memo.
func (r BatchRow) RowsHitRate() float64 {
	if t := r.Stats.RowsHits + r.Stats.RowsMisses; t > 0 {
		return float64(r.Stats.RowsHits) / float64(t)
	}
	return 0
}

// FrontierHitRate is the fraction of main-path frontier computations
// answered by the batch memo.
func (r BatchRow) FrontierHitRate() float64 {
	if t := r.Stats.FrontierHits + r.Stats.FrontierMisses; t > 0 {
		return float64(r.Stats.FrontierHits) / float64(t)
	}
	return 0
}

// SatHitRate is the fraction of semijoin satisfier sets answered by the
// batch memo.
func (r BatchRow) SatHitRate() float64 {
	if t := r.Stats.SatHits + r.Stats.SatMisses; t > 0 {
		return float64(r.Stats.SatHits) / float64(t)
	}
	return 0
}

// BatchImpact measures EvalBatch against query-by-query evaluation over the
// BatchWorkload serving mix at each of BatchSizes. Every batched slot is
// verified element-wise against its serial evaluation before any timing is
// trusted, so the speedups are over identical results.
func BatchImpact(s *Systems) ([]BatchRow, error) {
	work := s.BatchWorkload()
	paths := make([]*lpath.Path, len(work))
	for i, id := range work {
		paths[i] = s.lpathQ[id]
	}

	// Serial reference: one Eval per slot, also the identity oracle.
	serial := make([][]engine.Match, len(work))
	var total int
	for i, id := range work {
		got, err := s.LPath.Eval(paths[i])
		if err != nil {
			return nil, fmt.Errorf("Q%d serial: %w", id, err)
		}
		serial[i] = got
		total += len(got)
	}
	var evalErr error
	serialTime := TimeIt(func() {
		for i := range paths {
			if _, e := s.LPath.Eval(paths[i]); e != nil {
				evalErr = e
			}
		}
	})
	if evalErr != nil {
		return nil, fmt.Errorf("serial workload: %w", evalErr)
	}

	ctx := context.Background()
	// batch plans and evaluates one chunk of the workload in a shared-memo
	// pass, as a serving layer would.
	batch := func(lo, hi int) ([]engine.BatchResult, engine.BatchStats) {
		qs := make([]engine.BatchQuery, hi-lo)
		for i, p := range paths[lo:hi] {
			qs[i] = engine.BatchQuery{Path: p, Plan: s.LPath.Plan(p)}
		}
		return s.LPath.EvalBatch(ctx, qs)
	}
	var out []BatchRow
	for _, size := range BatchSizes {
		// Verification pass (untimed): every slot must equal its serial
		// evaluation; the memo hit counters come from this pass.
		var stats engine.BatchStats
		for lo := 0; lo < len(paths); lo += size {
			hi := lo + size
			if hi > len(paths) {
				hi = len(paths)
			}
			got, st := batch(lo, hi)
			for j, r := range got {
				if r.Err != nil {
					return nil, fmt.Errorf("Q%d batch %d: %w", work[lo+j], size, r.Err)
				}
				if !reflect.DeepEqual(r.Matches, serial[lo+j]) {
					return nil, fmt.Errorf("bench: Q%d at batch width %d diverges from serial evaluation (%d vs %d matches)",
						work[lo+j], size, len(r.Matches), len(serial[lo+j]))
				}
			}
			stats.Add(st)
		}
		// Timing pass: pure evaluation, no per-slot comparison.
		batched := TimeIt(func() {
			for lo := 0; lo < len(paths); lo += size {
				hi := lo + size
				if hi > len(paths) {
					hi = len(paths)
				}
				got, _ := batch(lo, hi)
				for _, r := range got {
					if r.Err != nil {
						evalErr = r.Err
					}
				}
			}
		})
		if evalErr != nil {
			return nil, fmt.Errorf("batch %d: %w", size, evalErr)
		}
		out = append(out, BatchRow{
			Size:    size,
			Serial:  serialTime,
			Batched: batched,
			Stats:   stats,
			Matches: total,
		})
	}
	return out, nil
}
