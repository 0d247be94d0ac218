// Package lpath is a from-scratch Go implementation of LPath, the XPath
// dialect for linguistic queries of Bird, Chen, Davidson, Lee and Zheng
// (ICDE 2006), together with the interval-labeling query engine the paper
// proposes and the baseline systems it evaluates against.
//
// The public API is small:
//
//	c, _ := lpath.GenerateCorpus("wsj", 0.01, 42) // or LoadCorpus / NewCorpus
//	q, _ := lpath.Compile(`//VP{/V-->N}`)
//	matches, _ := c.Select(q)
//	n, _ := c.Count(q)
//
// Select and Count are shorthands for the one request path, Corpus.Run: a
// Request names the query (compiled, or raw text resolved through the plan
// cache), the mode (matches, count, EXPLAIN), an optional limit, and whether
// to run tid windows of the corpus in parallel.
//
// Queries support the full LPath language: the XPath vertical axes, the
// horizontal axes -> --> <- <-- => ==> <= <==, subtree scoping with braces,
// edge alignment ^ and $, and predicates with @attr comparisons, and/or/not.
//
// Corpora are ordered trees in the Penn Treebank bracketed format. Run uses
// the interval-label relational engine (internal/engine); SelectOracle
// evaluates with the reference tree-walker for cross-checking.
package lpath

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"iter"
	"os"
	"runtime"

	"lpath/internal/corpus"
	"lpath/internal/engine"
	ast "lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
	"lpath/internal/relstore/snapshot"
	"lpath/internal/sqlgen"
	"lpath/internal/tree"
	"lpath/internal/treeval"
)

// Tree is an ordered linguistic tree (see the internal/tree package for the
// node model).
type Tree = tree.Tree

// Node is a node of a linguistic tree.
type Node = tree.Node

// Match is one query result: a node within a tree of the corpus.
type Match = engine.Match

// Stats summarizes a corpus (sentence, word, node and tag counts).
type Stats = corpus.Stats

// ParseTree parses one bracketed tree, e.g. "(S (NP I) (VP (V saw)))".
func ParseTree(s string) (*Tree, error) { return tree.ParseTree(s) }

// Query is a compiled LPath query.
type Query struct {
	text string
	path *ast.Path
}

// Compile parses and validates an LPath query.
func Compile(text string) (*Query, error) {
	p, err := compilePath(text)
	if err != nil {
		return nil, err
	}
	return &Query{text: text, path: p}, nil
}

func compilePath(text string) (*ast.Path, error) {
	p, err := ast.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := ast.Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// MustCompile is Compile panicking on error; for tests and constants.
func MustCompile(text string) *Query {
	q, err := Compile(text)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the original query text.
func (q *Query) String() string { return q.text }

// Canonical returns the pretty-printed canonical form of the query.
func (q *Query) Canonical() string { return q.path.String() }

// SQL returns the relational translation of the query over the node
// relation {tid, left, right, depth, id, pid, name, value}, as the paper's
// yacc-based translator produced for its commercial database backend.
func (q *Query) SQL() (string, error) { return sqlgen.Translate(q.path) }

// Corpus is a queryable collection of linguistic trees. The zero value is
// not usable; create one with NewCorpus, LoadCorpus, OpenCorpus or
// GenerateCorpus. Adding trees invalidates the index, which is rebuilt
// lazily on the next query.
type Corpus struct {
	// trees is nil on a snapshot-backed corpus nobody has added to: its trees
	// are the store's, built on demand (see forest).
	trees  *tree.Corpus
	store  *relstore.Store
	eng    *engine.Engine
	oracle *treeval.CorpusEval
	dirty  bool

	// workers bounds the worker pool of Parallel requests.
	workers int

	// planCache memoizes query text → compiled plan for Request.Text.
	planCache *engine.PlanCache

	// gen counts store rebuilds; cached executable plans are keyed to it so
	// a rebuilt corpus (new statistics) invalidates plans but not ASTs.
	gen uint64
	// closer releases the backing resources of a snapshot-loaded corpus
	// (the mmap of OpenStore); see Close.
	closer func() error
	// engineOpts configure every engine this corpus builds (WithoutPlanner
	// and the executor-pinning options), in the order they were applied: a
	// later option overrides an earlier one for the same executor.
	engineOpts []engine.Option
}

// Option configures query execution on a Corpus; pass options to a
// constructor or apply them later with Configure.
type Option func(*Corpus)

// WithWorkers bounds the worker pool of Parallel requests at n goroutines.
// The default (and any value below 1) is runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(c *Corpus) { c.workers = n }
}

// engineOption is a corpus option that configures the engines the corpus
// builds; built indexes are invalidated so the next query applies it.
func engineOption(o engine.Option) Option {
	return func(c *Corpus) {
		c.engineOpts = append(c.engineOpts, o)
		c.dirty = true
	}
}

// WithoutPlanner disables the statistics-driven cost-based planner, so every
// query evaluates with the engine's default strategy. The planner never
// changes results — only evaluation order and access paths — which the
// differential tests enforce; this option exists for those tests and for
// measuring the planner's contribution.
func WithoutPlanner() Option { return engineOption(engine.WithoutPlanner()) }

// withoutBitmap switches the bitmap kernels off, so every step runs
// per-binding probes, scopes expand per scope and filters evaluate candidate
// by candidate: the probe reference. withBitmapAlways forces the kernels
// wherever they are eligible, bypassing the engine's run-time side rule.
// Both sides are result-identical; these are
// differential-test hooks that keep each under continuous cross-checking
// (the fuzzers and the per-strategy table tests rotate through them).
func withoutBitmap() Option    { return engineOption(engine.WithoutBitmap()) }
func withBitmapAlways() Option { return engineOption(engine.WithBitmapAlways()) }

// withFilterSets and withFiltersForward force the filters that can be
// answered for a whole frontier onto one side of the engine's run-time
// choice — satisfier sets and the scope-only kernel, or candidate-by-candidate
// forward evaluation; the differential tests and fuzzers rotate through both.
func withFilterSets() Option     { return engineOption(engine.WithFilterPath(true)) }
func withFiltersForward() Option { return engineOption(engine.WithFilterPath(false)) }

// WithPlanCache enables the compiled-plan cache that Request.Text resolves
// through, holding at most capacity plans under LRU eviction (capacity < 1
// selects the default, engine.DefaultPlanCacheSize = 128).
func WithPlanCache(capacity int) Option {
	return func(c *Corpus) { c.planCache = engine.NewPlanCache(capacity) }
}

// Configure applies options to an existing corpus. It is not safe to call
// concurrently with queries.
func (c *Corpus) Configure(opts ...Option) {
	for _, o := range opts {
		o(c)
	}
}

func newCorpus(tc *tree.Corpus, opts ...Option) *Corpus {
	c := &Corpus{trees: tc, dirty: true}
	c.Configure(opts...)
	return c
}

// NewCorpus creates an empty corpus.
func NewCorpus(opts ...Option) *Corpus {
	return newCorpus(tree.NewCorpus(), opts...)
}

// LoadCorpus reads bracketed trees from r.
func LoadCorpus(r io.Reader, opts ...Option) (*Corpus, error) {
	tc, err := tree.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return newCorpus(tc, opts...), nil
}

// OpenCorpus reads bracketed trees from a file.
func OpenCorpus(path string, opts ...Option) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := LoadCorpus(f, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// GenerateCorpus synthesizes a corpus with the named profile ("wsj" or
// "swb") at the given scale (1.0 ≈ the paper's corpus size; see
// internal/corpus for the calibration).
func GenerateCorpus(profile string, scale float64, seed int64, opts ...Option) (*Corpus, error) {
	p, err := corpus.ParseProfile(profile)
	if err != nil {
		return nil, err
	}
	tc := corpus.Generate(corpus.Config{Profile: p, Scale: scale, Seed: seed})
	return newCorpus(tc, opts...), nil
}

// forest returns the corpus's trees. A snapshot-backed corpus materializes
// them from the store's columns, all of them, on the first call that needs
// the whole forest; queries never do (a match materializes its own tree).
func (c *Corpus) forest() *tree.Corpus {
	if c.trees == nil {
		return c.store.Forest()
	}
	return c.trees
}

// Add appends a tree to the corpus.
func (c *Corpus) Add(t *Tree) {
	c.trees = c.forest()
	c.trees.Add(t)
	c.dirty = true
}

// AddSentence parses a bracketed tree and appends it.
func (c *Corpus) AddSentence(bracketed string) error {
	t, err := tree.ParseTree(bracketed)
	if err != nil {
		return err
	}
	c.Add(t)
	return nil
}

// Len returns the number of trees.
func (c *Corpus) Len() int {
	if c.trees == nil {
		return len(c.store.Roots())
	}
	return c.trees.Len()
}

// Trees returns the underlying trees (shared, not copied).
func (c *Corpus) Trees() []*Tree { return c.forest().Trees }

// Stats measures the corpus (Figure 6(a)-style statistics). It renders
// every tree, for FileSize: on a snapshot-backed corpus the trees stream
// through one at a time and none is kept, but each is built and written.
// Counts reads the tree, node and word counts without either.
func (c *Corpus) Stats() Stats {
	if c.trees == nil {
		return corpus.MeasureTrees(c.store.Trees())
	}
	return corpus.Measure(c.trees)
}

// Counts returns the numbers of trees, element nodes and words (@lex rows)
// as the corpus's built store holds them, building the index first if
// needed; they equal Stats' Sentences, TreeNodes and Words. No tree is built
// or rendered.
func (c *Corpus) Counts() (trees, nodes, words int, err error) {
	if err := c.Build(); err != nil {
		return 0, 0, 0, err
	}
	lo, hi := c.store.AttrRange("lex")
	return c.store.TreeCount(), c.store.ElementCount(), int(hi - lo), nil
}

// Save writes the corpus in bracketed format.
func (c *Corpus) Save(w io.Writer) error { return tree.WriteAll(w, c.forest()) }

// SaveStore writes the corpus's interval-label store as a binary snapshot
// (the .lpx format of internal/relstore/snapshot), building it first if
// needed. A snapshot contains the complete built index — the clustered
// label columns, the dictionaries, the value postings, the document-order
// element permutation and the planner's statistics block — so LoadStore
// answers queries without re-parsing, re-labeling, or re-sorting anything:
// the paper's "label once, query many times" workflow.
func (c *Corpus) SaveStore(w io.Writer) error {
	if err := c.Build(); err != nil {
		return err
	}
	return snapshot.Write(w, c.store)
}

// SaveStoreFile writes the store snapshot to path atomically (temp file +
// rename), building the index first if needed.
func (c *Corpus) SaveStoreFile(path string) error {
	if err := c.Build(); err != nil {
		return err
	}
	return snapshot.WriteFile(path, c.store)
}

// LoadStore reads a store snapshot written by SaveStore and returns a
// ready-to-query corpus; see OpenStore for what loading does and does not
// build. Every load failure — truncation, bit corruption, version skew — is
// reported as a typed error from internal/relstore/snapshot; a snapshot
// never loads silently wrong.
func LoadStore(r io.Reader, opts ...Option) (*Corpus, error) {
	store, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return corpusFromStore(store, nil, opts...)
}

// OpenStore memory-maps a store snapshot file. The label columns, the value
// postings, the document-order element permutation and the dictionary
// strings alias the mapping, which the kernel page cache shares across
// processes; opening validates all of them (one sequential read of the
// file) and derives the rest in linear passes —
// the child/attribute/parent position arrays, the identity row sequence, the
// attribute value ids and the tag-pair summary the planner proves empty
// answers with (1 MB at scale 1.0): 0.70 times the file's size in heap at
// scale 1.0 (docs/SNAPSHOT.md, "What open costs"). It builds no tree: a
// match materializes the one tree it lives in when its Node is asked for, so
// Count, limit queries and a server's hit path never pay for the forest;
// Trees, Save, Add and SelectOracle materialize all of it, once. The mapping
// lives until Close (or process exit).
func OpenStore(path string, opts ...Option) (*Corpus, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	return corpusFromStore(f.Store(), f.Close, opts...)
}

// corpusFromStore wraps an already-built store (from a snapshot) in a
// Corpus, honoring the configured engine options.
func corpusFromStore(store *relstore.Store, closer func() error, opts ...Option) (*Corpus, error) {
	c := &Corpus{store: store, closer: closer}
	c.Configure(opts...)
	eng, err := engine.New(store, c.engineOpts...)
	if err != nil {
		return nil, err
	}
	c.eng = eng
	c.dirty = false // the options above are already in eng
	return c, nil
}

// Close releases resources held by a snapshot-backed corpus (the mmap of
// OpenStore). It is a no-op for corpora built from trees. The corpus must
// not be queried after Close.
func (c *Corpus) Close() error {
	if c.closer == nil {
		return nil
	}
	closer := c.closer
	c.closer = nil
	return closer()
}

// Build constructs the interval-label store and indexes eagerly. Queries
// trigger it automatically; calling it explicitly separates indexing time
// from query time, as the benchmarks do.
func (c *Corpus) Build() error {
	if !c.dirty && c.eng != nil {
		return nil
	}
	// A snapshot-backed corpus nobody added to keeps its store: only its
	// engine can be stale (Configure with an engine option).
	store := c.store
	if c.trees != nil {
		if err := checkTags(c.trees); err != nil {
			return err
		}
		store = relstore.Build(c.trees, relstore.SchemeInterval)
	}
	eng, err := engine.New(store, c.engineOpts...)
	if err != nil {
		return err
	}
	c.store = store
	c.eng = eng
	c.oracle = nil
	c.dirty = false
	c.gen++ // new statistics: cached executable plans are stale
	return nil
}

// checkTags refuses a tag the store cannot hold: an empty one, or one that
// starts with '@', which marks the store's attribute names.
func checkTags(c *tree.Corpus) error {
	var err error
	for _, t := range c.Trees {
		if t.Root == nil {
			continue
		}
		t.Root.Walk(func(n *tree.Node) bool {
			if err == nil && (n.Tag == "" || n.Tag[0] == '@') {
				err = fmt.Errorf("lpath: tree %d: tag %q cannot name an element: it is empty or starts with '@'", t.ID, n.Tag)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Mode selects what a Request computes (see engine.Mode).
type Mode = engine.Mode

const (
	// ModeSelect returns the distinct matches of the query's final step in
	// (tree, document) order.
	ModeSelect = engine.ModeSelect
	// ModeCount returns only the number of matches, using the engine's
	// count-only pipeline: the same joins as ModeSelect, but without the final
	// sort and node materialization. It always equals len of ModeSelect's
	// matches.
	ModeCount = engine.ModeCount
	// ModeExplain plans the query against the corpus statistics, executes the
	// plan with cardinality counters, and returns the EXPLAIN report: per
	// step, the chosen access path and the estimated vs actual rows (see
	// docs/PLANNER.md for the format). The counters are fresh on every run — a
	// cached plan never reports a prior execution's actuals.
	ModeExplain = engine.ModeExplain
)

// Request is one query evaluation. Every way of running a query — full or
// limited, serial or parallel, compiled or raw text — is a Request value
// handed to Run or Stream; the zero value of each field is the plain case.
type Request struct {
	// Query is the compiled query. When nil, Text is compiled instead.
	Query *Query
	// Text is raw query text, resolved through the corpus's plan cache (see
	// WithPlanCache) — the repeated-traffic spelling: a hot text pays parse +
	// validate + cost-based planning once per store build, and each repeat
	// executes the cached plan directly, serial or Parallel. Without a
	// configured cache the text is compiled on every call.
	Text string
	// Mode selects matches, a count, or an EXPLAIN report.
	Mode Mode
	// Limit caps ModeSelect at the first Limit entries of the full (tree,
	// document)-ordered result, with early termination: trees past the one
	// holding the Limit-th match are never evaluated, so the cost of a
	// limited query over a high-match corpus is proportional to the trees
	// actually needed, not the corpus. 0 means no limit; the other modes
	// ignore the field.
	Limit int
	// Parallel evaluates ModeSelect and ModeCount over tree-ID windows of the
	// one index on a bounded pool of workers (see WithWorkers), in Run and in
	// Stream alike. The result is exactly the serial one, in the same order —
	// deterministic and independent of the worker count; under a Limit, or
	// once a Stream's consumer stops, windows past the settled prefix are
	// cancelled. ModeExplain ignores the field: the report describes one
	// serial run.
	Parallel bool
}

// Result is the outcome of one Request: Matches for ModeSelect (non-nil,
// possibly empty), Count for ModeCount and for ModeSelect (len(Matches)),
// Explain for ModeExplain.
type Result = engine.Result

// resolve is the front half of every evaluation: build the index, resolve
// the query — a compiled Query as is, Text through the plan cache — and plan
// it, once.
func (c *Corpus) resolve(req Request) (*ast.Path, *planner.Plan, error) {
	if req.Mode < ModeSelect || req.Mode > ModeExplain {
		return nil, nil, fmt.Errorf("lpath: unknown request mode %d", req.Mode)
	}
	if err := c.Build(); err != nil {
		return nil, nil, err
	}
	var path *ast.Path
	switch {
	case req.Query != nil:
		path = req.Query.path
	case c.planCache != nil:
		return c.planCache.GetOrPlan(req.Text, c.gen, compilePath, c.eng.Plan)
	default:
		var err error
		if path, err = compilePath(req.Text); err != nil {
			return nil, nil, err
		}
	}
	return path, c.eng.Plan(path), nil
}

// Run evaluates one request: the single path from a query to the engine.
// Cancellation or an expired deadline interrupts the evaluation
// cooperatively — the executors poll the context inside their sweeps, and a
// Parallel run abandons windows that have not started — so even a
// long-running query returns promptly with the context's error
// (context.Canceled or context.DeadlineExceeded); context.Background() is the
// no-deadline case.
func (c *Corpus) Run(ctx context.Context, req Request) (Result, error) {
	path, plan, err := c.resolve(req)
	if err != nil {
		return Result{}, err
	}
	return c.eng.Run(ctx, path, plan, c.spec(req))
}

// spec is the engine's spelling of a request: a Parallel one runs on the
// corpus's worker bound.
func (c *Corpus) spec(req Request) engine.Spec {
	s := engine.Spec{Mode: req.Mode, Limit: req.Limit}
	if req.Parallel {
		s.Workers = cmp.Or(max(c.workers, 0), runtime.GOMAXPROCS(0))
	}
	return s
}

// Stream is the iterator form of Run for ModeSelect requests: a
// range-over-func iterator over the matches in Run's (tree, document) order,
// evaluating incrementally — breaking out of the range loop terminates the
// evaluation, so consuming k matches costs what Limit: k costs. A Parallel
// stream evaluates windows ahead on the worker pool and yields the identical
// sequence. It stops by itself after a positive Limit. On an evaluation
// error — the context's, when cancelled — the iterator yields one (zero
// Match, error) pair and stops.
func (c *Corpus) Stream(ctx context.Context, req Request) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		path, plan, err := c.resolve(req)
		if err == nil && req.Mode != ModeSelect {
			err = fmt.Errorf("lpath: Stream needs a ModeSelect request")
		}
		if err == nil {
			spec := c.spec(req)
			spec.Yield = func(m Match) bool { return yield(m, nil) }
			_, err = c.eng.Run(ctx, path, plan, spec)
		}
		if err != nil {
			yield(Match{}, err)
		}
	}
}

// Select evaluates the query with the label-based engine and returns the
// distinct matches of its final step in document order; it is
// Run(context.Background(), Request{Query: q}).
func (c *Corpus) Select(q *Query) ([]Match, error) {
	res, err := c.Run(context.Background(), Request{Query: q})
	return res.Matches, err
}

// SelectLimit is Select returning at most limit matches — exactly the first
// limit entries of Select's result, with early termination (Request.Limit).
// limit <= 0 returns an empty slice.
func (c *Corpus) SelectLimit(q *Query, limit int) ([]Match, error) {
	if limit <= 0 {
		return []Match{}, nil
	}
	res, err := c.Run(context.Background(), Request{Query: q, Limit: limit})
	return res.Matches, err
}

// SelectLimitTextContext is SelectLimit on raw query text (Request.Text)
// honoring a context — lpathd's limited serving call.
func (c *Corpus) SelectLimitTextContext(ctx context.Context, text string, limit int) ([]Match, error) {
	if limit <= 0 {
		return []Match{}, nil
	}
	res, err := c.Run(ctx, Request{Text: text, Limit: limit})
	return res.Matches, err
}

// Matches returns a range-over-func iterator over the query's matches in
// Select's order; it is Stream(context.Background(), Request{Query: q}).
//
//	for m, err := range c.Matches(q) {
//		if err != nil { ... }
//		use(m)
//	}
func (c *Corpus) Matches(q *Query) iter.Seq2[Match, error] {
	return c.Stream(context.Background(), Request{Query: q})
}

// Count returns the number of matches of the query (ModeCount); it always
// equals len(Select(q)).
func (c *Corpus) Count(q *Query) (int, error) {
	res, err := c.Run(context.Background(), Request{Query: q, Mode: ModeCount})
	return res.Count, err
}

// CountParallel is Count over parallel tid windows (Request.Parallel): each
// window counts its distinct matches and the disjoint counts are summed.
func (c *Corpus) CountParallel(q *Query) (int, error) {
	res, err := c.Run(context.Background(), Request{Query: q, Mode: ModeCount, Parallel: true})
	return res.Count, err
}

// CountText is Count on raw query text (Request.Text).
func (c *Corpus) CountText(text string) (int, error) {
	return c.CountTextContext(context.Background(), text)
}

// CountTextContext is CountText honoring a context — lpathd's counting
// serving call.
func (c *Corpus) CountTextContext(ctx context.Context, text string) (int, error) {
	res, err := c.Run(ctx, Request{Text: text, Mode: ModeCount})
	return res.Count, err
}

// Explain returns the query's EXPLAIN report (ModeExplain).
func (c *Corpus) Explain(q *Query) (string, error) {
	res, err := c.Run(context.Background(), Request{Query: q, Mode: ModeExplain})
	return res.Explain, err
}

// ExplainText is Explain on raw query text (Request.Text): the report
// renders the cached executable plan a repeated text will actually run.
func (c *Corpus) ExplainText(text string) (string, error) {
	res, err := c.Run(context.Background(), Request{Text: text, Mode: ModeExplain})
	return res.Explain, err
}

// SelectBatchStats selects each query as Select would, slot i holding
// Select(qs[i])'s matches and error; once the context is done, every query
// left reports its error. The engine shares no work across queries, so the
// stats are always zero. The method remains only because the frozen benchmark
// harness (benchmark/trace.go) compiles against it.
func (c *Corpus) SelectBatchStats(ctx context.Context, qs []*Query) ([][]Match, []error, engine.BatchStats) {
	out, errs := make([][]Match, len(qs)), make([]error, len(qs))
	for i, q := range qs {
		res, err := c.Run(ctx, Request{Query: q})
		out[i], errs[i] = res.Matches, err
	}
	return out, errs, engine.BatchStats{}
}

// CacheStats reports plan-cache effectiveness; see Corpus.PlanCacheStats.
type CacheStats = engine.CacheStats

// PlanCacheStats returns the plan cache's hit/miss/eviction counters, or a
// zero snapshot when no cache is configured.
func (c *Corpus) PlanCacheStats() CacheStats {
	if c.planCache == nil {
		return CacheStats{}
	}
	return c.planCache.Stats()
}

// SelectOracle evaluates the query with the reference tree-walking
// evaluator. It is slow and exists to cross-check Select.
func (c *Corpus) SelectOracle(q *Query) ([]Match, error) {
	if c.oracle == nil {
		c.oracle = treeval.NewCorpus(c.forest())
	}
	ms, err := c.oracle.Eval(q.path)
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{TreeID: m.TreeID, Node: m.Node}
	}
	return out, nil
}

// EvalQueries returns the paper's 23-query evaluation set (Figure 6(c)),
// in order; XPath reports which are XPath 1.0-expressible.
func EvalQueries() []EvalQuery {
	out := make([]EvalQuery, 0, len(ast.EvalQueries))
	for _, q := range ast.EvalQueries {
		out = append(out, EvalQuery{ID: q.ID, Text: q.Text, XPath: q.XPathExpressible})
	}
	return out
}

// EvalQuery is one entry of the paper's evaluation query set.
type EvalQuery struct {
	ID    int
	Text  string
	XPath bool
}
