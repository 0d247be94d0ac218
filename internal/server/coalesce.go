package server

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"lpath"
)

// Request coalescing for /v1/query: while an evaluation is executing,
// requests that arrive for the same corpus generation gather for a short
// window and then evaluate together through Corpus.RunBatch — one batch
// pass whose cross-query memo (rows, frontiers, satisfier sets)
// amortizes the scans the queries share, with identical concurrent queries
// deduplicated into a single slot. A request that arrives while the
// coalescer is idle bypasses the window entirely and evaluates immediately,
// so coalescing adds zero latency at concurrency one; the window only ever
// delays requests that would otherwise have queued behind a busy engine.

// defaultBatchWindow is the gather window used when the config leaves
// BatchWindow zero.
const defaultBatchWindow = time.Millisecond

// batchSizeBuckets are the upper bounds of the batch-size histogram
// (lpathd_batch_size); the +Inf bucket is implicit.
var batchSizeBuckets = [...]int{1, 2, 4, 8, 16, 32, 64}

// coalesceKey scopes a gather group: only requests against the same corpus
// generation may share one batch evaluation.
type coalesceKey struct {
	corpus string
	gen    uint64
}

// batchCall is one request's seat in a gather group.
type batchCall struct {
	query string
	limit int // effective request limit (the +1 probe is added at exec)
	done  chan struct{}
	qr    *queryResult
	err   error
}

// batchGroup is one gathering batch: calls accumulate until the window
// timer flushes them as a single batch evaluation.
type batchGroup struct {
	entry *Entry
	calls []*batchCall
}

// batchExec evaluates one deduplicated batch; texts and limits are parallel,
// results and errors positional. It is a field so tests can interpose.
type batchExec func(ctx context.Context, entry *Entry, texts []string, limits []int) ([]*queryResult, []error)

// soloExec evaluates one query alone; the default keeps the streaming
// limit-pushdown path a batch of one would lose (a batch evaluates fully and
// truncates so its memo stays valid for batch mates — pointless solo).
type soloExec func(ctx context.Context, entry *Entry, query string, limit int) (*queryResult, error)

// coalescer implements the gather/flush protocol and owns its counters.
type coalescer struct {
	window  time.Duration
	timeout time.Duration // detached deadline for flushed batch evaluations
	exec    batchExec
	one     soloExec

	mu        sync.Mutex
	executing int
	pending   map[coalesceKey]*batchGroup

	// Batch-size histogram (per flushed or bypassed evaluation), dedup count
	// (requests answered by another identical in-batch query), and total
	// requests that went through a multi-request batch.
	sizeCounts [len(batchSizeBuckets) + 1]uint64
	sizeSum    uint64
	sizeTotal  uint64
	dedup      uint64
	coalesced  uint64
}

func newCoalescer(window, timeout time.Duration) *coalescer {
	c := &coalescer{
		window:  window,
		timeout: timeout,
		pending: make(map[coalesceKey]*batchGroup),
	}
	c.exec = selectBatch
	c.one = selectOne
	return c
}

// selectOne is the single-query evaluation, coalesced or not: the streaming
// limit+1 probe.
func selectOne(ctx context.Context, entry *Entry, query string, limit int) (*queryResult, error) {
	res, err := entry.Corpus.Run(ctx, lpath.Request{Text: query, Limit: limit + 1})
	if err != nil {
		return nil, err
	}
	return foldResult(res, limit), nil
}

// selectBatch is the real batch evaluation: one RunBatch pass with each
// slot's limit raised by one (the server's truncation probe, exactly as the
// single-query path evaluates), results folded into limit-agnostic
// queryResults the cache and every group member can serve from.
func selectBatch(ctx context.Context, entry *Entry, texts []string, limits []int) ([]*queryResult, []error) {
	reqs := make([]lpath.Request, len(texts))
	for i, text := range texts {
		reqs[i] = lpath.Request{Text: text, Limit: limits[i] + 1}
	}
	out := make([]*queryResult, len(texts))
	errs := make([]error, len(texts))
	for i, res := range entry.Corpus.RunBatch(ctx, reqs) {
		if errs[i] = res.Err; res.Err == nil {
			out[i] = foldResult(res, limits[i])
		}
	}
	return out, errs
}

// foldResult builds the cacheable queryResult from a limit+1 evaluation: a
// stream that ran dry within the limit is the complete result, total known.
func foldResult(res lpath.Result, limit int) *queryResult {
	ms := res.Matches
	qr := &queryResult{matches: make([]matchJSON, len(ms)), strategies: res.Strategies}
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

// do evaluates one /v1/query request through the coalescer. The fast path —
// nothing executing, nothing pending for this generation — evaluates
// immediately under the caller's context. Otherwise the request joins (or
// opens) its generation's gather group and waits for the flush; flushed
// batches run under a detached deadline so one client's disconnect cannot
// fail its batch mates.
func (c *coalescer) do(ctx context.Context, entry *Entry, query string, limit int) (*queryResult, error) {
	key := coalesceKey{corpus: entry.Name, gen: entry.Gen}
	c.mu.Lock()
	if c.executing == 0 && c.pending[key] == nil {
		c.executing++
		c.mu.Unlock()
		qr, err := c.one(ctx, entry, query, limit)
		c.mu.Lock()
		c.executing--
		c.observeBatch(1)
		c.mu.Unlock()
		return qr, err
	}
	g := c.pending[key]
	if g == nil {
		g = &batchGroup{entry: entry}
		c.pending[key] = g
		time.AfterFunc(c.window, func() { c.flush(key, g) })
	}
	call := &batchCall{query: query, limit: limit, done: make(chan struct{})}
	g.calls = append(g.calls, call)
	c.mu.Unlock()

	select {
	case <-call.done:
		return call.qr, call.err
	case <-ctx.Done():
		// The flush still answers the call's batch mates; this caller alone
		// gives up.
		return nil, ctx.Err()
	}
}

// flush runs one gathered group as a single deduplicated batch and wakes
// every waiting call with its slot's outcome.
func (c *coalescer) flush(key coalesceKey, g *batchGroup) {
	c.mu.Lock()
	delete(c.pending, key)
	c.executing++
	c.mu.Unlock()

	// Dedup identical query texts into one slot evaluated with the largest
	// limit any requester asked for; the limit-agnostic queryResult then
	// serves every requester's own limit.
	slot := make(map[string]int)
	var texts []string
	var limits []int
	for _, call := range g.calls {
		if i, ok := slot[call.query]; ok {
			if call.limit > limits[i] {
				limits[i] = call.limit
			}
			continue
		}
		slot[call.query] = len(texts)
		texts = append(texts, call.query)
		limits = append(limits, call.limit)
	}

	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if c.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	var qrs []*queryResult
	var errs []error
	if len(texts) == 1 {
		// A group that deduplicated to one query keeps the streaming path.
		qr, err := c.one(ctx, g.entry, texts[0], limits[0])
		qrs, errs = []*queryResult{qr}, []error{err}
	} else {
		qrs, errs = c.exec(ctx, g.entry, texts, limits)
	}
	cancel()

	c.mu.Lock()
	c.executing--
	c.observeBatch(len(texts))
	c.dedup += uint64(len(g.calls) - len(texts))
	if len(g.calls) > 1 {
		c.coalesced += uint64(len(g.calls))
	}
	c.mu.Unlock()

	for _, call := range g.calls {
		i := slot[call.query]
		call.qr, call.err = qrs[i], errs[i]
		close(call.done)
	}
}

// observeBatch records one evaluated batch's size. Callers hold c.mu.
func (c *coalescer) observeBatch(size int) {
	i := sort.SearchInts(batchSizeBuckets[:], size)
	c.sizeCounts[i]++
	c.sizeSum += uint64(size)
	c.sizeTotal++
}

// CoalesceStats is a snapshot of the coalescer's counters.
type CoalesceStats struct {
	// SizeCounts are per-bucket (non-cumulative) batch-size observations,
	// aligned with batchSizeBuckets plus a final +Inf slot.
	SizeCounts [len(batchSizeBuckets) + 1]uint64
	SizeSum    uint64
	SizeTotal  uint64
	Dedup      uint64
	Coalesced  uint64
}

// Stats snapshots the counters.
func (c *coalescer) Stats() CoalesceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CoalesceStats{
		SizeCounts: c.sizeCounts,
		SizeSum:    c.sizeSum,
		SizeTotal:  c.sizeTotal,
		Dedup:      c.dedup,
		Coalesced:  c.coalesced,
	}
}
