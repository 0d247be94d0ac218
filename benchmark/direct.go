package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lpath"
)

// scanWorkload is the paper's Figure 7 at its own scale: one caller, the 23
// paper queries with precompiled *Query, full materialisation, no limit, no
// cache. One op is Count(q) followed by Select(q), which must agree. (One op
// per query rather than per call keeps the number of op kinds odd, so the
// median latency is the middle of one query's distribution and not the gap
// between two.)
type scanWorkload struct {
	cfg      *config
	snapshot string
	meta     *corpusMeta
	texts    []string
	order    []int32 // query indexes, whole shuffled rounds

	corpus  *lpath.Corpus
	queries []*lpath.Query
	counts  []int // per query: the count it returned, -1 before the first op
	timed   []int // per query: ops in the timed phase
}

func newScan(cfg *config, snapshot string, meta *corpusMeta) *scanWorkload {
	w := &scanWorkload{cfg: cfg, snapshot: snapshot, meta: meta}
	for _, q := range lpath.EvalQueries() {
		w.texts = append(w.texts, q.Text)
	}
	w.order = shuffledRounds(cfg.Seed, len(w.texts), scanRounds)
	return w
}

// setup maps the snapshot, compiles the queries and runs one round, which
// pays for the lazily built bitmap and parent columns.
func (w *scanWorkload) setup() error {
	c, err := lpath.OpenStore(w.snapshot)
	if err != nil {
		return err
	}
	w.corpus = c
	w.queries = w.queries[:0]
	for _, text := range w.texts {
		q, err := lpath.Compile(text)
		if err != nil {
			return err
		}
		w.queries = append(w.queries, q)
	}
	w.counts, w.timed = make([]int, len(w.texts)), make([]int, len(w.texts))
	for i := range w.counts {
		w.counts[i] = -1
	}
	for i := range w.queries {
		if _, err := w.op(i); err != nil {
			return err
		}
	}
	return nil
}

func (w *scanWorkload) teardown() {
	if w.corpus != nil {
		w.corpus.Close()
		w.corpus = nil
	}
	release()
}

// op counts and selects query i. It reports false when the two disagree or
// the count differs from an earlier op's.
func (w *scanWorkload) op(i int) (bool, error) {
	n, err := w.corpus.Count(w.queries[i])
	if err != nil {
		return false, err
	}
	ms, err := w.corpus.Select(w.queries[i])
	if err != nil {
		return false, err
	}
	if w.counts[i] < 0 {
		w.counts[i] = n
	}
	return n == len(ms) && n == w.counts[i], nil
}

// run executes whole rounds until d has passed, so that every run times the
// same mix of queries.
func (w *scanWorkload) run(d time.Duration) (*samples, error) {
	s := &samples{}
	start := time.Now()
	for at := 0; time.Since(start) < d; at += len(w.texts) {
		round := time.Now()
		for j := 0; j < len(w.texts); j++ {
			i := int(w.order[(at+j)%len(w.order)])
			t0 := time.Now()
			ok, err := w.op(i)
			s.lat = append(s.lat, time.Since(t0))
			if err != nil || !ok {
				s.failed++
			} else {
				w.timed[i]++
			}
		}
		s.roundRates = append(s.roundRates, float64(len(w.texts))/time.Since(round).Seconds())
	}
	s.wall = time.Since(start)
	return s, nil
}

// verify compares the count each query returned with the oracle's; a wrong
// one fails every op of that query.
func (w *scanWorkload) verify(o *oracle) (int, error) {
	failed := 0
	for i, text := range w.texts {
		want, err := o.count(text)
		if err != nil {
			return 0, fmt.Errorf("oracle on %s: %w", text, err)
		}
		if w.counts[i] != want {
			failed += w.timed[i]
		}
	}
	return failed, nil
}

// ingestWorkload is the write side of the store the other three only read:
// each op takes a different Penn-bracketed chunk through LoadCorpus, Build,
// SaveStoreFile, OpenStore, a count on both, and Close.
type ingestWorkload struct {
	cfg    *config
	order  []int32  // chunk indexes
	chunks [][]byte // Penn text, generated in set-up
	dir    string
}

// ingestProbe is the query an op evaluates on the built and on the reopened
// corpus (paper query Q3).
const ingestProbe = `//VP/VB-->NN`

func newIngest(cfg *config) *ingestWorkload {
	return &ingestWorkload{
		cfg:   cfg,
		order: shuffledRounds(cfg.Seed, ingestChunks, 4),
		dir:   filepath.Join(cfg.OutDir, fmt.Sprintf("ingest-%d", os.Getpid())),
	}
}

func (w *ingestWorkload) chunkScale() float64 {
	if w.cfg.Smoke {
		return smokeScale
	}
	return ingestChunkScale
}

// setup generates the chunk texts: corpus seeds 1000.., one chunk each.
func (w *ingestWorkload) setup() error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.chunks = make([][]byte, ingestChunks)
	for i := range w.chunks {
		c, err := lpath.GenerateCorpus(corpusProfile, w.chunkScale(), int64(ingestSeedBase+i))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			return err
		}
		w.chunks[i] = buf.Bytes()
	}
	return nil
}

func (w *ingestWorkload) teardown() {
	w.chunks = nil
	os.RemoveAll(w.dir)
	release()
}

// op ingests chunk i and reports whether the built and the reopened corpus
// count the same, non-zero number of matches.
func (w *ingestWorkload) op(i int) (bool, error) {
	c, err := lpath.LoadCorpus(bytes.NewReader(w.chunks[i]))
	if err != nil {
		return false, err
	}
	if err := c.Build(); err != nil {
		return false, err
	}
	path := filepath.Join(w.dir, "chunk.lpx")
	if err := c.SaveStoreFile(path); err != nil {
		return false, err
	}
	re, err := lpath.OpenStore(path)
	if err != nil {
		return false, err
	}
	defer re.Close()
	built, err := c.CountText(ingestProbe)
	if err != nil {
		return false, err
	}
	reopened, err := re.CountText(ingestProbe)
	if err != nil {
		return false, err
	}
	return built > 0 && built == reopened, nil
}

func (w *ingestWorkload) run(d time.Duration) (*samples, error) {
	s := &samples{}
	start := time.Now()
	for at := 0; time.Since(start) < d; at++ {
		t0 := time.Now()
		ok, err := w.op(int(w.order[at%len(w.order)]))
		s.lat = append(s.lat, time.Since(t0))
		if err != nil || !ok {
			s.failed++
		}
	}
	s.wall = time.Since(start)
	return s, nil
}

// verify has nothing left to do: every op compared its own two counts.
func (w *ingestWorkload) verify(*oracle) (int, error) { return 0, nil }
