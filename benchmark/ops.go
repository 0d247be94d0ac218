package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"

	"lpath"
)

// The request sequences. -seed drives only the draws below; the texts, their
// popularity ranks and the corpus are fixed, so runs with different seeds
// sample the same distribution and the program under test sees nothing but
// the generated requests.

const (
	queryLimit = 100 // the server's default /v1/query limit, sent explicitly

	hotTexts     = 64      // serve_hot working set: 23 paper queries + 41 generated
	hotZipfS     = 1.1     // serve_hot popularity skew over the 64 texts
	hotCountPct  = 10      // serve_hot: share of /v1/count requests, percent
	hotOps       = 400_000 // longer than any host completes in a run; wraps if not
	hotTraceOps  = 400     // ops the traced run replays at each onion level
	distinctTags = 30      // serve_distinct: tags A and B are drawn from the top 30
	distinctZipf = 1.2
	// serve_distinct: 30 % /v1/count (full evaluation), 70 % /v1/query
	// (streaming limit path).
	distinctCountPct = 30
	distinctOps      = 30_000
	distinctWarmOps  = 200
	distinctTraceOps = 150
	batchWidth       = 16 // engine.batch16_*: window width over the distinct texts
	batchWindows     = 4

	scanRounds = 64 // pre-shuffled rounds; wraps if a run completes more

	ingestChunks     = 48
	ingestChunkScale = 0.05
	ingestSeedBase   = 1000
)

// distinctTemplates are the paper's axes, one template each: child,
// descendant, immediate-following, following, immediate-following-sibling,
// following-sibling, right-aligned child in scope, left-aligned descendant in
// scope, descendant filter, negated descendant filter.
var distinctTemplates = []string{
	"//%s/%s", "//%s//%s", "//%s->%s", "//%s-->%s", "//%s=>%s", "//%s==>%s",
	"//%s{/%s$}", "//%s{//^%s}", "//%s[//%s]", "//%s[not(//%s)]",
}

// request is one distinct HTTP request: a query text on one endpoint.
type request struct {
	Text  string
	Count bool // POST /v1/count; otherwise POST /v1/query with limit 100
	body  []byte
}

func (r *request) path() string {
	if r.Count {
		return "/v1/count"
	}
	return "/v1/query"
}

func newRequest(text string, count bool) request {
	type wire struct {
		Query string `json:"query"`
		Limit int    `json:"limit,omitempty"`
	}
	w := wire{Query: text}
	if !count {
		w.Limit = queryLimit
	}
	body, err := json.Marshal(w)
	if err != nil {
		panic(err) // a string and an int always marshal
	}
	return request{Text: text, Count: count, body: body}
}

// opSeq is a pre-generated closed-loop request sequence: Ops index into the
// distinct Reqs; Warm is sent once, serially, during set-up.
type opSeq struct {
	Reqs []request
	Warm []int32
	Ops  []int32
}

// log renders the sequence as the bytes a client puts on the wire, in order;
// the determinism test compares it across seeds.
func (s *opSeq) log() []byte {
	var b bytes.Buffer
	for _, part := range [][]int32{s.Warm, s.Ops} {
		for _, k := range part {
			r := &s.Reqs[k]
			fmt.Fprintf(&b, "POST %s %s\n", r.path(), r.body)
		}
	}
	return b.Bytes()
}

var plainTag = regexp.MustCompile(`^[A-Z][A-Z0-9-]*$`)

// queryTags filters a frequency-ranked tag list down to tags usable as bare
// LPath node tests (so no punctuation tags and no -NONE-), keeping rank order.
func queryTags(ranked []string, k int) []string {
	var out []string
	for _, tag := range ranked {
		if len(out) == k {
			break
		}
		if !plainTag.MatchString(tag) {
			continue
		}
		if _, err := lpath.Compile("//" + tag); err == nil {
			out = append(out, tag)
		}
	}
	return out
}

// checked panics on a generated text that does not compile: the templates and
// the tag filter are wrong, not the input.
func checked(text string) string {
	if _, err := lpath.Compile(text); err != nil {
		panic(fmt.Sprintf("benchmark: generated query %q does not compile: %v", text, err))
	}
	return text
}

// hotSet is serve_hot's fixed working set in popularity order: the 23 paper
// queries plus 41 template queries over the 12 most frequent tags, ranked by
// a fixed shuffle so that cheap and expensive texts are spread over the ranks.
func hotSet(tags []string) []string {
	fixed := rand.New(rand.NewSource(hotTexts))
	seen := make(map[string]bool)
	var texts []string
	for _, q := range lpath.EvalQueries() {
		seen[q.Text] = true
		texts = append(texts, q.Text)
	}
	top := tags
	if len(top) > 12 {
		top = top[:12]
	}
	for len(texts) < hotTexts {
		text := checked(fmt.Sprintf(distinctTemplates[fixed.Intn(len(distinctTemplates))],
			top[fixed.Intn(len(top))], top[fixed.Intn(len(top))]))
		if !seen[text] {
			seen[text] = true
			texts = append(texts, text)
		}
	}
	fixed.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	return texts
}

// serveHotOps draws n requests Zipf(1.1) over the 64 texts, 10 % counts. The
// warm-up touches every distinct request once, so the timed run is served
// from the result cache.
func serveHotOps(seed int64, tags []string, n int) *opSeq {
	rng := rand.New(rand.NewSource(seed))
	s := &opSeq{}
	for _, text := range hotSet(tags) {
		s.Reqs = append(s.Reqs, newRequest(text, false), newRequest(text, true))
	}
	for k := range s.Reqs {
		s.Warm = append(s.Warm, int32(k))
	}
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotTexts-1)
	s.Ops = make([]int32, n)
	for i := range s.Ops {
		k := int32(2 * zipf.Uint64())
		if rng.Intn(100) < hotCountPct {
			k++
		}
		s.Ops[i] = k
	}
	return s
}

// serveDistinctOps draws n requests: a uniform template, tags A and B
// Zipf(1.2) over the 30 most frequent, 30 % counts. About 9 000 texts are
// possible, far more than the result cache (256) or plan cache (128) hold.
// The warm requests are drawn the same way but always from seed 0, so that
// setup_s costs the same whatever the seed.
func serveDistinctOps(seed int64, tags []string, warm, n int) *opSeq {
	if len(tags) > distinctTags {
		tags = tags[:distinctTags]
	}
	s := &opSeq{}
	type key struct {
		text  string
		count bool
	}
	index := make(map[key]int32)
	draw := func(seed int64, n int) []int32 {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, distinctZipf, 1, uint64(len(tags)-1))
		ops := make([]int32, n)
		for i := range ops {
			tpl := distinctTemplates[rng.Intn(len(distinctTemplates))]
			a, b := tags[zipf.Uint64()], tags[zipf.Uint64()]
			k := key{fmt.Sprintf(tpl, a, b), rng.Intn(100) < distinctCountPct}
			id, ok := index[k]
			if !ok {
				id = int32(len(s.Reqs))
				index[k] = id
				s.Reqs = append(s.Reqs, newRequest(checked(k.text), k.count))
			}
			ops[i] = id
		}
		return ops
	}
	s.Warm = draw(0, warm)
	s.Ops = draw(seed, n)
	return s
}

// shuffledRounds returns rounds permutations of 0..n-1, concatenated: the
// order in which scan_full visits the paper queries and ingest its chunks.
func shuffledRounds(seed int64, n, rounds int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, 0, n*rounds)
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(n) {
			out = append(out, int32(i))
		}
	}
	return out
}
