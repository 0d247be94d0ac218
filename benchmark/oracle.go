package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"lpath/internal/engine"
	ast "lpath/internal/lpath"
	"lpath/internal/relstore/snapshot"
)

// The counts of the 23 paper queries, and of serve_hot's 41 generated texts,
// on the scale-1.0, seed-42 WSJ corpus. The generator is the repository's
// fixed point, so these never change; a run whose answers disagree has a
// wrong engine, not a stale file.
//
//go:embed testdata/paper_counts_scale1_seed42.json
var paperCountsJSON []byte

// distinctSampleEvery is the share of serve_distinct's distinct texts whose
// answers are checked against the unplanned reference (1 in 128, chosen by a
// hash of the text and the seed, so that other seeds check other texts). An
// unplanned full Select of a template query takes
// ~0.1 s on the full corpus, so checking all ~3 000 texts of a run would
// take twenty times longer than the run; every other answer still gets the
// structural checks and must repeat byte for byte.
const distinctSampleEvery = 128

func sampled(text string, seed int64, every int) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d %s", seed, text)
	return h.Sum32()%uint32(every) == 0
}

// oracle answers "what should this query return" independently of the path
// under test: from the committed counts where they apply, otherwise from an
// engine built WithoutPlanner on its own mapping of the snapshot, whose
// evaluation shares no strategy choice, plan cache or result cache with the
// one being measured.
type oracle struct {
	snapshot string
	golden   map[string]int // nil unless the corpus is the full-scale one
	wrong    map[string]int

	// Opened on first use, after the workload under test has been torn down.
	file      *snapshot.File
	planned   *engine.Engine
	unplanned *engine.Engine
}

func newOracle(snapshot string, cfg *config) (*oracle, error) {
	o := &oracle{snapshot: snapshot, wrong: cfg.wrongCount}
	if cfg.scale() == fullScale {
		var file struct {
			Counts map[string]int `json:"counts"`
		}
		if err := json.Unmarshal(paperCountsJSON, &file); err != nil {
			return nil, fmt.Errorf("testdata/paper_counts_scale1_seed42.json: %w", err)
		}
		o.golden = file.Counts
	}
	return o, nil
}

func (o *oracle) open() error {
	if o.file != nil {
		return nil
	}
	f, err := snapshot.Open(o.snapshot)
	if err != nil {
		return fmt.Errorf("opening the reference store: %w", err)
	}
	if o.planned, err = engine.New(f.Store()); err == nil {
		o.unplanned, err = engine.New(f.Store(), engine.WithoutPlanner())
	}
	if err != nil {
		f.Close()
		return err
	}
	o.file = f
	return nil
}

func (o *oracle) close() {
	if o.file != nil {
		o.file.Close()
		o.file = nil
	}
}

// count is the expected number of matches of text.
func (o *oracle) count(text string) (int, error) {
	if n, ok := o.wrong[text]; ok {
		return n, nil
	}
	if n, ok := o.golden[text]; ok {
		return n, nil
	}
	if err := o.open(); err != nil {
		return 0, err
	}
	p, err := ast.Parse(text)
	if err != nil {
		return 0, err
	}
	return o.unplanned.Count(p)
}

// answer is the expected count of text and the first limit matches as the
// server renders them. A text the committed counts cover takes its match
// list from the planned engine's full evaluation — the count pins it, and
// the unplanned engine needs seconds for some paper queries at full scale;
// every other text is evaluated in full by the unplanned engine.
func (o *oracle) answer(text string, limit int) (int, []wireMatch, error) {
	if err := o.open(); err != nil {
		return 0, nil, err
	}
	p, err := ast.Parse(text)
	if err != nil {
		return 0, nil, err
	}
	eng := o.unplanned
	_, pinned := o.golden[text]
	if pinned {
		eng = o.planned
	}
	ms, err := eng.Eval(p)
	if err != nil {
		return 0, nil, err
	}
	n := len(ms)
	if _, planted := o.wrong[text]; pinned || planted {
		if n, err = o.count(text); err != nil {
			return 0, nil, err
		}
	}
	if len(ms) > limit {
		ms = ms[:limit]
	}
	first := make([]wireMatch, len(ms))
	for i, m := range ms {
		first[i] = wireMatch{Tree: m.TreeID, Tag: m.Node.Tag, Text: strings.Join(m.Node.Words(), " ")}
	}
	return n, first, nil
}
