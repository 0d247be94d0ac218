package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lpath"
	"lpath/internal/tree"
)

const (
	corpusProfile = "wsj"
	corpusSeed    = 42
	fullScale     = 1.0  // the paper's corpus size
	smokeScale    = 0.01 // -smoke and the self-tests
)

// corpusMeta is what the one-off build records next to the snapshot, so that
// later runs in the same checkout can report it without rebuilding.
type corpusMeta struct {
	Scale     float64  `json:"scale"`
	Seed      int64    `json:"corpus_seed"`
	GenerateS float64  `json:"generate_s"`
	BuildS    float64  `json:"build_s"`
	TopTags   []string `json:"top_tags"` // most frequent first, query-safe only
}

// ensureCorpus generates the WSJ-profile corpus at the given scale with the
// fixed corpus seed, builds its store and saves it as an .lpx snapshot under
// dir (which exists) — once per checkout: a later call finds the snapshot and its metadata
// and returns them. The snapshot is written before the metadata and both by
// rename, so a metadata file implies a complete snapshot.
func ensureCorpus(dir string, scale float64) (snapshotPath string, meta *corpusMeta, err error) {
	snapshotPath = filepath.Join(dir, fmt.Sprintf("%s-%g-seed%d.lpx", corpusProfile, scale, corpusSeed))
	metaPath := snapshotPath + ".json"
	if data, err := os.ReadFile(metaPath); err == nil {
		meta = new(corpusMeta)
		if err := json.Unmarshal(data, meta); err == nil {
			return snapshotPath, meta, nil
		}
	}
	start := time.Now()
	c, err := lpath.GenerateCorpus(corpusProfile, scale, corpusSeed)
	if err != nil {
		return "", nil, err
	}
	meta = &corpusMeta{Scale: scale, Seed: corpusSeed, GenerateS: time.Since(start).Seconds()}
	start = time.Now()
	if err := c.Build(); err != nil {
		return "", nil, err
	}
	meta.BuildS = time.Since(start).Seconds()
	if err := c.SaveStoreFile(snapshotPath); err != nil {
		return "", nil, err
	}
	var ranked []string
	for _, tf := range (&tree.Corpus{Trees: c.Trees()}).TopTags(8 * distinctTags) {
		ranked = append(ranked, tf.Tag)
	}
	meta.TopTags = queryTags(ranked, distinctTags)
	if len(meta.TopTags) < 2 {
		return "", nil, fmt.Errorf("corpus at scale %g has %d query-safe tags; need at least 2", scale, len(meta.TopTags))
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return "", nil, err
	}
	tmp := metaPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", nil, err
	}
	return snapshotPath, meta, os.Rename(tmp, metaPath)
}
