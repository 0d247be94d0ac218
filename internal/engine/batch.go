package engine

// BatchStats is what lpath.Corpus.SelectBatchStats reports. The engine keeps
// no cross-query memo, so every counter is zero. The type and Add remain
// only because the frozen benchmark harness (benchmark/trace.go), their sole
// reader, still compiles against them.
type BatchStats struct {
	RowsHits, RowsMisses         int
	FrontierHits, FrontierMisses int
	SatHits, SatMisses           int
}

// Add accumulates another report's counters into s.
func (s *BatchStats) Add(o BatchStats) {
	s.RowsHits += o.RowsHits
	s.RowsMisses += o.RowsMisses
	s.FrontierHits += o.FrontierHits
	s.FrontierMisses += o.FrontierMisses
	s.SatHits += o.SatHits
	s.SatMisses += o.SatMisses
}
