package corpus

import (
	"io"
	"iter"
	"slices"

	"lpath/internal/tree"
)

// Stats summarizes a corpus with the measurements of Figure 6(a).
type Stats struct {
	Sentences  int
	Words      int
	TreeNodes  int // element nodes, the paper's "Tree Nodes"
	UniqueTags int
	MaxDepth   int
	FileSize   int64 // bytes of the bracketed ASCII representation
}

// Measure computes corpus statistics.
func Measure(c *tree.Corpus) Stats { return MeasureTrees(slices.Values(c.Trees)) }

// MeasureTrees is Measure over a stream of trees: each is visited and
// serialized once and not referenced afterwards, so a source that builds its
// trees on the fly (a snapshot-backed store) never holds more than one.
func MeasureTrees(trees iter.Seq[*tree.Tree]) Stats {
	var st Stats
	var cw countingWriter
	tags := make(map[string]struct{})
	for t := range trees {
		st.Sentences++
		st.MaxDepth = max(st.MaxDepth, t.MaxDepth())
		for _, n := range t.Nodes() {
			st.TreeNodes++
			if n.Word != "" {
				st.Words++
			}
			tags[n.Tag] = struct{}{}
		}
		_ = tree.Write(&cw, t) // a countingWriter cannot fail
	}
	st.UniqueTags = len(tags)
	st.FileSize = cw.n
	return st
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)
