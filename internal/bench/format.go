package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"lpath/internal/tree"
)

// secs renders a duration in seconds with paper-style precision.
func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// WriteFig6a renders the dataset characteristics table.
func WriteFig6a(w io.Writer, rows []DatasetStats) {
	fmt.Fprintf(w, "Figure 6(a): Test Data Sets\n")
	fmt.Fprintf(w, "%-14s", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s", r.Name)
	}
	fmt.Fprintln(w)
	line := func(label string, get func(DatasetStats) int64) {
		fmt.Fprintf(w, "%-14s", label)
		for _, r := range rows {
			fmt.Fprintf(w, "%12d", get(r))
		}
		fmt.Fprintln(w)
	}
	line("File Size", func(r DatasetStats) int64 { return r.Stats.FileSize })
	line("Sentences", func(r DatasetStats) int64 { return int64(r.Stats.Sentences) })
	line("Words", func(r DatasetStats) int64 { return int64(r.Stats.Words) })
	line("Tree Nodes", func(r DatasetStats) int64 { return int64(r.Stats.TreeNodes) })
	line("Unique Tags", func(r DatasetStats) int64 { return int64(r.Stats.UniqueTags) })
	line("Maximum Depth", func(r DatasetStats) int64 { return int64(r.Stats.MaxDepth) })
}

// WriteFig6b renders the top-10 tag frequency table.
func WriteFig6b(w io.Writer, wsjTags, swbTags []tree.TagFreq) {
	fmt.Fprintf(w, "Figure 6(b): Top 10 Frequent Tags\n")
	fmt.Fprintf(w, "%4s  %-14s%10s    %-14s%10s\n", "", "WSJ Tag", "Freq", "SWB Tag", "Freq")
	n := len(wsjTags)
	if len(swbTags) > n {
		n = len(swbTags)
	}
	for i := 0; i < n; i++ {
		var wt, st tree.TagFreq
		if i < len(wsjTags) {
			wt = wsjTags[i]
		}
		if i < len(swbTags) {
			st = swbTags[i]
		}
		fmt.Fprintf(w, "%4d  %-14s%10d    %-14s%10d\n", i+1, wt.Tag, wt.Count, st.Tag, st.Count)
	}
}

// WriteFig6c renders the result-size table.
func WriteFig6c(w io.Writer, rows []ResultSize) {
	fmt.Fprintf(w, "Figure 6(c): Test Query Sets (result sizes)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s %10s\n", "Q", "LPath Query", "WSJ", "SWB")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10d %10d\n", r.ID, r.Query, r.WSJ, r.SWB)
	}
}

// WriteFig7or8 renders a query-time table across the three systems.
func WriteFig7or8(w io.Writer, title string, rows []SystemTiming) {
	fmt.Fprintf(w, "%s: query execution time (s)\n", title)
	fmt.Fprintf(w, "%-4s %-44s %10s %10s %10s   %s\n",
		"Q", "Query", "LPath", "TGrep2", "CorpusSrch", "results (LP/TG/CS)")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s %10s %10s   %d/%d/%d\n",
			r.ID, r.Query, secs(r.LPath), secs(r.TGrep), secs(r.CS),
			r.NLPath, r.NTGrep, r.NCS)
	}
}

// WriteFig9 renders the scalability curves.
func WriteFig9(w io.Writer, curves map[int][]ScalePoint) {
	fmt.Fprintf(w, "Figure 9: query time as WSJ data size increases (s)\n")
	for _, id := range Fig9Queries {
		fmt.Fprintf(w, "  Q%d:\n", id)
		fmt.Fprintf(w, "  %8s %12s %10s %10s %10s\n", "factor", "nodes", "LPath", "TGrep2", "CorpusSrch")
		for _, pt := range curves[id] {
			fmt.Fprintf(w, "  %8.1f %12d %10s %10s %10s\n",
				pt.Factor, pt.Nodes, secs(pt.LPath), secs(pt.TGrep), secs(pt.CS))
		}
	}
}

// WriteFig10 renders the labeling-scheme comparison.
func WriteFig10(w io.Writer, rows []LabelTiming) {
	fmt.Fprintf(w, "Figure 10: LPath vs XPath labeling scheme (s)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s %10s %10s\n", "Q", "Query", "LPath", "XPath", "results")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s %10s %10d\n",
			r.ID, r.Query, secs(r.LPath), secs(r.XPath), r.NLPath)
	}
}

// WriteAblations renders the design-choice measurements.
func WriteAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "Ablations: design choices (s)\n")
	fmt.Fprintf(w, "%-18s %-56s %10s %10s\n", "choice", "query", "with", "without")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-56s %10s %10s\n", r.Name, r.Query, secs(r.Baseline), secs(r.Ablated))
	}
}

// CSVFig7or8 renders the timing rows as CSV.
func CSVFig7or8(rows []SystemTiming) string {
	var b strings.Builder
	b.WriteString("query,lpath_s,tgrep_s,corpussearch_s,n_lpath,n_tgrep,n_cs\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f,%f,%f,%d,%d,%d\n",
			r.ID, r.LPath.Seconds(), r.TGrep.Seconds(), r.CS.Seconds(),
			r.NLPath, r.NTGrep, r.NCS)
	}
	return b.String()
}

// CSVFig9 renders the scalability curves as CSV.
func CSVFig9(curves map[int][]ScalePoint) string {
	var b strings.Builder
	b.WriteString("query,factor,nodes,lpath_s,tgrep_s,corpussearch_s\n")
	for _, id := range Fig9Queries {
		for _, pt := range curves[id] {
			fmt.Fprintf(&b, "Q%d,%.2f,%d,%f,%f,%f\n",
				id, pt.Factor, pt.Nodes, pt.LPath.Seconds(), pt.TGrep.Seconds(), pt.CS.Seconds())
		}
	}
	return b.String()
}

// CSVFig10 renders the labeling comparison as CSV.
func CSVFig10(rows []LabelTiming) string {
	var b strings.Builder
	b.WriteString("query,lpath_s,xpath_s,results\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f,%f,%d\n", r.ID, r.LPath.Seconds(), r.XPath.Seconds(), r.NLPath)
	}
	return b.String()
}
