package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles prints one row per workload and end-to-end metric: both
// medians, new over base, the bound, and a verdict — ok, worse (the new
// median is worse than the base's by more than the bound) or unresolved
// (either set's own runs spread wider than the bound, so the medians cannot
// settle it).
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cur, err := readRecords(newPath)
	if err != nil {
		return err
	}
	if err := sameHost(base, cur); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tnew median\tnew/base\tbound\truns\tverdict")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := values(base, name, d.Name), values(cur, name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%.2f\t%d+%d\t%s\n",
				name, d.Name, median(a), d.Unit, median(b), d.Unit, median(b)/median(a), d.Bound, len(a), len(b), verdict(d, a, b))
		}
	}
	return tw.Flush()
}

func verdict(d metricDef, base, cur []float64) string {
	if spread(base) > d.Bound || spread(cur) > d.Bound {
		return "unresolved"
	}
	change := median(cur)/median(base) - 1
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}

// spread is the distance between the quartiles as a share of the median; a
// single run has none.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced records", path)
	}
	return out, nil
}

// sameHost refuses records that were not measured alike: another host shape,
// Go version, client count, corpus or run length makes medians incomparable.
func sameHost(sets ...[]record) error {
	type host struct {
		Go                         string
		NProc, GOMAXPROCS, Clients int
		Scale                      float64
		CorpusSeed                 int64
		Seconds                    float64
	}
	var first *host
	for _, set := range sets {
		for _, r := range set {
			h := host{r.Go, r.NProc, r.GOMAXPROCS, r.Clients, r.Scale, r.CorpusSeed, r.Seconds}
			if first == nil {
				first = &h
			} else if h != *first {
				return fmt.Errorf("records were measured differently, refusing to compare: %+v vs %+v", *first, h)
			}
		}
	}
	return nil
}

func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}
