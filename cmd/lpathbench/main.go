// Command lpathbench regenerates the tables and figures of the paper's
// evaluation (Section 5) over synthetic WSJ/SWB corpora.
//
// Usage:
//
//	lpathbench -fig all -scale 0.05
//	lpathbench -fig 7 -scale 0.1 -csv out/
//
// Figures: 6a (dataset characteristics), 6b (tag frequencies), 6c (query
// result sizes), 7 (WSJ query times), 8 (SWB query times), 9 (scalability),
// 10 (labeling-scheme comparison), ablations (the design choices of
// DESIGN.md §5), or all.
//
// -scale sets the fraction of the paper's corpus size (1.0 ≈ 49k WSJ
// sentences, 1.41M element nodes — the paper's 3.5M most likely counts
// relation rows; the default 0.05 keeps a full run under a couple of
// minutes) and must be positive. With -csv DIR each timing figure is also
// written as CSV.
// -cpuprofile/-memprofile write pprof profiles covering the selected
// experiments (the memory profile is taken at exit).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"lpath/internal/bench"
	"lpath/internal/corpus"
	"lpath/internal/tree"
)

// figures are the valid -fig values.
var figures = []string{"6a", "6b", "6c", "7", "8", "9", "10", "ablations", "all"}

// parseFigs splits a comma-separated -fig value into the set of experiments
// to run, rejecting names that would otherwise silently select nothing.
func parseFigs(arg string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(arg, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figures, f) {
			return nil, fmt.Errorf("unknown -fig value %q; valid: %s", f, strings.Join(figures, " "))
		}
		want[f] = true
	}
	return want, nil
}

func main() {
	var (
		fig        = flag.String("fig", "all", "experiment: "+strings.Join(figures, " "))
		scale      = flag.Float64("scale", 0.05, "corpus scale (1.0 = paper size)")
		seed       = flag.Int64("seed", 42, "corpus seed")
		csvDir     = flag.String("csv", "", "directory for CSV output (optional)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	want, err := parseFigs(*fig)
	if err == nil && *scale <= 0 {
		err = fmt.Errorf("-scale must be positive, got %g", *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpathbench:", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	all := want["all"]
	need := func(name string) bool { return all || want[name] }

	fmt.Printf("lpathbench: scale=%.3f seed=%d (paper scale = 1.0)\n\n", *scale, *seed)

	var wsjTrees, swbTrees *tree.Corpus
	loadWSJ := func() *tree.Corpus {
		if wsjTrees == nil {
			wsjTrees = timed("generate WSJ", func() *tree.Corpus {
				return bench.GenerateTrees(corpus.WSJ, *scale, *seed)
			})
		}
		return wsjTrees
	}
	loadSWB := func() *tree.Corpus {
		if swbTrees == nil {
			swbTrees = timed("generate SWB", func() *tree.Corpus {
				return bench.GenerateTrees(corpus.SWB, *scale, *seed)
			})
		}
		return swbTrees
	}
	var wsjSys, swbSys *bench.Systems
	buildWSJ := func() *bench.Systems {
		if wsjSys == nil {
			wsjSys = timed("build WSJ systems", func() *bench.Systems {
				s, err := bench.BuildSystems(loadWSJ())
				check(err)
				return s
			})
		}
		return wsjSys
	}
	buildSWB := func() *bench.Systems {
		if swbSys == nil {
			swbSys = timed("build SWB systems", func() *bench.Systems {
				s, err := bench.BuildSystems(loadSWB())
				check(err)
				return s
			})
		}
		return swbSys
	}

	if need("6a") {
		bench.WriteFig6a(os.Stdout, bench.Fig6a(loadWSJ(), loadSWB()))
		fmt.Println()
	}
	if need("6b") {
		wt, st := bench.Fig6b(loadWSJ(), loadSWB(), 10)
		bench.WriteFig6b(os.Stdout, wt, st)
		fmt.Println()
	}
	if need("6c") {
		rows, err := bench.Fig6c(buildWSJ(), buildSWB())
		check(err)
		bench.WriteFig6c(os.Stdout, rows)
		fmt.Println()
	}
	if need("7") {
		rows, err := bench.Fig7or8(buildWSJ())
		check(err)
		bench.WriteFig7or8(os.Stdout, "Figure 7 (WSJ)", rows)
		writeCSV(*csvDir, "fig7_wsj.csv", bench.CSVFig7or8(rows))
		fmt.Println()
	}
	if need("8") {
		rows, err := bench.Fig7or8(buildSWB())
		check(err)
		bench.WriteFig7or8(os.Stdout, "Figure 8 (SWB)", rows)
		writeCSV(*csvDir, "fig8_swb.csv", bench.CSVFig7or8(rows))
		fmt.Println()
	}
	if need("9") {
		curves, err := bench.Fig9(loadWSJ(), []float64{0.5, 1, 2, 3, 4})
		check(err)
		bench.WriteFig9(os.Stdout, curves)
		writeCSV(*csvDir, "fig9_scalability.csv", bench.CSVFig9(curves))
		fmt.Println()
	}
	if need("10") {
		rows, err := bench.Fig10(buildWSJ())
		check(err)
		bench.WriteFig10(os.Stdout, rows)
		writeCSV(*csvDir, "fig10_labeling.csv", bench.CSVFig10(rows))
		fmt.Println()
	}
	if need("ablations") {
		rows, err := bench.Ablations(buildWSJ())
		check(err)
		bench.WriteAblations(os.Stdout, rows)
		fmt.Println()
	}
}

func timed[T any](what string, f func() T) T {
	start := time.Now()
	v := f()
	fmt.Fprintf(os.Stderr, "[%s: %v]\n", what, time.Since(start).Round(time.Millisecond))
	return v
}

// writeCSV writes content under dir, creating dir as needed; a missing -csv
// flag (empty string) disables the output.
func writeCSV(dir, name, content string) {
	if dir == "" {
		return
	}
	check(os.MkdirAll(dir, 0o755))
	check(os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpathbench:", err)
		os.Exit(1)
	}
}
