// Command lpath runs LPath queries over a treebank corpus.
//
// Usage:
//
//	lpath -corpus trees.mrg '//VP{/VB-->NN}'
//	lpath -gen wsj -scale 0.01 -count '//NP[not(//JJ)]' '//VB->NP'
//	lpath -gen wsj -save-index wsj.lpx '//NP'
//	lpath -load-index wsj.lpx '//NP'
//	lpath -sql '//VB->NP'
//
// The corpus is a Penn-bracketed file (-corpus), a generated synthetic
// corpus (-gen wsj|swb with -scale and -seed), or a prebuilt binary store
// snapshot (-index / -load-index) previously written with -save-index, which
// memory-maps the labeled relation instead of re-parsing. With -sql the tool
// prints the relational translation instead of evaluating. With -count only
// result sizes are printed (via the count-only pipeline); otherwise each
// match is shown as its tree ID, tag and covered words, and -limit is pushed
// into the engine — evaluation stops one match past the limit instead of
// computing the full result set. -oracle cross-checks the engine
// against the reference evaluator and reports any disagreement. -explain
// prints each query's cost-based plan (chosen access paths, predicate order,
// semijoins) with estimated vs actual cardinalities instead of the matches.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"lpath"
)

func main() {
	var (
		corpusFile = flag.String("corpus", "", "Penn-bracketed corpus file")
		gen        = flag.String("gen", "", "generate a synthetic corpus: wsj or swb")
		index      = flag.String("index", "", "load a prebuilt store snapshot (see -save-index)")
		loadIndex  = flag.String("load-index", "", "alias for -index")
		saveIndex  = flag.String("save-index", "", "write the built store snapshot (.lpx) to this file")
		scale      = flag.Float64("scale", 0.01, "synthetic corpus scale (1.0 = paper size)")
		seed       = flag.Int64("seed", 42, "synthetic corpus seed")
		sqlOnly    = flag.Bool("sql", false, "print the SQL translation and exit")
		countOnly  = flag.Bool("count", false, "print result sizes only")
		explain    = flag.Bool("explain", false, "print the cost-based plan with estimated vs actual cardinalities")
		limit      = flag.Int("limit", 10, "maximum matches to print per query")
		oracle     = flag.Bool("oracle", false, "cross-check against the reference evaluator")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: lpath [flags] QUERY...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	queries := make([]*lpath.Query, 0, flag.NArg())
	for _, text := range flag.Args() {
		q, err := lpath.Compile(text)
		if err != nil {
			fatal(err)
		}
		queries = append(queries, q)
	}

	if *sqlOnly {
		for _, q := range queries {
			sql, err := q.SQL()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("-- %s\n%s;\n\n", q, sql)
		}
		return
	}

	if *index == "" {
		*index = *loadIndex
	} else if *loadIndex != "" && *loadIndex != *index {
		fatal(fmt.Errorf("lpath: -index and -load-index disagree"))
	}
	c, err := loadCorpus(*corpusFile, *gen, *index, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	if *saveIndex != "" {
		if err := c.SaveStoreFile(*saveIndex); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote store snapshot to %s\n", *saveIndex)
	}
	trees, nodes, words, err := c.Counts()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("corpus: %d trees, %d nodes, %d words\n\n", trees, nodes, words)

	run := func(req lpath.Request) lpath.Result {
		res, err := c.Run(context.Background(), req)
		if err != nil {
			fatal(err)
		}
		return res
	}
	for _, q := range queries {
		switch {
		case *explain:
			fmt.Println(run(lpath.Request{Query: q, Mode: lpath.ModeExplain}).Explain)
			continue
		case *oracle:
			// The oracle cross-check compares complete result sets, so this
			// path keeps the full evaluation; -limit only caps the display.
			ms := run(lpath.Request{Query: q}).Matches
			fmt.Printf("%s: %d matches\n", q, len(ms))
			if !*countOnly {
				for i, m := range ms {
					if i >= *limit {
						fmt.Printf("  ... and %d more\n", len(ms)-*limit)
						break
					}
					printMatch(m)
				}
			}
			slow, err := c.SelectOracle(q)
			if err != nil {
				fatal(err)
			}
			if len(slow) != len(ms) {
				fmt.Printf("  ORACLE DISAGREES: engine %d, oracle %d\n", len(ms), len(slow))
			} else {
				fmt.Printf("  oracle agrees (%d matches)\n", len(slow))
			}
		case *countOnly:
			fmt.Printf("%s: %d matches\n", q, run(lpath.Request{Query: q, Mode: lpath.ModeCount}).Count)
		default:
			// -limit is pushed into the engine: evaluation streams matches
			// and stops one past the limit, so the total is only known when
			// the stream runs dry before the cap.
			k := max(*limit, 0)
			ms := run(lpath.Request{Query: q, Limit: k + 1}).Matches
			if len(ms) > k {
				fmt.Printf("%s: %d+ matches (stopped at -limit %d; -count gives the total)\n", q, k, k)
				ms = ms[:k]
			} else {
				fmt.Printf("%s: %d matches\n", q, len(ms))
			}
			for _, m := range ms {
				printMatch(m)
			}
		}
		fmt.Println()
	}
}

func printMatch(m lpath.Match) {
	fmt.Printf("  tree %d: %s[%s]\n", m.TreeID, m.Node.Tag,
		strings.Join(m.Node.Words(), " "))
}

func loadCorpus(file, gen, index string, scale float64, seed int64) (*lpath.Corpus, error) {
	sources := 0
	for _, s := range []string{file, gen, index} {
		if s != "" {
			sources++
		}
	}
	switch {
	case sources > 1:
		return nil, fmt.Errorf("lpath: -corpus, -gen and -index are mutually exclusive")
	case file != "":
		return lpath.OpenCorpus(file)
	case gen != "":
		return lpath.GenerateCorpus(gen, scale, seed)
	case index != "":
		return lpath.OpenStore(index)
	default:
		return nil, fmt.Errorf("lpath: provide -corpus FILE, -gen wsj|swb or -index FILE")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpath:", err)
	os.Exit(1)
}
