// Quickstart: the paper's running example (Figures 1 and 2).
//
// Builds the syntax tree of "I saw the old man with a dog today" and runs
// every example query from Figure 2, printing the matched constituents —
// the expected results are the ones given in the paper.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"lpath"
)

const figure1 = `
	(S
	  (NP I)
	  (VP
	    (V saw)
	    (NP
	      (NP (Det the) (Adj old) (N man))
	      (PP (Prep with)
	          (NP (Det a) (N dog)))))
	  (N today))`

func main() {
	c := lpath.NewCorpus()
	if err := c.AddSentence(figure1); err != nil {
		log.Fatal(err)
	}

	queries := []struct{ desc, text string }{
		{"Find a sentence containing the word saw", `//S[//_[@lex=saw]]`},
		{"Noun phrases that are an immediate following sibling of a verb", `//V==>NP`},
		{"Noun phrases that immediately follow a verb", `//V->NP`},
		{"Nouns that follow a verb which is a child of a verb phrase", `//VP/V-->N`},
		{"Within a verb phrase, nouns following a verb child of it", `//VP{/V-->N}`},
		{"Noun phrases that are the rightmost child of a verb phrase", `//VP{/NP$}`},
		{"Noun phrases that are the rightmost descendant of a verb phrase", `//VP{//NP$}`},
	}

	fmt.Println("Sentence: I saw the old man with a dog today")
	fmt.Println()
	for _, qq := range queries {
		// One request path: a Request names the query (raw text here, or a
		// compiled *Query), the mode, a limit, and serial or parallel.
		res, err := c.Run(context.Background(), lpath.Request{Text: qq.text})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  %s\n", qq.desc, qq.text)
		for _, m := range res.Matches {
			fmt.Printf("    -> %s[%s]\n", m.Node.Tag, strings.Join(m.Node.Words(), " "))
		}
		fmt.Println()
	}

	// The query engine translates LPath to SQL over the labeled node
	// relation (Section 4); show one translation.
	q := lpath.MustCompile(`//V->NP`)
	sql, err := q.SQL()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Relational translation of //V->NP:")
	fmt.Println(sql)
}
