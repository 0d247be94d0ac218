package lpath

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// FuzzEvalOracle is the differential fuzzer over the three evaluators: the
// engine with the cost-based planner, the engine with planning disabled, and
// the reference tree-walking oracle. On every (query, treebank) input that
// compiles and parses, all three must agree exactly — same matches, same
// order, and the two engine configurations must agree on whether evaluation
// errors (runtime errors are data-dependent, and the planner must not change
// which ones surface).
//
// The corpus is built once and shared, so Node pointers are comparable with
// reflect.DeepEqual across all evaluators.
func FuzzEvalOracle(f *testing.F) {
	bank := "(S (NP (N I)) (VP (V saw) (NP (D the) (N dog))))\n" +
		"(S (NP (DT the) (NN cat)) (VP (VB sat) (PP (IN on) (NP (DT a) (NN mat)))))\n" +
		"(S (NP (DT the) (JJ old) (NN man)) (VP (VB gave) (NP (NP (DT a) (NN dog)) (PP (IN with) (NP (NN spots)))) (PP (IN to) (NP (NN me)))))"
	for _, eq := range identityQueries() {
		f.Add(eq.Text, bank)
	}
	f.Add(`//VP{/VB-->NN}`, bank)
	f.Add(`//NP[count(//NN)=1]`, bank)
	f.Add(`//V[@lex=saw][@lex!=sat]`, bank)
	f.Add(`//S[//^NP]`, "(S (NP (N I)) (VP (V saw)))")
	f.Add(`//_[position()=2]`, bank)
	f.Add(`//NP[not(//JJ) and //NN]`, bank)
	f.Add(`//S{//N$}`, bank)
	// The unscoped kernel axes, bare and under a scope, aligned and or-self.
	for _, q := range []string{
		`//NP->PP`, `//DT-->NN`, `//NN<-DT`, `//NN<--DT`, `//VP//NN`, `//NP//NP`,
		`//VP{//DT->NN}`, `//VP{//VB-->NN$}`, `//S{//NN<-^DT}`, `//S{//NN<--DT}`,
		`//S{//NP//^NN}`, `//NP/descendant-or-self::NP`, `//DT/following-or-self::_`,
		`//NN/preceding-or-self::NN`, `//NP//^DT`, `//S[count({//NP//NN})>=2]`,
		// Scoped horizontal steps between nonterminals, walked per scope.
		`//S{//NP<--VP}`, `//S{//_->NP$}`, `//S{//VP{//VB-->_}}`, `//VP{/VB->NP->PP}`,
	} {
		f.Add(q, bank)
	}

	f.Fuzz(func(t *testing.T, query, treebank string) {
		if len(query) > 256 || len(treebank) > 2048 {
			return
		}
		q, err := Compile(query)
		if err != nil {
			return // not a valid query; FuzzParse covers the parser
		}
		c := NewCorpus(WithWorkers(2))
		trees := 0
		for _, line := range strings.Split(treebank, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if err := c.AddSentence(line); err != nil {
				continue // skip malformed trees, keep the parsable ones
			}
			if trees++; trees >= 8 {
				break
			}
		}

		ctx := context.Background()
		planned, plannedErr := c.Select(q)
		plannedCount, plannedCountErr := c.Count(q)
		parRes, parErr := c.Run(ctx, Request{Query: q, Parallel: true})
		par := parRes.Matches
		parCount, parCountErr := c.CountParallel(q)

		// Early-termination rotation: a limit derived from the input walks
		// the streaming path through unlimited (0), mid-stream and
		// past-the-end prefixes across fuzz inputs. A limited evaluation may
		// legitimately stop before a tree whose data-dependent runtime error
		// the full evaluation hits, so errors only compare one way (checked
		// below).
		limit := len(query) % 5
		limitedRes, limitedErr := c.Run(ctx, Request{Query: q, Limit: limit})
		parLimitedRes, parLimitedErr := c.Run(ctx, Request{Query: q, Limit: limit, Parallel: true})
		limited, parLimited := limitedRes.Matches, parLimitedRes.Matches

		// Filter rotation: answer every set-capable and scope-only filter for
		// its whole frontier, then every filter candidate by candidate, with
		// the step sides otherwise chosen at run time.
		c.Configure(withFilterSets())
		setFiltered, setFilteredErr := c.Select(q)
		c.Configure(withFiltersForward())
		fwdFiltered, fwdFilteredErr := c.Select(q)

		// Bitmap rotation: force the dense-bitset kernels onto every eligible
		// scope entry and step, under each filter side in turn (the options
		// accumulate, so the first run keeps the forward filters above), then
		// disable them entirely: per-binding probes, per-scope expansion and
		// forward filters — the probe reference.
		c.Configure(withBitmapAlways())
		bitmapped, bitmappedErr := c.Select(q)
		c.Configure(withFilterSets())
		bitmapSets, bitmapSetsErr := c.Select(q)
		c.Configure(withoutBitmap())
		unbitmapped, unbitmappedErr := c.Select(q)

		c.Configure(WithoutPlanner())
		unplanned, unplannedErr := c.Select(q)

		if (plannedErr != nil) != (unplannedErr != nil) {
			t.Fatalf("%q: planned err %v, unplanned err %v", query, plannedErr, unplannedErr)
		}
		if (plannedErr != nil) != (plannedCountErr != nil) ||
			(plannedErr != nil) != (parErr != nil) ||
			(plannedErr != nil) != (parCountErr != nil) {
			t.Fatalf("%q: select err %v, count err %v, parallel errs %v/%v",
				query, plannedErr, plannedCountErr, parErr, parCountErr)
		}
		if (plannedErr != nil) != (bitmappedErr != nil) || (plannedErr != nil) != (bitmapSetsErr != nil) ||
			(plannedErr != nil) != (unbitmappedErr != nil) {
			t.Fatalf("%q: planned err %v, bitmap-always errs %v/%v, bitmap-off err %v",
				query, plannedErr, bitmappedErr, bitmapSetsErr, unbitmappedErr)
		}
		if (plannedErr != nil) != (setFilteredErr != nil) || (plannedErr != nil) != (fwdFilteredErr != nil) {
			t.Fatalf("%q: planned err %v, set filters err %v, forward filters err %v",
				query, plannedErr, setFilteredErr, fwdFilteredErr)
		}
		if plannedErr != nil {
			return // all evaluators agree the query errors on this corpus
		}
		if !reflect.DeepEqual(planned, unplanned) {
			t.Fatalf("%q: planned %d matches, unplanned %d — or order differs\nplanned:   %v\nunplanned: %v",
				query, len(planned), len(unplanned), matchKeys(planned), matchKeys(unplanned))
		}
		if !reflect.DeepEqual(planned, setFiltered) {
			t.Fatalf("%q: set filters differ from planned (%d vs %d matches)\nset: %v\nplanned: %v",
				query, len(setFiltered), len(planned), matchKeys(setFiltered), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, fwdFiltered) {
			t.Fatalf("%q: forward filters differ from planned (%d vs %d matches)\nforward: %v\nplanned: %v",
				query, len(fwdFiltered), len(planned), matchKeys(fwdFiltered), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, bitmapped) {
			t.Fatalf("%q: bitmap-always differs from planned (%d vs %d matches)\nbitmapped: %v\nplanned: %v",
				query, len(bitmapped), len(planned), matchKeys(bitmapped), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, bitmapSets) {
			t.Fatalf("%q: bitmap-always with set filters differs from planned (%d vs %d matches)\nbitmapped: %v\nplanned: %v",
				query, len(bitmapSets), len(planned), matchKeys(bitmapSets), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, unbitmapped) {
			t.Fatalf("%q: bitmap-off differs from planned (%d vs %d matches)\nunbitmapped: %v\nplanned: %v",
				query, len(unbitmapped), len(planned), matchKeys(unbitmapped), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, par) {
			t.Fatalf("%q: parallel differs from serial (%d vs %d matches)",
				query, len(par), len(planned))
		}
		if plannedCount != len(planned) || parCount != len(planned) {
			t.Fatalf("%q: Count=%d CountParallel=%d, want %d",
				query, plannedCount, parCount, len(planned))
		}

		if limitedErr != nil {
			t.Fatalf("%q: Select succeeded but Limit %d errored: %v", query, limit, limitedErr)
		}
		if parLimitedErr != nil {
			t.Fatalf("%q: Select succeeded but parallel Limit %d errored: %v", query, limit, parLimitedErr)
		}
		wantPrefix := planned
		if limit > 0 && limit < len(planned) {
			wantPrefix = planned[:limit]
		}
		if !reflect.DeepEqual(limited, wantPrefix) {
			t.Fatalf("%q: Limit %d = %v, want prefix %v",
				query, limit, matchKeys(limited), matchKeys(wantPrefix))
		}
		if !reflect.DeepEqual(parLimited, wantPrefix) {
			t.Fatalf("%q: parallel Limit %d = %v, want prefix %v",
				query, limit, matchKeys(parLimited), matchKeys(wantPrefix))
		}

		oracle, oracleErr := c.SelectOracle(q)
		if oracleErr != nil {
			t.Fatalf("%q: engine succeeded but oracle errored: %v", query, oracleErr)
		}
		if !reflect.DeepEqual(planned, oracle) {
			t.Fatalf("%q: engine %d matches, oracle %d — or order differs\nengine: %v\noracle: %v",
				query, len(planned), len(oracle), matchKeys(planned), matchKeys(oracle))
		}
	})
}

// matchKeys renders matches as pointer-independent (tree, tag, words) keys
// for failure messages.
func matchKeys(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Node.Tag
		if ws := m.Node.Words(); len(ws) > 0 {
			out[i] += "[" + strings.Join(ws, " ") + "]"
		}
	}
	return out
}
