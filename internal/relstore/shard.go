package relstore

import "lpath/internal/tree"

// Sharding partitions a corpus into disjoint tree-ID ranges, each indexed
// as a store of its own. Every LPath axis relates nodes of a single tree
// (Table 2 predicates all conjoin on tid), so a per-tree partition never
// splits a match.

// SplitByTID partitions the corpus's trees into at most k contiguous chunks,
// balanced by node count so shards carry comparable evaluation work even
// when tree sizes are skewed. Tree identifiers are preserved: each returned
// corpus shares the original *Tree values (and hence their IDs), so rows
// built from a shard carry the same tid they would in the unsharded store.
// The chunks cover every tree exactly once and are returned in tid order.
func SplitByTID(c *tree.Corpus, k int) []*tree.Corpus {
	n := c.Len()
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	total := 0
	for _, t := range c.Trees {
		total += t.Size()
	}
	out := make([]*tree.Corpus, 0, k)
	start, acc, used := 0, 0, 0
	for i, t := range c.Trees {
		acc += t.Size()
		remChunks := k - len(out)
		remTrees := n - i - 1
		// Close the chunk once it reaches an even share of the remaining
		// work — but never leave fewer trees than chunks still to emit.
		target := (total - used) / remChunks
		if (acc >= target || remTrees < remChunks) && remChunks > 1 || i == n-1 {
			out = append(out, &tree.Corpus{Trees: c.Trees[start : i+1]})
			start = i + 1
			used += acc
			acc = 0
		}
	}
	return out
}

// BuildShards splits the corpus with SplitByTID and builds an independent
// Store per shard under the scheme, each with its own statistics. The query
// engine does not use shards — it evaluates tid windows of one store
// (engine.EvalParallel) — so the one caller is the relstore.shard_build
// probe of benchmark/trace.go, which times this construction.
func BuildShards(c *tree.Corpus, scheme Scheme, k int) []*Store {
	parts := SplitByTID(c, k)
	out := make([]*Store, len(parts))
	for i, p := range parts {
		out[i] = Build(p, scheme)
	}
	return out
}
