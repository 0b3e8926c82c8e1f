package coverage

import (
	"math"

	"osars/internal/model"
	"osars/internal/ontology"
)

// BuildPairsQuantized is an optimized variant of BuildPairs for the
// k-Pairs problem: sentiments are snapped to a grid (e.g. 0.05) and
// identical (concept, quantized sentiment) pairs are merged into one
// weighted pair. On review corpora — where popular concepts repeat
// with near-identical sentiments — this shrinks |U|, |W| and |E|
// substantially while changing costs only by the quantization error
// (zero when sentiments already live on the grid, as the graded
// opinion-lexicon estimates do).
//
// rep[w] is the index in the original multiset of the first pair the
// unique pair w stands for, so a selection over the quantized graph
// translates back to original pairs.
func BuildPairsQuantized(m model.Metric, pairs []model.Pair, grid float64) (g *Graph, rep []int) {
	if grid <= 0 {
		grid = 0.05
	}
	type key struct {
		c ontology.ConceptID
		q int64
	}
	index := make(map[key]int, len(pairs))
	var unique []model.Pair
	var weight []int32
	for i, p := range pairs {
		q := int64(math.Round(p.Sentiment / grid))
		k := key{p.Concept, q}
		if at, ok := index[k]; ok {
			weight[at]++
			continue
		}
		index[k] = len(unique)
		// The representative keeps the first occurrence's exact
		// sentiment (not q·grid), so pairs that were already identical
		// merge without perturbing any Definition-1 ε comparison.
		unique = append(unique, p)
		weight = append(weight, 1)
		rep = append(rep, i)
	}
	g, _ = buildClosure(m, singletons(unique), unique, weight, false)
	return g, rep
}
