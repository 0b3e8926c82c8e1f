package main

import (
	"math/rand"

	"osars"
	"osars/internal/coverage"
	"osars/internal/model"
	"osars/internal/summarize"
)

// coldChecker computes summaries from scratch with the library, outside
// the service: annotate every review, coverage.Build, summarize.Greedy.
// It is the reference the stateful answers must equal (warm ≡ cold).
type coldChecker struct {
	sum *osars.Summarizer
}

func newColdChecker(p *plan) *coldChecker {
	sum, err := osars.New(osars.Config{Ontology: p.ont, Epsilon: serveEpsilon})
	if err != nil {
		panic(err) // the ontology comes from the dataset package and is valid
	}
	return &coldChecker{sum: sum}
}

// cost returns the from-scratch cost and pair count of item i's first n
// reviews.
func (c *coldChecker) cost(p *plan, i, n int) (float64, int) {
	it := p.items[i]
	item := c.sum.AnnotateItemWorkers(it.ID, it.Name, toLib(rawReviews(it.Reviews[:n])), 1)
	g := coverage.Build(c.sum.Metric(), item, model.GranularitySentences)
	k := min(summaryK, g.NumCandidates)
	return summarize.Greedy(g, k).Cost, len(item.Pairs())
}

// expectedCosts is the from-scratch cost of every stateless item.
func expectedCosts(p *plan) []float64 {
	c := newColdChecker(p)
	want := make([]float64, len(p.items))
	for i := range p.items {
		want[i], _ = c.cost(p, i, len(p.items[i].Reviews))
	}
	return want
}

// verifySample picks, from the seed, the items whose final stored
// summary is recomputed from scratch after each episode.
func verifySample(p *plan, seed int64) []int {
	if p.stateless {
		return nil
	}
	n := min(verifySampleSize, len(p.items))
	return rand.New(rand.NewSource(seed)).Perm(len(p.items))[:n]
}
