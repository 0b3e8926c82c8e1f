package coverage

import (
	"sort"

	"osars/internal/model"
	"osars/internal/ontology"
)

// Reference builders for the equivalence tests and ablation 2
// (DESIGN.md): the pre-closure walker builder and the naive all-pairs
// builder. Neither shares code with buildClosure beyond the Graph type.

// bucketEntry is one candidate-pair occurrence filed under its concept
// during the first pass.
type bucketEntry struct {
	cand      int32
	sentiment float64
}

// builder accumulates edges grouped by target pair before finish cuts
// them into a Graph.
type builder struct {
	metric  model.Metric
	pairs   []model.Pair
	numCand int
	// per-target backward rows
	bwd [][]Arc
}

func newBuilder(m model.Metric, pairs []model.Pair, numCand int) *builder {
	return &builder{
		metric:  m,
		pairs:   pairs,
		numCand: numCand,
		bwd:     make([][]Arc, len(pairs)),
	}
}

// walkAncestors visits c (distance 0) and every strict ancestor of c
// in BFS order with its shortest up-distance, by a fresh BFS over the
// parent links — independent of the ontology's precomputed closure.
func walkAncestors(o *ontology.Ontology, c ontology.ConceptID, visit func(anc ontology.ConceptID, dist int32)) {
	dist := map[ontology.ConceptID]int32{c: 0}
	queue := []ontology.ConceptID{c}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		visit(u, dist[u])
		for _, p := range o.Parents(u) {
			if _, seen := dist[p]; !seen {
				dist[p] = dist[u] + 1
				queue = append(queue, p)
			}
		}
	}
}

// BuildGroupsWalker is the pre-closure reference builder: a per-target
// ancestor BFS with map-backed buckets and per-target append lists.
func BuildGroupsWalker(m model.Metric, groups [][]model.Pair, pairs []model.Pair) *Graph {
	b := newBuilder(m, pairs, len(groups))
	fillEdges(b, groups)
	return b.finish()
}

// BuildPairsWalker is BuildPairs through the walker reference builder.
func BuildPairsWalker(m model.Metric, pairs []model.Pair) *Graph {
	return BuildGroupsWalker(m, singletons(pairs), pairs)
}

// fillEdges runs the two §4.1 passes, populating the per-target rows
// of the builder.
func fillEdges(b *builder, groups [][]model.Pair) {
	m := b.metric

	// First pass (§4.1): bucket candidate pair occurrences by concept.
	buckets := make(map[ontology.ConceptID][]bucketEntry)
	for u, g := range groups {
		for _, p := range g {
			buckets[p.Concept] = append(buckets[p.Concept], bucketEntry{int32(u), p.Sentiment})
		}
	}

	// Second pass: for each target pair, walk ancestors of its concept
	// and probe buckets. BFS order gives non-decreasing distances, so
	// the first qualifying occurrence of a candidate yields its
	// minimum edge weight; a stamp array deduplicates candidates.
	root := m.Ont.Root()
	stamp := make([]int32, len(groups))
	for i := range stamp {
		stamp[i] = -1
	}
	for w, target := range b.pairs {
		w32 := int32(w)
		walkAncestors(m.Ont, target.Concept, func(anc ontology.ConceptID, dist int32) {
			isRoot := anc == root
			for _, e := range buckets[anc] {
				if stamp[e.cand] == w32 {
					continue
				}
				if !isRoot {
					diff := e.sentiment - target.Sentiment
					if diff < 0 {
						diff = -diff
					}
					if diff > m.Epsilon {
						continue
					}
				}
				stamp[e.cand] = w32
				b.bwd[w] = append(b.bwd[w], Arc{To: e.cand, Dist: dist})
			}
		})
	}
}

// finish turns the per-target rows into a Graph: they are its
// backward rows, and the forward rows and InitGains follow arc by arc
// in ascending target order.
func (b *builder) finish() *Graph {
	g := &Graph{
		Metric:        b.metric,
		Pairs:         b.pairs,
		RootDist:      make([]int32, len(b.pairs)),
		Weight:        make([]int32, len(b.pairs)),
		NumCandidates: b.numCand,
		bwd:           b.bwd,
		fwd:           make([][]Arc, b.numCand),
		initGains:     make([]int64, b.numCand),
	}
	for w, p := range b.pairs {
		g.RootDist[w] = int32(b.metric.Ont.Depth(p.Concept))
		g.Weight[w] = 1
	}
	for w, row := range b.bwd {
		for _, a := range row {
			g.fwd[a.To] = append(g.fwd[a.To], Arc{To: int32(w), Dist: a.Dist})
			if diff := g.RootDist[w] - a.Dist; diff > 0 {
				g.initGains[a.To] += int64(diff)
			}
			g.numEdges++
		}
	}
	return g
}

// BuildPairsNaive is the ablation reference for the initialization
// phase: it computes all |P|² Definition-1 distances directly instead
// of using the bucket + ancestor-walk passes.
func BuildPairsNaive(m model.Metric, pairs []model.Pair) *Graph {
	b := newBuilder(m, pairs, len(pairs))
	for w, target := range pairs {
		var row []Arc
		for u, cand := range pairs {
			if d := m.PairDistance(cand, target); d < model.Infinite {
				row = append(row, Arc{To: int32(u), Dist: int32(d)})
			}
		}
		// Match the walker's non-decreasing-distance edge order so the
		// two builders produce comparable graphs.
		sort.SliceStable(row, func(i, j int) bool { return row[i].Dist < row[j].Dist })
		b.bwd[w] = row
	}
	return b.finish()
}
