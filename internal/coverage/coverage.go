// Package coverage implements the initialization phase shared by all
// three summarization algorithms (paper §4.1), producing the
// edge-weighted bipartite coverage graph G = (U, W, E).
//
// W is always the multiset P of concept-sentiment pairs to be covered.
// U is the candidate set: the pairs themselves for k-Pairs Coverage, or
// the sentences / whole reviews for k-Reviews/Sentences Coverage
// (§4.5). An edge (u, w) with weight d means candidate u covers pair w
// at Definition-1 distance d.
//
// The graph is built exactly as the paper describes: a first pass
// buckets candidate pairs by concept; a second pass iterates, for each
// target pair, the ancestors of its concept in the DAG and probes the
// buckets. (The paper walks ancestors by DFS; we use BFS order, which
// visits the same ancestor set but yields shortest up-distances
// directly — DFS would need explicit minimum tracking on multi-parent
// DAGs.) Because the average number of ancestors per concept is small,
// construction is near-linear in |P|.
//
// buildClosure is the one from-scratch construction, used by Build,
// BuildPairsQuantized and the incremental Index's bulk load. It reads
// the ontology's precomputed ancestor closure (ontology.Ancestors)
// instead of re-running a BFS per target pair, stores the concept
// buckets as one counting-sorted block indexed by ConceptID, scans the
// closure once while appending the backward edges to pooled scratch,
// and derives the forward direction by a counting sort of those edges.
// Every row is a capacity-capped slice of a block of at most 32 KiB,
// so the incremental Index can adopt the rows and grow them by
// reallocation. The test files keep a walker-based and a naive
// all-pairs builder as references; the equivalence tests assert they
// produce identical graphs.
package coverage

import (
	"fmt"
	"sync"

	"osars/internal/model"
)

// Graph is the immutable coverage graph. Adjacency is stored as one
// row of arcs per vertex in both directions:
//
//   - forward:  candidate u → (pair w, distance), ascending w
//   - backward: pair w → (candidate u, distance), in closure order
//
// plus the per-pair root fallback distance (the depth of the pair's
// concept), so C(F, P) is computable from the graph alone, and each
// candidate's initial greedy gain. Rows are capacity-capped, so an
// append to one reallocates instead of writing into a neighbour or
// into storage another graph still reads.
type Graph struct {
	Metric model.Metric
	// Pairs is W: the multiset of pairs to cover, in input order.
	Pairs []model.Pair
	// RootDist[w] is d(r, Pairs[w].Concept): the cost of leaving pair
	// w to the implicit root.
	RootDist []int32
	// Weight[w] is the multiplicity of pair w. Plain builders set every
	// weight to 1; BuildPairsQuantized merges duplicate pairs and
	// records how many originals each unique pair stands for. All cost
	// computations multiply by it.
	Weight []int32
	// NumCandidates is |U|.
	NumCandidates int

	numEdges int
	fwd      [][]Arc // per candidate: covered pairs, ascending
	bwd      [][]Arc // per pair: covering candidates, closure order

	// initGains[u] = Σ_w Weight[w]·max(0, RootDist[w]−d(u,w)): the
	// initial greedy key of candidate u.
	initGains []int64
}

// Arc is one entry of an adjacency row: the vertex at the other end
// (a pair index in a forward row, a candidate index in a backward row)
// and the Definition-1 distance of the edge.
type Arc struct {
	To   int32
	Dist int32
}

// InitGains returns each candidate's initial greedy gain
// Σ_w Weight[w]·max(0, RootDist[w]−d(u,w)). The slice is shared and
// must be treated as read-only.
func (g *Graph) InitGains() []int64 { return g.initGains }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Covered calls fn for every pair covered by candidate u, with the
// Definition-1 distance. Iteration stops early if fn returns false.
func (g *Graph) Covered(u int, fn func(w int, dist int) bool) {
	for _, a := range g.fwd[u] {
		if !fn(int(a.To), int(a.Dist)) {
			return
		}
	}
}

// Coverers calls fn for every candidate covering pair w, with the
// Definition-1 distance. Iteration stops early if fn returns false.
func (g *Graph) Coverers(w int, fn func(u int, dist int) bool) {
	for _, a := range g.bwd[w] {
		if !fn(int(a.To), int(a.Dist)) {
			return
		}
	}
}

// Degree returns the number of pairs candidate u covers.
func (g *Graph) Degree(u int) int { return len(g.fwd[u]) }

// CoveredRow returns the forward row of candidate u: the pairs it
// covers, ascending, with their Definition-1 distances. The row
// aliases the graph's storage and must not be modified. This is the
// allocation- and closure-free counterpart of Covered for hot loops
// (the greedy key updates walk these rows directly).
func (g *Graph) CoveredRow(u int) []Arc { return g.fwd[u] }

// CoverersRow returns the backward row of pair w: the candidates
// covering it, with their distances. The row aliases the graph's
// storage and must not be modified.
func (g *Graph) CoverersRow(w int) []Arc { return g.bwd[w] }

// CostScratch holds reusable state for CostOfWith so that repeated
// cost evaluations (randomized-rounding trials, local-search guards,
// per-request server evaluation) allocate nothing after the first
// call. The zero value is ready; a scratch may be reused across graphs
// of different sizes but is NOT safe for concurrent use.
type CostScratch struct {
	stamp []uint32
	gen   uint32
}

// mark stamps the selected candidates, growing the stamp array to
// hold n candidates, and returns the current generation.
func (s *CostScratch) mark(n int, selected []int) uint32 {
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	s.stamp = s.stamp[:n]
	s.gen++
	if s.gen == 0 { // wrapped: clear stale stamps
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	for _, u := range selected {
		s.stamp[u] = s.gen
	}
	return s.gen
}

// CostOf evaluates C(F, P) for a set of selected candidates using only
// the precomputed graph: each pair is charged the minimum distance over
// selected coverers, with the root as fallback.
func (g *Graph) CostOf(selected []int) float64 {
	var s CostScratch
	return g.CostOfWith(&s, selected)
}

// CostOfWith is CostOf with caller-owned scratch, for evaluation loops
// that must not allocate per call.
func (g *Graph) CostOfWith(s *CostScratch, selected []int) float64 {
	gen := s.mark(g.NumCandidates, selected)
	stamp := s.stamp
	total := 0
	for w := range g.Pairs {
		best := g.RootDist[w]
		for _, a := range g.bwd[w] {
			if a.Dist < best && stamp[a.To] == gen {
				best = a.Dist
			}
		}
		total += int(best) * int(g.Weight[w])
	}
	return float64(total)
}

// EmptyCost returns C(∅, P) = Σ_w Weight[w]·RootDist[w], the cost of
// the empty summary where the root covers everything.
func (g *Graph) EmptyCost() float64 {
	total := 0
	for w, d := range g.RootDist {
		total += int(d) * int(g.Weight[w])
	}
	return float64(total)
}

// String describes the graph size.
func (g *Graph) String() string {
	return fmt.Sprintf("CoverageGraph(|U|=%d, |W|=%d, |E|=%d)", g.NumCandidates, len(g.Pairs), g.NumEdges())
}

// BuildPairs constructs the coverage graph for k-Pairs Coverage:
// U = W = P, and candidate i is the pair P[i] itself.
func BuildPairs(m model.Metric, pairs []model.Pair) *Graph {
	return BuildGroups(m, singletons(pairs), pairs)
}

// BuildGroups constructs the coverage graph for k-Reviews/Sentences
// Coverage (§4.5): candidate u is the pair-set groups[u] (one sentence
// or one whole review), and W is the given pair multiset (normally the
// concatenation of all groups). The edge weight from a group to a pair
// is the minimum Definition-1 distance over the group's pairs.
func BuildGroups(m model.Metric, groups [][]model.Pair, pairs []model.Pair) *Graph {
	g, _ := buildClosure(m, groups, pairs, nil, false)
	return g
}

// singletons makes every pair its own candidate group (k-Pairs
// Coverage).
func singletons(pairs []model.Pair) [][]model.Pair {
	groups := make([][]model.Pair, len(pairs))
	for i := range pairs {
		groups[i] = pairs[i : i+1]
	}
	return groups
}

// SentenceGroups flattens an item into per-sentence pair groups plus
// the full pair multiset P, ready for BuildGroups. Sentences with no
// extracted pairs are still included (they can be selected but cover
// nothing), preserving candidate indices aligned with sentence order.
func SentenceGroups(item *model.Item) (groups [][]model.Pair, pairs []model.Pair) {
	groups = make([][]model.Pair, 0, item.NumSentences())
	pairs = allocPairs(item)
	for ri := range item.Reviews {
		for si := range item.Reviews[ri].Sentences {
			s := &item.Reviews[ri].Sentences[si]
			groups = append(groups, s.Pairs)
			pairs = append(pairs, s.Pairs...)
		}
	}
	return groups, pairs
}

// ReviewGroups flattens an item into per-review pair groups plus the
// full pair multiset P, ready for BuildGroups. Each group is a
// capacity-capped window of P.
func ReviewGroups(item *model.Item) (groups [][]model.Pair, pairs []model.Pair) {
	groups = make([][]model.Pair, len(item.Reviews))
	pairs = allocPairs(item)
	for ri := range item.Reviews {
		lo := len(pairs)
		for si := range item.Reviews[ri].Sentences {
			pairs = append(pairs, item.Reviews[ri].Sentences[si].Pairs...)
		}
		groups[ri] = pairs[lo:len(pairs):len(pairs)]
	}
	return groups, pairs
}

// allocPairs returns an empty slice with room for all of item's
// pairs, or nil when it has none.
func allocPairs(item *model.Item) []model.Pair {
	n := 0
	for ri := range item.Reviews {
		for si := range item.Reviews[ri].Sentences {
			n += len(item.Reviews[ri].Sentences[si].Pairs)
		}
	}
	if n == 0 {
		return nil
	}
	return make([]model.Pair, 0, n)
}

// itemGroups flattens an item into the candidate groups and pair
// multiset of granularity g. The pairs are always the concatenation of
// the groups.
func itemGroups(item *model.Item, g model.Granularity) (groups [][]model.Pair, pairs []model.Pair) {
	switch g {
	case model.GranularityPairs:
		pairs = item.Pairs()
		return singletons(pairs), pairs
	case model.GranularitySentences:
		return SentenceGroups(item)
	case model.GranularityReviews:
		return ReviewGroups(item)
	default:
		panic(fmt.Sprintf("coverage: unknown granularity %v", g))
	}
}

// Build constructs the coverage graph for an item at the requested
// granularity.
func Build(m model.Metric, item *model.Item, g model.Granularity) *Graph {
	groups, pairs := itemGroups(item, g)
	return BuildGroups(m, groups, pairs)
}

// buildScratch is the pooled transient state of buildClosure. Every
// slice grows monotonically and is reused across builds, so a server
// solving cache misses in a loop stops allocating build scratch after
// warm-up.
type buildScratch struct {
	bucketIdx []int32      // len numConcepts+1: bucket offsets
	bucket    []occurrence // occurrences, grouped by concept
	cursor    []int32      // per-concept fill cursor, then per-candidate
	bwdOff    []int32      // len |W|+1: backward row offsets
	fwdOff    []int32      // len |U|+1: forward row offsets
	arcs      []Arc        // backward arcs in emission order
	fwdArcs   []Arc        // the same arcs, counting-sorted by candidate
	anc       []int32      // closure position of each arc
	stamp     []uint32     // per-candidate dedup stamps
	gen       uint32
}

// occurrence is one candidate-pair occurrence of the first §4.1 pass:
// the pair-th pair of the concatenated groups, inside candidate cand.
type occurrence struct {
	cand, pair int32
	sentiment  float64
}

// bulkLoad is what buildClosure also returns for the incremental
// Index's bulk load.
type bulkLoad struct {
	// occ holds the first pass's occurrences grouped by concept, in
	// ascending concept order, each group in candidate scan order.
	occ []occurrence
	// anc parallels the graph's backward rows: each arc's position in
	// its target's closure row, the order key the Index splices new
	// arcs by.
	anc [][]int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow resizes buf to n, reusing capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// nextGen advances the scratch's dedup generation, clearing stamps on
// wrap-around, and returns the fresh generation.
func (s *buildScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}

// rowBlock is the most elements a block of rows holds: 32 KiB of
// Arcs, the largest allocation Go still serves from its size classes.
// A big graph's storage is thus many small blocks rather than one huge
// one, which the allocator reuses like any small object once an index
// has copied its rows out of them; huge blocks leave page runs behind
// that only another huge build fits.
const rowBlock = 4096

// copyRows sets rows[i] to a capacity-capped copy of
// src[off[i]:off[i+1]]. Consecutive rows share a block of up to
// rowBlock elements (a longer row gets its own), filled by one copy.
// Empty rows are nil, so that they do not keep a block alive.
func copyRows[T any](rows [][]T, src []T, off []int32) [][]T {
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && off[j+1]-off[i] <= rowBlock {
			j++
		}
		lo := off[i]
		block := make([]T, off[j]-lo)
		copy(block, src[lo:off[j]])
		for ; i < j; i++ {
			if a, b := off[i]-lo, off[i+1]-lo; a < b {
				rows[i] = block[a:b:b]
			}
		}
	}
	return rows
}

// buildClosure is the §4.1 initialization. Against the walker
// reference in the tests it differs in four ways, none observable in
// the output:
//
//  1. the per-target ancestor BFS is replaced by a read of the
//     ontology's precomputed closure row (same ancestor set, same BFS
//     order, same shortest up-distances);
//  2. the concept buckets are a counting-sorted block indexed by
//     ConceptID instead of a map of append-lists;
//  3. the backward arcs are appended to pooled scratch in one closure
//     scan and the forward direction is a counting sort of them;
//  4. the rows are capacity-capped copies cut from blocks of at most
//     32 KiB.
//
// The same scan accumulates InitGains. weight == nil means all
// multiplicities are 1.
//
// forIndex asks for the bulkLoad the incremental Index starts from.
func buildClosure(m model.Metric, groups [][]model.Pair, pairs []model.Pair, weight []int32, forIndex bool) (*Graph, bulkLoad) {
	ont := m.Ont
	numConcepts := ont.Len()
	numCand := len(groups)
	np := len(pairs)
	root := ont.Root()
	eps := m.Epsilon

	s := buildPool.Get().(*buildScratch)
	defer buildPool.Put(s)

	// First pass (§4.1): bucket candidate pair occurrences by concept —
	// counting sort into one block.
	bucketIdx := grow(s.bucketIdx, numConcepts+1)
	clear(bucketIdx)
	occ := 0
	for _, g := range groups {
		for _, p := range g {
			bucketIdx[p.Concept+1]++
			occ++
		}
	}
	for c := 1; c <= numConcepts; c++ {
		bucketIdx[c] += bucketIdx[c-1]
	}
	var bucket []occurrence
	if forIndex {
		bucket = make([]occurrence, occ) // kept by the Index
	} else {
		bucket = grow(s.bucket, occ)
		s.bucket = bucket
	}
	cursor := grow(s.cursor, max(numConcepts, numCand))
	copy(cursor, bucketIdx[:numConcepts])
	i := int32(0)
	for u, g := range groups {
		for _, p := range g {
			bucket[cursor[p.Concept]] = occurrence{cand: int32(u), pair: i, sentiment: p.Sentiment}
			cursor[p.Concept]++
			i++
		}
	}

	g := &Graph{
		Metric:        m,
		Pairs:         pairs,
		RootDist:      make([]int32, np),
		Weight:        weight,
		NumCandidates: numCand,
		initGains:     make([]int64, numCand),
	}
	if g.Weight == nil {
		g.Weight = make([]int32, np)
		for w := range g.Weight {
			g.Weight[w] = 1
		}
	}

	// Grow the dedup stamps once; generations handle logical clearing.
	if cap(s.stamp) < numCand {
		s.stamp = make([]uint32, numCand)
	}
	stamp := s.stamp[:numCand]

	// Second pass: for each target pair, scan its concept's closure row
	// and probe the buckets. BFS order in the row gives non-decreasing
	// distances, so the first qualifying occurrence of a candidate is
	// its minimum edge weight; the stamp dedups.
	bwdOff := grow(s.bwdOff, np+1)
	fwdOff := grow(s.fwdOff, numCand+1)
	clear(fwdOff)
	arcs, ancPos := s.arcs[:0], s.anc[:0]
	gains := g.initGains
	bwdOff[0] = 0
	for w := range pairs {
		target := &pairs[w]
		rd := int32(ont.Depth(target.Concept))
		g.RootDist[w] = rd
		wt := int64(g.Weight[w])
		gen := s.nextGen()
		ids, dists := ont.Ancestors(target.Concept)
		for ai, anc := range ids {
			isRoot := anc == root
			d := dists[ai]
			for _, o := range bucket[bucketIdx[anc]:bucketIdx[anc+1]] {
				cand := o.cand
				if stamp[cand] == gen {
					continue
				}
				if !isRoot {
					diff := o.sentiment - target.Sentiment
					if diff < 0 {
						diff = -diff
					}
					if diff > eps {
						continue
					}
				}
				stamp[cand] = gen
				arcs = append(arcs, Arc{To: cand, Dist: d})
				if forIndex {
					ancPos = append(ancPos, int32(ai))
				}
				fwdOff[cand+1]++
				if diff := rd - d; diff > 0 {
					gains[cand] += int64(diff) * wt
				}
			}
		}
		bwdOff[w+1] = int32(len(arcs))
	}

	// Forward direction: counting sort of the backward arcs by
	// candidate. Targets are visited in ascending order, so every
	// forward row comes out sorted.
	total := len(arcs)
	g.numEdges = total
	for u := 1; u <= numCand; u++ {
		fwdOff[u] += fwdOff[u-1]
	}
	fwd := grow(s.fwdArcs, total)
	next := cursor[:numCand]
	copy(next, fwdOff[:numCand])
	for w := 0; w < np; w++ {
		for _, a := range arcs[bwdOff[w]:bwdOff[w+1]] {
			fwd[next[a.To]] = Arc{To: int32(w), Dist: a.Dist}
			next[a.To]++
		}
	}

	rows := make([][]Arc, np+numCand)
	g.bwd = copyRows(rows[:np:np], arcs, bwdOff)
	g.fwd = copyRows(rows[np:], fwd, fwdOff)
	var bulk bulkLoad
	if forIndex {
		bulk = bulkLoad{occ: bucket, anc: copyRows(make([][]int32, np), ancPos, bwdOff)}
	}

	// Return the (possibly re-grown) scratch slices to the pool entry.
	s.bucketIdx = bucketIdx
	s.cursor, s.bwdOff, s.fwdOff = cursor, bwdOff, fwdOff
	s.arcs, s.fwdArcs, s.anc = arcs, fwd, ancPos
	return g, bulk
}
