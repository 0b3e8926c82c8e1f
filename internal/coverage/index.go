// Incremental coverage index: the §4.1 initialization kept in
// appendable form so an append-heavy corpus pays O(delta) per new
// review instead of a full rebuild per summary.
//
// An empty index loads its first reviews through buildClosure, the
// batch builder (coverage.go), and keeps its output as is: the graph
// (handed out unchanged), each backward arc's closure position, and
// the first pass's occurrences, already grouped by concept. The first
// merge turns that into the index's own state in O(|U| + |W| + |E|)
// (materializeLocked); later reviews are merged incrementally. Both
// §4.1 passes have a property the merge exploits: appending reviews
// only ever EXTENDS the state the passes derive —
//
//   - occurrences of new candidates land at the TAIL of their concept
//     buckets (bucket order is the global candidate scan order, and new
//     candidates scan after all old ones);
//   - existing candidates never gain occurrences (a review's pair set
//     is immutable), so the dedup/emission decisions of every old edge
//     are unchanged;
//   - the rebuilt edge row of an old target is therefore the old row
//     with the new-tail edges spliced in, ordered by the ancestor's
//     position in the target's closure row (old entries sort before new
//     ones at equal positions, because within one bucket the old
//     occurrences precede the tail).
//
// mergeLocked applies exactly that: it appends the delta's
// occurrences, re-probes ONLY the dirty bucket tails for the affected
// old targets (found through the ontology's descendant sets, not a
// corpus scan), and runs the normal closure scan for the delta's own
// targets. Graph hands out a Graph whose rows alias the index's own
// rows — O(|U| + |W|) slice-header copies, not an O(|E|) rebuild — with
// the same per-row edge order as buildClosure; the equivalence tests
// fuzz row-identity against Build from scratch.
//
// The merge also maintains each candidate's initial greedy gain
// Σ_w max(0, RootDist[w] − d(u,w)), so every graph the index hands
// out carries an up-to-date Graph.InitGains.
package coverage

import (
	"cmp"
	"slices"
	"sync"

	"osars/internal/model"
	"osars/internal/ontology"
)

// Index is the appendable form of the coverage graph for one item at
// one granularity under one metric (ontology + ε). All methods are
// safe for concurrent use; merges serialize against Graph, and a
// handed-out Graph only aliases storage later merges never write, so
// graphs handed out earlier never observe later merges.
type Index struct {
	mu     sync.Mutex
	metric model.Metric
	gran   model.Granularity

	numReviews int // reviews merged so far
	numCand    int // |U|

	// Append-only parallels of the Graph's W arrays. Handed-out graphs
	// alias prefixes of these; merges only ever append past them.
	pairs    []model.Pair
	rootDist []int32
	ones     []int32 // all-ones Weight backing

	// One occurrence bucket per concept that has occurred (pass 1 of
	// §4.1, kept live instead of rebuilt per solve); slot[c] is 1 + the
	// position of concept c's bucket, 0 while c has none. Only slot is
	// the size of the ontology, and it holds no pointers.
	slot    []int32
	buckets []bucket

	// Per-target backward rows in buildClosure emission order
	// (ancestor-major, bucket-position-minor). edgeAnc records each
	// arc's position in the target's ancestor closure row — the sort
	// key that lets a merge splice new tail arcs into an old row.
	bwd      [][]Arc
	edgeAnc  [][]int32
	numEdges int

	// Per-candidate forward rows (candidate → covered targets,
	// ascending target order — the same order as buildClosure's).
	// Old candidates only ever gain arcs to NEW targets (their
	// occurrences are immutable, so no new edge to an old target can
	// involve them), and new targets are scanned in ascending order, so
	// in-place tail appends preserve the sort. New candidates
	// additionally receive old targets out of order during the patch
	// phase; mergeLocked sorts that prefix once at the end.
	fwd [][]Arc

	// gain[u] = Σ_w max(0, rootDist[w] − d(u,w)): the candidate's
	// initial greedy key, maintained edge by edge.
	gain []int64

	// Dedup scratch (candidate stamps per target scan, target stamps
	// per merge) and the per-merge dirty-bucket bookkeeping.
	stamp   []uint32
	gen     uint32
	tStamp  []uint32
	tGen    uint32
	dirty   []int32 // positions of the buckets the merge appends to
	pend    []Arc   // patch scratch: pending new arcs of one target
	pendAnc []int32

	// Memoized graph: valid while no merge has run since.
	frozen *Graph

	// pending is set from a bulk load until the first merge: the rows,
	// outer row slices and gains are still the bulk-load graph's, and
	// the buckets and closure positions still in buildClosure's form.
	pending *bulkLoad
}

// NewIndex returns an empty index for the metric and granularity. The
// ontology is pinned: after a hot-swap the store discards the index
// (annotations change too) rather than migrating it.
func NewIndex(m model.Metric, g model.Granularity) *Index {
	return &Index{metric: m, gran: g}
}

// bucket holds one concept's occurrences in global candidate scan
// order. Every occurrence is also a target pair, so a bucket doubles
// as the list of targets with that concept: a merge finds the old
// targets affected by a dirty concept through Descendants(c) instead
// of scanning the whole multiset.
type bucket struct {
	concept   ontology.ConceptID
	occ       []occurrence
	dirty     bool  // the current merge appends to occ
	dirtyFrom int32 // len(occ) before the merge, valid while dirty
}

// bucketLocked returns concept c's bucket, or nil while c has none.
func (x *Index) bucketLocked(c ontology.ConceptID) *bucket {
	if s := x.slot[c]; s != 0 {
		return &x.buckets[s-1]
	}
	return nil
}

// addBucketLocked gives concept c a bucket holding occ.
func (x *Index) addBucketLocked(c ontology.ConceptID, occ []occurrence) *bucket {
	x.buckets = append(x.buckets, bucket{concept: c, occ: occ})
	x.slot[c] = int32(len(x.buckets))
	return &x.buckets[len(x.buckets)-1]
}

// Advance merges the suffix of item's reviews the index has not seen
// yet. The item's reviews must continue the sequence merged so far
// (the store's copy-on-write items guarantee appends preserve the
// prefix). A stale snapshot (item shorter than the index) is a no-op,
// so concurrent advancers against different snapshots are safe.
func (x *Index) Advance(item *model.Item) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.advanceLocked(item.Reviews)
}

// Graph returns the coverage graph for the given item snapshot,
// identical to Build from scratch over it, catching the index up first
// if the snapshot has reviews the index has not merged (recovered
// entries, replicas applying streamed ops). The result is memoized
// until the next merge. It returns nil when the index has already
// merged PAST the snapshot — the caller's view is older than the index
// and only a from-scratch build can serve it.
func (x *Index) Graph(item *model.Item) *Graph {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.numReviews > len(item.Reviews) {
		return nil
	}
	x.advanceLocked(item.Reviews)
	return x.freezeLocked()
}

// advanceLocked brings the index up to reviews: a from-scratch build
// while the index is empty, an incremental merge of the unseen suffix
// after that.
func (x *Index) advanceLocked(reviews []model.Review) {
	switch {
	case x.numReviews >= len(reviews):
	case x.numReviews == 0:
		x.loadLocked(reviews)
	default:
		x.mergeLocked(reviews[x.numReviews:])
	}
}

// loadLocked fills an empty index from buildClosure's output, which
// becomes the memoized graph. The rest of the index state waits for
// the first merge (materializeLocked), so a rebuild that only serves
// solves costs little more than Build.
func (x *Index) loadLocked(reviews []model.Review) {
	groups, pairs := itemGroups(&model.Item{Reviews: reviews}, x.gran)
	g, bulk := buildClosure(x.metric, groups, pairs, nil, true)
	x.numReviews = len(reviews)
	x.numCand = len(groups)
	x.pairs, x.rootDist, x.ones = g.Pairs, g.RootDist, g.Weight
	x.bwd, x.fwd, x.gain = g.bwd, g.fwd, g.initGains
	x.numEdges = g.numEdges
	x.frozen, x.pending = g, &bulk
}

// materializeLocked turns a bulk load into the index's own state
// before the first merge writes to it. It copies the rows, one
// allocation each: left in the graph's blocks, the rows later merges
// never touch would keep those blocks alive after the graph is
// dropped, next to the rows merges reallocate. The buckets are one
// per run of the concept-grouped occurrences, capacity-capped so
// appends reallocate.
func (x *Index) materializeLocked() {
	b := x.pending
	x.bwd, x.fwd, x.edgeAnc = cloneRows(x.bwd), cloneRows(x.fwd), cloneRows(b.anc)
	x.gain = slices.Clone(x.gain)
	x.slot = make([]int32, x.metric.Ont.Len())
	for lo := 0; lo < len(b.occ); {
		c := x.pairs[b.occ[lo].pair].Concept
		hi := lo + 1
		for hi < len(b.occ) && x.pairs[b.occ[hi].pair].Concept == c {
			hi++
		}
		x.addBucketLocked(c, b.occ[lo:hi:hi])
		lo = hi
	}
	x.pending = nil
}

// cloneRows copies every row into its own allocation.
func cloneRows[T any](rows [][]T) [][]T {
	out := make([][]T, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// nextGenLocked advances the candidate-stamp generation (wrap-safe).
func (x *Index) nextGenLocked() uint32 {
	x.gen++
	if x.gen == 0 {
		for i := range x.stamp {
			x.stamp[i] = 0
		}
		x.gen = 1
	}
	return x.gen
}

// nextTargetGenLocked advances the target-stamp generation.
func (x *Index) nextTargetGenLocked() uint32 {
	x.tGen++
	if x.tGen == 0 {
		for i := range x.tStamp {
			x.tStamp[i] = 0
		}
		x.tGen = 1
	}
	return x.tGen
}

// addOccurrenceLocked files one candidate-pair occurrence: the W-side
// append-only arrays, the target row placeholder, the concept bucket
// tail and the dirty bookkeeping.
func (x *Index) addOccurrenceLocked(u int, p model.Pair) {
	ont := x.metric.Ont
	w := len(x.pairs)
	x.pairs = append(x.pairs, p)
	x.rootDist = append(x.rootDist, int32(ont.Depth(p.Concept)))
	x.ones = append(x.ones, 1)
	x.bwd = append(x.bwd, nil)
	x.edgeAnc = append(x.edgeAnc, nil)
	b := x.bucketLocked(p.Concept)
	if b == nil {
		b = x.addBucketLocked(p.Concept, nil)
	}
	if !b.dirty {
		b.dirty, b.dirtyFrom = true, int32(len(b.occ))
		x.dirty = append(x.dirty, x.slot[p.Concept]-1)
	}
	b.occ = append(b.occ, occurrence{cand: int32(u), pair: int32(w), sentiment: p.Sentiment})
}

// mergeLocked is the three-phase merge: (A) append the delta's
// candidates and occurrences, (B) splice the dirty bucket tails into
// the affected OLD targets' rows, (C) run the full closure scan for
// the delta's NEW targets. Phase order mirrors the batch builder's two
// passes: all occurrences land before any target scans.
func (x *Index) mergeLocked(reviews []model.Review) {
	ont := x.metric.Ont
	oldPairs := len(x.pairs)
	oldCand := x.numCand
	if x.pending != nil {
		x.materializeLocked()
	}

	// Phase A: extend U and the buckets in the same scan order the
	// batch builder's counting sort produces (candidates ascending,
	// pairs within a group in order).
	groups, _ := itemGroups(&model.Item{Reviews: reviews}, x.gran)
	for _, grp := range groups {
		for _, p := range grp {
			x.addOccurrenceLocked(x.numCand, p)
		}
		x.numCand++
	}
	for len(x.gain) < x.numCand {
		x.gain = append(x.gain, 0)
	}
	for len(x.fwd) < x.numCand {
		x.fwd = append(x.fwd, nil)
	}
	if cap(x.stamp) < x.numCand {
		grown := make([]uint32, x.numCand)
		copy(grown, x.stamp)
		x.stamp = grown
	}
	x.stamp = x.stamp[:x.numCand]
	if cap(x.tStamp) < len(x.pairs) {
		grown := make([]uint32, len(x.pairs))
		copy(grown, x.tStamp)
		x.tStamp = grown
	}
	x.tStamp = x.tStamp[:len(x.pairs)]

	// Phase B: every old target whose concept descends from a dirty
	// concept may gain edges from that bucket's tail. Descendant sets
	// bound the work by the delta's concepts, not the corpus size.
	tgen := x.nextTargetGenLocked()
	for _, d := range x.dirty {
		for _, dc := range ont.Descendants(x.buckets[d].concept) {
			b := x.bucketLocked(dc)
			if b == nil {
				continue
			}
			for _, o := range b.occ {
				t := o.pair
				if int(t) >= oldPairs || x.tStamp[t] == tgen {
					continue
				}
				x.tStamp[t] = tgen
				x.patchTargetLocked(int(t))
			}
		}
	}

	// Phase C: the delta's own targets scan the now-complete buckets
	// exactly like the batch builder's second pass.
	for w := oldPairs; w < len(x.pairs); w++ {
		x.scanNewTargetLocked(w)
	}

	// New candidates received their OLD-target arcs during phase B in
	// dirty-concept order, not target order; restore the ascending-target
	// invariant by sorting that prefix (everything < oldPairs — phase C's
	// new targets arrived after it, already ascending). Old candidates
	// only gained ascending new targets and need nothing.
	for u := oldCand; u < x.numCand; u++ {
		row := x.fwd[u]
		split := 0
		for split < len(row) && row[split].To < int32(oldPairs) {
			split++
		}
		slices.SortFunc(row[:split], func(a, b Arc) int { return cmp.Compare(a.To, b.To) })
	}

	for _, d := range x.dirty {
		x.buckets[d].dirty = false
	}
	x.dirty = x.dirty[:0]
	x.numReviews += len(reviews)
	x.frozen = nil
}

// patchTargetLocked re-probes only the dirty bucket TAILS for one old
// target and splices any new edges into its row by ancestor position.
// Old candidates never appear in a tail, so the old row's dedup
// decisions stand; new candidates dedup among themselves in the same
// ancestor-major order the batch scan uses.
func (x *Index) patchTargetLocked(w int) {
	ont := x.metric.Ont
	root := ont.Root()
	eps := x.metric.Epsilon
	target := &x.pairs[w]
	gen := x.nextGenLocked()
	ids, dists := ont.Ancestors(target.Concept)
	pend, pa := x.pend[:0], x.pendAnc[:0]
	for ai, anc := range ids {
		b := x.bucketLocked(anc)
		if b == nil || !b.dirty {
			continue
		}
		isRoot := anc == root
		d := dists[ai]
		for _, o := range b.occ[b.dirtyFrom:] {
			cand := o.cand
			if x.stamp[cand] == gen {
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
			x.stamp[cand] = gen
			pend = append(pend, Arc{To: cand, Dist: d})
			pa = append(pa, int32(ai))
		}
	}
	x.pend, x.pendAnc = pend, pa
	if len(pend) == 0 {
		return
	}

	// Stable splice by ancestor position, old arcs first at equal
	// positions (their bucket occurrences precede the tail). Fresh row
	// allocation keeps previously handed-out graphs' rows untouched.
	old, oa := x.bwd[w], x.edgeAnc[w]
	nr := make([]Arc, 0, len(old)+len(pend))
	na := make([]int32, 0, len(old)+len(pend))
	i, j := 0, 0
	for i < len(old) && j < len(pend) {
		if oa[i] <= pa[j] {
			nr, na = append(nr, old[i]), append(na, oa[i])
			i++
		} else {
			nr, na = append(nr, pend[j]), append(na, pa[j])
			j++
		}
	}
	x.bwd[w] = append(append(nr, old[i:]...), pend[j:]...)
	x.edgeAnc[w] = append(append(na, oa[i:]...), pa[j:]...)
	x.numEdges += len(pend)
	rd := x.rootDist[w]
	for _, a := range pend {
		x.fwd[a.To] = append(x.fwd[a.To], Arc{To: int32(w), Dist: a.Dist})
		if diff := rd - a.Dist; diff > 0 {
			x.gain[a.To] += int64(diff)
		}
	}
}

// scanNewTargetLocked runs the batch builder's per-target closure scan
// for one of the delta's pairs, over the full (old + tail) buckets.
func (x *Index) scanNewTargetLocked(w int) {
	ont := x.metric.Ont
	root := ont.Root()
	eps := x.metric.Epsilon
	target := &x.pairs[w]
	gen := x.nextGenLocked()
	ids, dists := ont.Ancestors(target.Concept)
	var row []Arc
	var ea []int32
	rd := x.rootDist[w]
	for ai, anc := range ids {
		isRoot := anc == root
		d := dists[ai]
		b := x.bucketLocked(anc)
		if b == nil {
			continue
		}
		for _, o := range b.occ {
			cand := o.cand
			if x.stamp[cand] == gen {
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
			x.stamp[cand] = gen
			row = append(row, Arc{To: cand, Dist: d})
			ea = append(ea, int32(ai))
			x.fwd[cand] = append(x.fwd[cand], Arc{To: int32(w), Dist: d})
			if diff := rd - d; diff > 0 {
				x.gain[cand] += int64(diff)
			}
		}
	}
	x.bwd[w], x.edgeAnc[w] = row, ea
	x.numEdges += len(row)
}

// freezeLocked hands out the memoized graph, or materializes one in
// O(|U| + |W|): both adjacency directions get per-row slice headers
// over the index's rows instead of a rebuild over every edge. Aliasing
// is safe because merges never mutate a row a handed-out graph can
// see:
//
//   - backward rows are never appended in place (patchTargetLocked
//     allocates a fresh spliced row and swaps the OUTER slice element),
//     so the outer slices are copied per freeze and the inner rows
//     shared;
//   - forward rows ARE appended in place, so each alias is
//     capacity-capped — an in-cap append by a later merge lands beyond
//     the graph's length, an over-cap append reallocates.
//
// Row contents and order match buildClosure's exactly (backward:
// ancestor-major emission order; forward: ascending target), which the
// equivalence tests fuzz via the accessor-level row comparison.
func (x *Index) freezeLocked() *Graph {
	if x.frozen != nil {
		return x.frozen
	}
	np := len(x.pairs)
	nc := x.numCand
	g := &Graph{
		Metric:        x.metric,
		Pairs:         x.pairs[:np:np],
		RootDist:      x.rootDist[:np:np],
		Weight:        x.ones[:np:np],
		NumCandidates: nc,
		numEdges:      x.numEdges,
		bwd:           append([][]Arc(nil), x.bwd...),
		fwd:           make([][]Arc, nc),
		initGains:     append(make([]int64, 0, nc), x.gain...),
	}
	// Build from scratch returns non-nil (empty) RootDist/Weight even
	// for a pairless corpus; match that shape exactly.
	if g.RootDist == nil {
		g.RootDist = make([]int32, 0)
	}
	if g.Weight == nil {
		g.Weight = make([]int32, 0)
	}
	for u, r := range x.fwd {
		g.fwd[u] = r[:len(r):len(r)]
	}
	x.frozen = g
	return g
}
