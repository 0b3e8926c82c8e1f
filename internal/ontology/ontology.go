// Package ontology implements the hierarchical concept ontology (a
// rooted DAG) that the summarization framework is built on (paper §2).
//
// Concepts are nodes; a directed edge points from a more general
// concept (parent) to a more specific one (child), as in the
// "part-whole" / "is-a" relations of SNOMED CT, WordNet or ConceptNet.
// A concept may have several parents (SNOMED CT is a DAG, not a tree),
// but the ontology has exactly one root from which every concept is
// reachable.
//
// The summarization algorithms need two graph primitives:
//
//   - Depth(c): the shortest-path length from the root to c, which is
//     the coverage distance d(r, c) of the root (Definition 1).
//   - ancestor iteration with shortest up-distances (§4.1 second pass),
//     provided as a flattened CSR ancestor closure computed once at
//     Build time (Ancestors — the paper's own scalability argument is
//     that "the average number of ancestors per concept is small", so
//     the closure is cheap to store). An ancestorWalker BFS computes
//     it.
package ontology

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// ConceptID is a dense index identifying a concept within one Ontology.
// IDs are assigned in the order concepts are added to the Builder and
// are stable across Build, MarshalJSON and UnmarshalJSON.
type ConceptID int32

// None is the invalid concept ID.
const None ConceptID = -1

type node struct {
	name     string
	synonyms []string
	parents  []ConceptID
	children []ConceptID
	depth    int32 // shortest-path length from the root
}

// Ontology is an immutable rooted concept DAG. Construct one with a
// Builder or by unmarshaling JSON. All methods are safe for concurrent
// use.
type Ontology struct {
	nodes    []node
	byName   map[string]ConceptID
	root     ConceptID
	numEdges int
	maxDepth int32

	// Ancestor closure in CSR layout, precomputed at Build time. Row c
	// spans ancID/ancDist[ancIdx[c]:ancIdx[c+1]] and holds c itself
	// (up-distance 0) followed by every strict ancestor of c in BFS
	// order, each with its shortest up-distance. BFS order means
	// distances within a row are non-decreasing — the property the
	// coverage builder's first-hit-wins dedup relies on.
	ancIdx  []int32
	ancID   []ConceptID
	ancDist []int32
}

// Builder accumulates concepts and edges and validates them into an
// Ontology. The zero value is ready to use.
type Builder struct {
	nodes  []node
	byName map[string]ConceptID
}

// AddConcept registers a concept under a canonical name with optional
// synonyms and returns its ID. Adding a name twice returns the existing
// ID (synonyms of later calls are merged).
func (b *Builder) AddConcept(name string, synonyms ...string) ConceptID {
	if b.byName == nil {
		b.byName = make(map[string]ConceptID)
	}
	key := normalize(name)
	if id, ok := b.byName[key]; ok {
		b.nodes[id].synonyms = mergeSynonyms(b.nodes[id].synonyms, synonyms)
		return id
	}
	id := ConceptID(len(b.nodes))
	b.nodes = append(b.nodes, node{name: name, synonyms: mergeSynonyms(nil, synonyms)})
	b.byName[key] = id
	return id
}

// AddEdge records that parent is a direct generalization of child.
// Duplicate edges are ignored. Self-loops are rejected.
func (b *Builder) AddEdge(parent, child ConceptID) error {
	if parent == child {
		return fmt.Errorf("ontology: self-loop on concept %d (%s)", parent, b.nodes[parent].name)
	}
	if int(parent) >= len(b.nodes) || int(child) >= len(b.nodes) || parent < 0 || child < 0 {
		return fmt.Errorf("ontology: edge (%d -> %d) references unknown concept", parent, child)
	}
	for _, c := range b.nodes[parent].children {
		if c == child {
			return nil
		}
	}
	b.nodes[parent].children = append(b.nodes[parent].children, child)
	b.nodes[child].parents = append(b.nodes[child].parents, parent)
	return nil
}

// Child is a convenience that adds a concept (if new) and links it
// under parent in one call.
func (b *Builder) Child(parent ConceptID, name string, synonyms ...string) ConceptID {
	id := b.AddConcept(name, synonyms...)
	if err := b.AddEdge(parent, id); err != nil {
		// AddEdge only fails on self-loops or unknown IDs, which Child
		// cannot produce with a valid parent; surface misuse loudly.
		panic(err)
	}
	return id
}

// Build validates the accumulated graph and returns the immutable
// ontology. It fails if the graph is empty, has a cycle, has zero or
// multiple roots, or has concepts unreachable from the root.
func (b *Builder) Build() (*Ontology, error) {
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("ontology: no concepts")
	}
	root := None
	for id := range b.nodes {
		if len(b.nodes[id].parents) == 0 {
			if root != None {
				return nil, fmt.Errorf("ontology: multiple roots: %q and %q",
					b.nodes[root].name, b.nodes[id].name)
			}
			root = ConceptID(id)
		}
	}
	if root == None {
		return nil, fmt.Errorf("ontology: no root (every concept has a parent, so there is a cycle)")
	}
	o := &Ontology{
		nodes:  make([]node, len(b.nodes)),
		byName: make(map[string]ConceptID, len(b.byName)),
		root:   root,
	}
	copy(o.nodes, b.nodes)
	for k, v := range b.byName {
		o.byName[k] = v
	}
	if err := o.checkAcyclic(); err != nil {
		return nil, err
	}
	if err := o.computeDepths(); err != nil {
		return nil, err
	}
	for id := range o.nodes {
		o.numEdges += len(o.nodes[id].children)
		// Deterministic adjacency order regardless of insertion order.
		sortIDs(o.nodes[id].children)
		sortIDs(o.nodes[id].parents)
	}
	o.buildAncestorClosure()
	return o, nil
}

// buildAncestorClosure flattens every concept's ancestor set (self +
// strict ancestors, BFS order, shortest up-distances) into one CSR
// block. Must run after adjacency sorting so rows are deterministic.
func (o *Ontology) buildAncestorClosure() {
	w := newAncestorWalker(o)
	o.ancIdx = make([]int32, len(o.nodes)+1)
	// Expect ≥2 entries per concept (self + root) on average; grow from
	// there instead of reallocating from zero.
	o.ancID = make([]ConceptID, 0, 2*len(o.nodes))
	o.ancDist = make([]int32, 0, 2*len(o.nodes))
	for id := range o.nodes {
		o.ancIdx[id] = int32(len(o.ancID))
		w.walk(ConceptID(id), func(a ConceptID, d int) bool {
			o.ancID = append(o.ancID, a)
			o.ancDist = append(o.ancDist, int32(d))
			return true
		})
	}
	o.ancIdx[len(o.nodes)] = int32(len(o.ancID))
}

// Ancestors returns the precomputed closure row of c: c itself first
// (up-distance 0), then every strict ancestor of c in BFS order with
// its shortest up-distance, so distances are non-decreasing. The
// returned slices alias the ontology's internal storage and must not
// be modified.
func (o *Ontology) Ancestors(c ConceptID) (ids []ConceptID, dists []int32) {
	lo, hi := o.ancIdx[c], o.ancIdx[c+1]
	return o.ancID[lo:hi], o.ancDist[lo:hi]
}

// NumAncestors reports the number of strict ancestors of c.
func (o *Ontology) NumAncestors(c ConceptID) int {
	return int(o.ancIdx[c+1]-o.ancIdx[c]) - 1
}

// ClosureSize reports the total number of closure entries across all
// concepts (a memory diagnostic; near-linear in Len() when the average
// ancestor count is small, per §4.1).
func (o *Ontology) ClosureSize() int { return len(o.ancID) }

func sortIDs(ids []ConceptID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func (o *Ontology) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(o.nodes))
	// Iterative DFS with an explicit stack; ontologies can be deep.
	type frame struct {
		id   ConceptID
		next int
	}
	var stack []frame
	for start := range o.nodes {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{id: ConceptID(start)})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			children := o.nodes[f.id].children
			if f.next < len(children) {
				c := children[f.next]
				f.next++
				switch color[c] {
				case white:
					color[c] = gray
					stack = append(stack, frame{id: c})
				case gray:
					return fmt.Errorf("ontology: cycle through %q", o.nodes[c].name)
				}
				continue
			}
			color[f.id] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// computeDepths runs BFS from the root so depth = shortest-path length.
func (o *Ontology) computeDepths() error {
	for id := range o.nodes {
		o.nodes[id].depth = -1
	}
	queue := make([]ConceptID, 0, len(o.nodes))
	queue = append(queue, o.root)
	o.nodes[o.root].depth = 0
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, c := range o.nodes[u].children {
			if o.nodes[c].depth == -1 {
				o.nodes[c].depth = o.nodes[u].depth + 1
				queue = append(queue, c)
				if o.nodes[c].depth > o.maxDepth {
					o.maxDepth = o.nodes[c].depth
				}
			}
		}
	}
	for id := range o.nodes {
		if o.nodes[id].depth == -1 {
			return fmt.Errorf("ontology: concept %q unreachable from root %q",
				o.nodes[id].name, o.nodes[o.root].name)
		}
	}
	return nil
}

// Len reports the number of concepts.
func (o *Ontology) Len() int { return len(o.nodes) }

// NumEdges reports the number of parent→child edges.
func (o *Ontology) NumEdges() int { return o.numEdges }

// Root returns the unique root concept.
func (o *Ontology) Root() ConceptID { return o.root }

// MaxDepth returns Δ, the maximum shortest-path depth of any concept
// (used in the greedy approximation bound, Theorem 4).
func (o *Ontology) MaxDepth() int { return int(o.maxDepth) }

// Name returns the canonical name of c.
func (o *Ontology) Name(c ConceptID) string { return o.nodes[c].name }

// Synonyms returns the synonym list of c (never mutated by the caller).
func (o *Ontology) Synonyms(c ConceptID) []string { return o.nodes[c].synonyms }

// Lookup finds a concept by canonical name (case- and space-insensitive).
func (o *Ontology) Lookup(name string) (ConceptID, bool) {
	id, ok := o.byName[normalize(name)]
	return id, ok
}

// Parents returns the direct generalizations of c.
func (o *Ontology) Parents(c ConceptID) []ConceptID { return o.nodes[c].parents }

// Children returns the direct specializations of c.
func (o *Ontology) Children(c ConceptID) []ConceptID { return o.nodes[c].children }

// Depth returns the shortest-path length from the root to c. By
// Definition 1 this is the coverage distance d(r, c) of the root.
func (o *Ontology) Depth(c ConceptID) int { return int(o.nodes[c].depth) }

// IsAncestorOf reports whether a is a (strict or equal) ancestor of c,
// i.e. c is reachable from a following parent→child edges. A concept is
// considered an ancestor of itself with distance 0, matching the
// convention of Definition 1 where a pair can cover a pair with the
// same concept.
func (o *Ontology) IsAncestorOf(a, c ConceptID) bool {
	return o.UpDistance(c, a) >= 0
}

// UpDistance returns the shortest-path length from ancestor a down to
// c (equivalently, from c up to a), or -1 if a is not an ancestor of c.
func (o *Ontology) UpDistance(c, a ConceptID) int {
	// Scan the precomputed closure row: ancestor sets are small (§4.1),
	// so a linear probe beats any transient BFS and allocates nothing.
	ids, dists := o.Ancestors(c)
	for i, id := range ids {
		if id == a {
			return int(dists[i])
		}
	}
	return -1
}

// Descendants returns all concepts reachable from c (including c),
// in BFS order.
func (o *Ontology) Descendants(c ConceptID) []ConceptID {
	seen := make(map[ConceptID]bool, 16)
	queue := []ConceptID{c}
	seen[c] = true
	for i := 0; i < len(queue); i++ {
		for _, ch := range o.nodes[queue[i]].children {
			if !seen[ch] {
				seen[ch] = true
				queue = append(queue, ch)
			}
		}
	}
	return queue
}

// AvgAncestors returns the average number of strict ancestors per
// concept. The paper (§4.1) relies on this being small for the
// initialization phase to be near-linear in |P|.
func (o *Ontology) AvgAncestors() float64 {
	// Each closure row holds the concept itself plus its strict
	// ancestors, so the strict-ancestor total is ClosureSize − Len.
	return float64(len(o.ancID)-len(o.nodes)) / float64(len(o.nodes))
}

// ancestorWalker iterates the ancestors of a concept together with
// their shortest up-distances, reusing scratch buffers across walks:
// the "for each pair p = (c, s), iterate over the ancestors of c in
// the DAG" of the §4.1 second pass. buildAncestorClosure runs it once
// per concept; everything else reads the result through Ancestors. A
// walker is NOT safe for concurrent use.
type ancestorWalker struct {
	o     *Ontology
	dist  []int32
	stamp []uint32
	cur   uint32
	queue []ConceptID
}

// newAncestorWalker returns a walker over o.
func newAncestorWalker(o *Ontology) *ancestorWalker {
	return &ancestorWalker{
		o:     o,
		dist:  make([]int32, len(o.nodes)),
		stamp: make([]uint32, len(o.nodes)),
	}
}

// walk calls visit(ancestor, upDistance) for c itself (distance 0) and
// every strict ancestor of c in BFS order (so distances are
// non-decreasing and each is the shortest up-distance). Iteration stops
// early if visit returns false.
func (w *ancestorWalker) walk(c ConceptID, visit func(anc ConceptID, dist int) bool) {
	w.cur++
	if w.cur == 0 { // stamp wrapped; reset
		for i := range w.stamp {
			w.stamp[i] = 0
		}
		w.cur = 1
	}
	w.queue = append(w.queue[:0], c)
	w.stamp[c] = w.cur
	w.dist[c] = 0
	for i := 0; i < len(w.queue); i++ {
		u := w.queue[i]
		if !visit(u, int(w.dist[u])) {
			return
		}
		for _, p := range w.o.nodes[u].parents {
			if w.stamp[p] != w.cur {
				w.stamp[p] = w.cur
				w.dist[p] = w.dist[u] + 1
				w.queue = append(w.queue, p)
			}
		}
	}
}

// jsonOntology is the serialization schema: nodes in ID order with
// parent links (children are derivable).
type jsonOntology struct {
	Concepts []jsonConcept `json:"concepts"`
}

type jsonConcept struct {
	Name     string   `json:"name"`
	Synonyms []string `json:"synonyms,omitempty"`
	Parents  []int32  `json:"parents,omitempty"`
}

// MarshalJSON encodes the ontology; IDs are preserved as positions.
func (o *Ontology) MarshalJSON() ([]byte, error) {
	enc := jsonOntology{Concepts: make([]jsonConcept, len(o.nodes))}
	for id, n := range o.nodes {
		jc := jsonConcept{Name: n.name, Synonyms: n.synonyms}
		for _, p := range n.parents {
			jc.Parents = append(jc.Parents, int32(p))
		}
		enc.Concepts[id] = jc
	}
	return json.Marshal(enc)
}

// UnmarshalJSON decodes and re-validates an ontology.
func (o *Ontology) UnmarshalJSON(data []byte) error {
	var dec jsonOntology
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	var b Builder
	ids := make([]ConceptID, len(dec.Concepts))
	for i, jc := range dec.Concepts {
		ids[i] = b.AddConcept(jc.Name, jc.Synonyms...)
		if int(ids[i]) != i {
			return fmt.Errorf("ontology: duplicate concept name %q", jc.Name)
		}
	}
	for i, jc := range dec.Concepts {
		for _, p := range jc.Parents {
			if err := b.AddEdge(ConceptID(p), ids[i]); err != nil {
				return err
			}
		}
	}
	built, err := b.Build()
	if err != nil {
		return err
	}
	*o = *built
	return nil
}

// String returns a short description like "Ontology(3021 concepts,
// 3395 edges, depth 7)".
func (o *Ontology) String() string {
	return fmt.Sprintf("Ontology(%d concepts, %d edges, depth %d)", o.Len(), o.NumEdges(), o.MaxDepth())
}

func normalize(name string) string {
	return strings.Join(strings.Fields(strings.ToLower(name)), " ")
}

func mergeSynonyms(dst, add []string) []string {
	for _, s := range add {
		dup := false
		for _, have := range dst {
			if normalize(have) == normalize(s) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
	}
	return dst
}
